/**
 * @file
 * Ragged-batch suite: RaggedBatch structure/pack/shrink contracts, the
 * ragged MultiHeadAttention fan-out, and the variable-token encoder
 * path with attention-guided token pruning.
 *
 * The two acceptance-grade assertions live here:
 *
 *  - keep = 1.0 parity: VitEncoder::forwardRagged over a mixed-lens
 *    batch is BITWISE-identical, per image, to the per-image reference
 *    built from the public stages (reference_encoder.h) — for the
 *    Taylor, Softmax, and Unified kernels.
 *  - batch independence: in a mixed {1, 17, n} batch every image's
 *    result is bitwise-identical to a single-image ragged forward of
 *    the same input, so a request's answer never depends on what it
 *    was batched with.
 *
 * Pruning is asserted structurally (surviving row counts match the
 * TokenPruner::keptTokens / buildSchedule analytics exactly) and
 * cross-mode (Unified kernel under dense and csr sparse execution
 * prunes the SAME tokens; values agree loosely, as test_sparse
 * tolerances go).
 */

#include <stdexcept>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/token_pruner.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/multi_head_attention.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "sparse/csr.h"
#include "tensor/ragged_batch.h"
#include "reference_encoder.h"
#include "testing.h"

using namespace vitality;

namespace {

/** Restores the global keep ratio on scope exit (tests must not leak
 * a pruning mode into suites that assume the default). */
struct KeepGuard
{
    float prev = tokenKeepRatio();
    ~KeepGuard() { setTokenKeepRatio(prev); }
};

VitConfig
raggedConfig()
{
    VitConfig cfg;
    cfg.name = "ragged-tiny";
    cfg.layers = 2;
    cfg.heads = 2;
    cfg.dModel = 32;
    cfg.tokens = 19;
    cfg.mlpHidden = 64;
    return cfg;
}

RaggedBatch
randomRagged(const std::vector<size_t> &lens, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Matrix> imgs;
    for (size_t n : lens)
        imgs.push_back(Matrix::randn(n, cols, rng, 0.0f, 0.5f));
    std::vector<const Matrix *> ptrs;
    for (const Matrix &m : imgs)
        ptrs.push_back(&m);
    return RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
}

// ------------------------------------------------------ structure

void
testStructure()
{
    RaggedBatch rb;
    T_CHECK(rb.empty() && rb.size() == 0 && rb.totalRows() == 0);
    T_CHECK(rb.offsets().empty());

    const size_t lens[] = {1, 17, 5};
    rb.resize(lens, 3, 8);
    T_CHECK(rb.size() == 3 && rb.totalRows() == 23 && rb.cols() == 8);
    T_CHECK(rb.rowsOf(0) == 1 && rb.rowsOf(1) == 17 && rb.rowsOf(2) == 5);
    T_CHECK(rb.offset(0) == 0 && rb.offset(1) == 1 && rb.offset(2) == 18);
    T_CHECK(rb.offsets().size() == 4 && rb.offsets().back() == 23);
    T_CHECK(rb.buffer().rows() == 23 && rb.buffer().cols() == 8);
    T_CHECK(rb.shapeStr() == "[3 x {1,17,5} x 8]");
    // rowPtr(i, r) addresses buffer row offset(i) + r.
    T_CHECK(rb.rowPtr(2, 1) == rb.buffer().rowPtr(19));

    T_CHECK_THROWS(rb.rowsOf(3), std::out_of_range);
    T_CHECK_THROWS(rb.offset(3), std::out_of_range);
    const size_t zeroRow[] = {2, 0};
    T_CHECK_THROWS(rb.resize(zeroRow, 2, 4), std::invalid_argument);
    T_CHECK_THROWS(rb.resize(lens, 0, 4), std::invalid_argument);
    T_CHECK_THROWS(rb.resize(lens, 3, 0), std::invalid_argument);
}

void
testPackUnpackRoundTrip()
{
    Rng rng(0x4a99);
    const Matrix a = Matrix::randn(1, 6, rng);
    const Matrix b = Matrix::randn(9, 6, rng);
    const Matrix c = Matrix::randn(4, 6, rng);
    const Matrix *ptrs[] = {&a, &b, &c};

    RaggedBatch rb = RaggedBatch::fromMatrices(ptrs, 3);
    T_CHECK(rb.size() == 3 && rb.totalRows() == 14 && rb.cols() == 6);
    Matrix out;
    rb.unpackImage(0, out);
    T_CHECK(out == a);
    rb.unpackImage(1, out);
    T_CHECK(out == b);
    rb.unpackImage(2, out);
    T_CHECK(out == c);
    T_CHECK_THROWS(rb.unpackImage(3, out), std::out_of_range);

    // Equality and copyFrom.
    RaggedBatch copy;
    copy.copyFrom(rb);
    T_CHECK(copy == rb && copy.allClose(rb, 0.0f));
    copy.rowPtr(1, 3)[2] += 1.0f;
    T_CHECK(copy != rb);
    RaggedBatch shorter = randomRagged({1, 9}, 6, 1);
    T_CHECK(shorter != rb); // structure mismatch, not a throw

    // packFrom error paths.
    RaggedBatch dst;
    T_CHECK_THROWS(dst.packFrom(ptrs, 0), std::invalid_argument);
    const Matrix odd(4, 7);
    const Matrix *bad1[] = {&a, &odd};
    T_CHECK_THROWS(dst.packFrom(bad1, 2), std::invalid_argument);
    const Matrix *bad2[] = {&a, nullptr};
    T_CHECK_THROWS(dst.packFrom(bad2, 2), std::invalid_argument);
    const Matrix zero(0, 6);
    const Matrix *bad3[] = {&a, &zero};
    T_CHECK_THROWS(dst.packFrom(bad3, 2), std::invalid_argument);
}

void
testShrinkRows()
{
    RaggedBatch rb = randomRagged({4, 1, 7}, 3, 0x5111);
    const RaggedBatch before = [&] {
        RaggedBatch c;
        c.copyFrom(rb);
        return c;
    }();

    const size_t kept[] = {2, 1, 7};
    rb.shrinkRows(kept);
    T_CHECK(rb.size() == 3 && rb.totalRows() == 10);
    T_CHECK(rb.rowsOf(0) == 2 && rb.rowsOf(1) == 1 && rb.rowsOf(2) == 7);
    // Buffer storage untouched: surviving rows read compacted data,
    // which here (no compaction pass ran) means original buffer rows
    // shifted to the new offsets.
    for (size_t c = 0; c < 3; ++c) {
        T_CHECK(rb.rowPtr(0, 1)[c] == before.rowPtr(0, 1)[c]);
        T_CHECK(rb.rowPtr(1, 0)[c] == before.buffer().rowPtr(2)[c]);
    }

    const size_t zero[] = {0, 1, 7};
    T_CHECK_THROWS(rb.shrinkRows(zero), std::invalid_argument);
    const size_t grow[] = {2, 1, 8};
    T_CHECK_THROWS(rb.shrinkRows(grow), std::invalid_argument);
}

// ------------------------------------------- ragged attention fan-out

/**
 * Ragged MHA over mixed lens (including the n = 1 edge) equals both
 * its own sequential twin and a per-image packed forwardSequential —
 * bitwise, for every kernel in the zoo.
 */
void
testRaggedAttentionParity()
{
    const size_t heads = 2, dh = 8, cols = heads * dh;
    const std::vector<size_t> lens = {1, 17, 6};
    const RaggedBatch q = randomRagged(lens, cols, 0xaa01);
    const RaggedBatch k = randomRagged(lens, cols, 0xaa02);
    const RaggedBatch v = randomRagged(lens, cols, 0xaa03);
    ThreadPool pool(3);

    for (AttentionType type : allAttentionTypes()) {
        MultiHeadAttention mha(makeAttention(type), heads);
        RaggedBatch out, outSeq;
        mha.forwardRaggedInto(pool, q, k, v, out);
        T_CHECK(out.offsets() == q.offsets());
        mha.forwardRaggedSequentialInto(q, k, v, outSeq);
        T_CHECK(out == outSeq);

        // Per-image reference through the single-image sequential path.
        Matrix qi, ki, vi, want, got;
        for (size_t i = 0; i < lens.size(); ++i) {
            q.unpackImage(i, qi);
            k.unpackImage(i, ki);
            v.unpackImage(i, vi);
            want = mha.forwardSequential(qi, ki, vi);
            out.unpackImage(i, got);
            T_CHECK(got == want);
        }
    }
}

void
testRaggedAttentionShapeChecks()
{
    const size_t heads = 2, cols = 16;
    MultiHeadAttention mha(makeAttention(AttentionType::Taylor), heads);
    ThreadPool pool(1);
    const RaggedBatch q = randomRagged({3, 5}, cols, 1);
    RaggedBatch out;

    const RaggedBatch kShort = randomRagged({3}, cols, 2);
    T_CHECK_THROWS(mha.forwardRaggedInto(pool, q, kShort, kShort, out),
                   std::invalid_argument);
    // K and V must agree per image (Q may differ: kv rows are the
    // attended set).
    const RaggedBatch kLens = randomRagged({3, 4}, cols, 3);
    const RaggedBatch vLens = randomRagged({3, 5}, cols, 3);
    T_CHECK_THROWS(mha.forwardRaggedInto(pool, q, kLens, vLens, out),
                   std::invalid_argument);
    const RaggedBatch kCols = randomRagged({3, 5}, cols + heads, 4);
    T_CHECK_THROWS(mha.forwardRaggedInto(pool, q, kCols, kCols, out),
                   std::invalid_argument);
    const RaggedBatch empty;
    T_CHECK_THROWS(mha.forwardRaggedInto(pool, empty, empty, empty, out),
                   std::invalid_argument);
    // A buffer reshaped behind its offsets is caught on entry.
    RaggedBatch broken = randomRagged({3, 5}, cols, 5);
    broken.buffer().resize(7, cols);
    T_CHECK_THROWS(mha.forwardRaggedInto(pool, broken, q, q, out),
                   std::invalid_argument);
}

// --------------------------------------------- encoder parity (keep=1)

/**
 * THE acceptance criterion: with keep = 1.0 the ragged encoder path is
 * bitwise-identical per image to the per-image reference, and in a
 * mixed batch every image equals its own single-image ragged forward.
 */
void
testEncoderRaggedKeepOneParity()
{
    VitConfig cfg = raggedConfig();
    // An explicit all-1.0 schedule overrides the global VITALITY_TOKENS
    // knob, so this parity contract holds under the CI keep-ratio
    // sweep too.
    cfg.tokenKeep.assign(cfg.layers, 1.0f);
    ThreadPool pool(3);
    const RaggedBatch x =
        randomRagged({cfg.tokens, 7, cfg.tokens}, cfg.dModel, 0xe11);

    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax,
          AttentionType::Unified}) {
        VitEncoder enc(cfg, makeAttention(type), 0xbeef);
        const RaggedBatch got = enc.forwardRagged(x, pool);
        T_CHECK(got.offsets() == x.offsets());
        Matrix in, img;
        for (size_t i = 0; i < x.size(); ++i) {
            x.unpackImage(i, in);
            got.unpackImage(i, img);
            T_CHECK(img == testing::referenceForward(enc, in)); // bitwise
        }
    }
}

/** Mixed token counts: each image is independent of its batch-mates. */
void
testEncoderRaggedBatchIndependence()
{
    VitConfig cfg = raggedConfig();
    cfg.tokenKeep.assign(cfg.layers, 1.0f); // pin: no pruning here
    ThreadPool pool(3);
    const std::vector<size_t> lens = {1, 17, cfg.tokens};
    const RaggedBatch x = randomRagged(lens, cfg.dModel, 0xe22);

    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor), 0xbeef);
    const RaggedBatch got = enc.forwardRagged(x, pool);
    T_CHECK(got.offsets() == x.offsets()); // keep = 1.0: no shrink

    Matrix in, out;
    for (size_t i = 0; i < lens.size(); ++i) {
        x.unpackImage(i, in);
        got.unpackImage(i, out);
        T_CHECK(out == testing::forwardAlone(enc, in, pool)); // bitwise
    }

    RaggedBatch bad = randomRagged({4}, cfg.dModel + 1, 5);
    RaggedBatch outRb;
    T_CHECK_THROWS(enc.forwardRaggedInto(bad, pool, outRb),
                   std::invalid_argument);
}

// ------------------------------------------------------ token pruning

void
testPrunerAnalytics()
{
    // keptTokens: CLS + clamp(round(keep * (n-1)), 1, n-1).
    T_CHECK(TokenPruner::keptTokens(197, 1.0f) == 197);
    T_CHECK(TokenPruner::keptTokens(197, 0.5f) == 99);  // 1 + 98
    T_CHECK(TokenPruner::keptTokens(197, 0.35f) == 70); // 1 + 69
    T_CHECK(TokenPruner::keptTokens(1, 0.1f) == 1);
    T_CHECK(TokenPruner::keptTokens(2, 0.01f) == 2); // floor: 1 non-CLS
    T_CHECK(TokenPruner::keptTokens(0, 0.5f) == 0);

    std::vector<float> sched;
    TokenPruner::buildSchedule(sched, 12, 0.5f);
    T_CHECK(sched.size() == 12);
    for (size_t l = 0; l < 12; ++l) {
        const bool pruned = l == 3 || l == 6 || l == 9;
        T_CHECK(sched[l] == (pruned ? 0.5f : 1.0f));
    }
    TokenPruner::buildSchedule(sched, 2, 0.7f);
    T_CHECK(sched.size() == 2 && sched[0] == 0.7f && sched[1] == 1.0f);
    TokenPruner::buildSchedule(sched, 1, 0.7f);
    T_CHECK(sched.size() == 1 && sched[0] == 1.0f); // nothing downstream
    T_CHECK_THROWS(TokenPruner::buildSchedule(sched, 12, 0.0f),
                   std::invalid_argument);
    T_CHECK_THROWS(TokenPruner::buildSchedule(sched, 12, 1.5f),
                   std::invalid_argument);
}

/**
 * An explicit per-layer schedule prunes to exactly the analytic row
 * counts, keeps the CLS row, and a batch-mate's presence does not
 * change WHICH tokens survive.
 */
void
testEncoderPruningStructure()
{
    VitConfig cfg = raggedConfig();
    cfg.tokenKeep = {0.5f, 1.0f}; // prune once, after layer 0
    cfg.validate();
    ThreadPool pool(2);
    const std::vector<size_t> lens = {1, 9, cfg.tokens};
    const RaggedBatch x = randomRagged(lens, cfg.dModel, 0xf00);

    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor), 0xbeef);
    const RaggedBatch got = enc.forwardRagged(x, pool);
    T_CHECK(got.size() == lens.size());
    for (size_t i = 0; i < lens.size(); ++i)
        T_CHECK(got.rowsOf(i) == TokenPruner::keptTokens(lens[i], 0.5f));

    // Same input alone prunes to the same surviving values, and the
    // single-image view applies the same schedule.
    Matrix in, out;
    for (size_t i = 0; i < lens.size(); ++i) {
        x.unpackImage(i, in);
        got.unpackImage(i, out);
        T_CHECK(out == testing::forwardAlone(enc, in, pool));
        if (lens[i] == cfg.tokens)
            T_CHECK(out == enc.forward(in, pool));
    }

    // withTokenKeep builds the staged schedule; validate() rejects
    // malformed ones.
    const VitConfig staged = raggedConfig().withTokenKeep(0.5f);
    T_CHECK(staged.tokenKeep.size() == staged.layers);
    VitConfig badCfg = raggedConfig();
    badCfg.tokenKeep = {0.5f}; // wrong length for 2 layers
    T_CHECK_THROWS(badCfg.validate(), std::invalid_argument);
    badCfg.tokenKeep = {0.5f, 1.5f};
    T_CHECK_THROWS(badCfg.validate(), std::invalid_argument);
}

/** The global VITALITY_TOKENS knob drives the default staged schedule
 * when the config carries none. */
void
testGlobalKeepKnob()
{
    KeepGuard guard;
    T_CHECK_THROWS(setTokenKeepRatio(0.0f), std::invalid_argument);
    T_CHECK_THROWS(setTokenKeepRatio(1.5f), std::invalid_argument);
    T_CHECK(parseTokenKeep("0.5") && *parseTokenKeep("0.5") == 0.5f);
    T_CHECK(!parseTokenKeep("0"));
    T_CHECK(!parseTokenKeep("1.5"));
    T_CHECK(!parseTokenKeep("bogus"));
    T_CHECK(!parseTokenKeep("0.5x"));

    setTokenKeepRatio(0.5f);
    const VitConfig cfg = raggedConfig(); // no explicit schedule
    ThreadPool pool(2);
    const std::vector<size_t> lens = {cfg.tokens};
    const RaggedBatch x = randomRagged(lens, cfg.dModel, 0xf11);
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor), 0xbeef);
    // L = 2 -> default schedule prunes after layer 0 (layers/4 == 0).
    const RaggedBatch got = enc.forwardRagged(x, pool);
    T_CHECK(got.rowsOf(0) == TokenPruner::keptTokens(cfg.tokens, 0.5f));

    // Back at 1.0 the same encoder instance stops pruning (the
    // schedule re-resolves per call).
    setTokenKeepRatio(1.0f);
    const RaggedBatch full = enc.forwardRagged(x, pool);
    T_CHECK(full.rowsOf(0) == cfg.tokens);
}

/**
 * Pruning composes with sparse execution: the Unified kernel under
 * dense and csr modes selects the SAME surviving tokens (the ranking
 * reads Q/K, whose producing GEMMs are mode-independent) and the
 * outputs agree to the usual cross-mode tolerance.
 */
void
testPruningUnderSparseModes()
{
    const SparseExec ambient = sparseExecMode();
    VitConfig cfg = raggedConfig();
    cfg.tokenKeep = {0.5f, 1.0f};
    ThreadPool pool(2);
    const RaggedBatch x =
        randomRagged({cfg.tokens, 11}, cfg.dModel, 0xf22);

    VitEncoder enc(cfg, makeAttention(AttentionType::Unified, 0.01f),
                   0xbeef);
    setSparseExecMode(SparseExec::Dense);
    const RaggedBatch dense = enc.forwardRagged(x, pool);
    setSparseExecMode(SparseExec::Csr);
    const RaggedBatch csr = enc.forwardRagged(x, pool);
    setSparseExecMode(ambient);

    T_CHECK(dense.offsets() == csr.offsets()); // same tokens survived
    T_CHECK(dense.allClose(csr, 5e-2f));
}

void
testPrunerErrorPaths()
{
    TokenPruner pruner;
    RaggedBatch x = randomRagged({5, 7}, 8, 1);
    RaggedBatch q = randomRagged({5, 7}, 8, 2);
    RaggedBatch k = randomRagged({5, 7}, 8, 3);

    T_CHECK_THROWS(pruner.prune(x, q, k, 2, 0.0f),
                   std::invalid_argument);
    T_CHECK_THROWS(pruner.prune(x, q, k, 3, 0.5f), // 8 % 3 != 0
                   std::invalid_argument);
    RaggedBatch qBad = randomRagged({5, 6}, 8, 4); // offsets mismatch
    T_CHECK_THROWS(pruner.prune(x, qBad, k, 2, 0.5f),
                   std::invalid_argument);
    // keep = 1.0 is a structural no-op.
    RaggedBatch before;
    before.copyFrom(x);
    pruner.prune(x, q, k, 2, 1.0f);
    T_CHECK(x == before);
}

} // namespace

int
main()
{
    testStructure();
    testPackUnpackRoundTrip();
    testShrinkRows();
    testRaggedAttentionParity();
    testRaggedAttentionShapeChecks();
    testEncoderRaggedKeepOneParity();
    testEncoderRaggedBatchIndependence();
    testPrunerAnalytics();
    testEncoderPruningStructure();
    testGlobalKeepKnob();
    testPruningUnderSparseModes();
    testPrunerErrorPaths();
    return vitality::testing::finish("test_ragged");
}
