/**
 * @file
 * Steady-state zero-allocation contracts, enforced with the counting
 * operator new/delete replacements in alloc_tracker.cpp.
 *
 * The *Into paths document that after warm-up (first call at a given
 * shape) they perform no heap allocations: every intermediate lives in
 * a recycled Workspace / RaggedBatch / CsrMask. This suite turns that
 * comment into a failing test: warm each path twice, then assert an
 * AllocationProbe around a third call observes zero allocations.
 *
 * All encoder runs use ThreadPool(1): the single-worker pool takes
 * parallelFor's inline fast path (no task-closure or loop-state
 * allocations) and installs a width-1 GEMM runner (no band fan-out),
 * so the only remaining allocation sources would be genuine contract
 * violations in the tensor/attention/model layers.
 */

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/vit_encoder.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ragged_batch.h"

#include "alloc_tracker.h"
#include "testing.h"

using namespace vitality;

namespace {

VitConfig
allocConfig()
{
    VitConfig cfg;
    cfg.name = "alloc-tiny";
    cfg.layers = 2;
    cfg.heads = 2;
    cfg.dModel = 32;
    cfg.tokens = 16;
    cfg.mlpHidden = 64;
    return cfg;
}

/**
 * The whole suite is vacuous if the replacement operators did not
 * actually link in, so first prove the probe sees a plain new/delete.
 */
void
testTrackerObservesAllocations()
{
    testing::AllocationProbe probe;
    // The volatile pointer stops the optimizer from eliding the
    // new/delete pair outright (allowed since C++14).
    int *volatile p = new int(7);
    T_CHECK(probe.allocations() >= 1);
    const uint64_t frees_before = testing::deallocationCount();
    delete p;
    T_CHECK(testing::deallocationCount() > frees_before);

    // Aligned news (Matrix storage is 32B-aligned) are counted too.
    testing::AllocationProbe aligned_probe;
    Matrix m(4, 8);
    T_CHECK(aligned_probe.allocations() >= 1);
    (void)m;
}

/** Every zoo kernel's forwardInto is allocation-free once warm. */
void
testZooForwardIntoAllocationFree()
{
    const size_t n = 24, d = 16;
    Rng rng(0xa110c);
    const Matrix q = Matrix::randn(n, d, rng, 0.0f, 0.5f);
    const Matrix k = Matrix::randn(n, d, rng, 0.0f, 0.5f);
    const Matrix v = Matrix::randn(n, d, rng);

    for (const AttentionKernelPtr &kernel : makeAttentionZoo()) {
        // name() builds a std::string; keep it outside the probe.
        const std::string name = kernel->name();
        AttentionContext ctx;
        Matrix out;
        kernel->forwardInto(ctx, q, k, v, out);
        kernel->forwardInto(ctx, q, k, v, out);

        testing::AllocationProbe probe;
        kernel->forwardInto(ctx, q, k, v, out);
        if (probe.allocations() != 0)
            testing::reportFailure(__FILE__, __LINE__, name.c_str());
    }
}

/** The single-image VitEncoder::forwardInto view is allocation-free
 * once warm. */
void
testEncoderForwardAllocationFree()
{
    const VitConfig cfg = allocConfig();
    Rng rng(0xa111);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 0.5f);
    ThreadPool pool(1);

    for (AttentionType type :
         {AttentionType::Softmax, AttentionType::Taylor,
          AttentionType::SangerSparse}) {
        const std::string name = attentionTypeName(type);
        VitEncoder enc(cfg, makeAttention(type));
        Matrix out;
        enc.forwardInto(x, pool, out);
        enc.forwardInto(x, pool, out);

        testing::AllocationProbe probe;
        enc.forwardInto(x, pool, out);
        if (probe.allocations() != 0)
            testing::reportFailure(__FILE__, __LINE__, name.c_str());
    }
}

/** Three images of 1, 9 and cfg.tokens rows. */
RaggedBatch
mixedLensBatch(const VitConfig &cfg, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Matrix> imgs;
    imgs.push_back(Matrix::randn(1, cfg.dModel, rng, 0.0f, 0.5f));
    imgs.push_back(Matrix::randn(9, cfg.dModel, rng, 0.0f, 0.5f));
    imgs.push_back(Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 0.5f));
    std::vector<const Matrix *> ptrs;
    for (const Matrix &m : imgs)
        ptrs.push_back(&m);
    return RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
}

/**
 * The ragged path is allocation-free once warm at a lens profile —
 * including with token pruning active, where the pruner's ranking
 * scratch and the shrinking activation structures must all recycle.
 */
void
testEncoderForwardRaggedAllocationFree()
{
    const VitConfig cfg = allocConfig();
    const RaggedBatch x = mixedLensBatch(cfg, 0xa114);
    ThreadPool pool(1);

    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    RaggedBatch out;
    enc.forwardRaggedInto(x, pool, out);
    enc.forwardRaggedInto(x, pool, out);

    testing::AllocationProbe probe;
    enc.forwardRaggedInto(x, pool, out);
    T_CHECK(probe.allocations() == 0);

    // Same contract with a pruning schedule engaged.
    VitConfig pruned = allocConfig();
    pruned.tokenKeep = {0.5f, 1.0f};
    VitEncoder encP(pruned, makeAttention(AttentionType::Taylor));
    encP.forwardRaggedInto(x, pool, out);
    encP.forwardRaggedInto(x, pool, out);

    testing::AllocationProbe probeP;
    encP.forwardRaggedInto(x, pool, out);
    T_CHECK(probeP.allocations() == 0);
}

/**
 * The INT8 dense path is allocation-free once warm too, over a
 * mixed-lens ragged batch with pruning engaged: the quantized weight
 * cache is built on the first int8 forward, and the per-call activation
 * quantization writes into recycled thread-local scratch.
 */
void
testEncoderInt8RaggedAllocationFree()
{
    const Gemm::QuantMode prev = Gemm::quantMode();
    Gemm::setQuantMode(Gemm::QuantMode::Int8);

    VitConfig cfg = allocConfig();
    cfg.tokenKeep = {0.5f, 1.0f};
    const RaggedBatch x = mixedLensBatch(cfg, 0xa113);
    ThreadPool pool(1);

    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    RaggedBatch out;
    enc.forwardRaggedInto(x, pool, out); // builds the int8 weight cache
    enc.forwardRaggedInto(x, pool, out);

    testing::AllocationProbe probe;
    enc.forwardRaggedInto(x, pool, out);
    T_CHECK(probe.allocations() == 0);

    Gemm::setQuantMode(prev);
}

} // namespace

int
main()
{
    testTrackerObservesAllocations();
    testZooForwardIntoAllocationFree();
    testEncoderForwardAllocationFree();
    testEncoderForwardRaggedAllocationFree();
    testEncoderInt8RaggedAllocationFree();
    return vitality::testing::finish("test_alloc");
}
