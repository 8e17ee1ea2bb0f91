/**
 * @file
 * Runtime-layer tests: ThreadPool scheduling and exception propagation,
 * MultiHeadAttention's pooled ragged path against both the sequential
 * references and a hand-rolled per-head loop over the legacy forward(),
 * the batched (B x heads) dispatch against per-image execution, the
 * concurrent-caller guard, and degenerate-shape rejection.
 */

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "runtime/call_guard.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/ragged_batch.h"
#include "reference_encoder.h"
#include "testing.h"

using namespace vitality;
using testing::oneImage;

namespace {

/** Pooled ragged forward of one packed image, unpacked. */
Matrix
pooledForward(MultiHeadAttention &mha, ThreadPool &pool, const Matrix &q,
              const Matrix &k, const Matrix &v)
{
    Matrix out;
    mha.forwardRagged(pool, oneImage(q), oneImage(k), oneImage(v))
        .unpackImage(0, out);
    return out;
}

void
testThreadPoolRunsEverything()
{
    ThreadPool pool(4);
    T_CHECK(pool.size() == 4);

    std::atomic<int> count{0};
    std::atomic<uint64_t> index_sum{0};
    pool.parallelFor(0, 1000, [&](size_t i, size_t worker) {
        T_CHECK(worker < 4);
        count.fetch_add(1);
        index_sum.fetch_add(i);
    });
    T_CHECK(count.load() == 1000);
    T_CHECK(index_sum.load() == 999ull * 1000 / 2);

    // Empty range is a no-op; more drivers than indices is fine.
    pool.parallelFor(5, 5, [&](size_t, size_t) { count.fetch_add(1); });
    T_CHECK(count.load() == 1000);
    pool.parallelFor(0, 2, [&](size_t, size_t) { count.fetch_add(1); });
    T_CHECK(count.load() == 1002);
}

void
testThreadPoolPropagatesExceptions()
{
    ThreadPool pool(2);
    bool caught = false;
    try {
        pool.parallelFor(0, 64, [&](size_t i, size_t) {
            if (i == 13)
                throw std::runtime_error("boom");
        });
    } catch (const std::runtime_error &) {
        caught = true;
    }
    T_CHECK(caught);
    // The pool is still healthy afterwards.
    std::atomic<int> count{0};
    pool.parallelFor(0, 8, [&](size_t, size_t) { count.fetch_add(1); });
    T_CHECK(count.load() == 8);
}

void
testWorkerThreadFlag()
{
    T_CHECK(!ThreadPool::onWorkerThread());
    ThreadPool pool(2);
    std::atomic<int> onWorker{0};
    pool.parallelFor(0, 8, [&](size_t, size_t) {
        if (ThreadPool::onWorkerThread())
            onWorker.fetch_add(1);
    });
    T_CHECK(onWorker.load() == 8);
    T_CHECK(!ThreadPool::onWorkerThread());
}

void
testThreadPoolSingleWorkerInlinePath()
{
    // A single-worker pool runs parallelFor bodies inline on the
    // calling thread (worker index 0), without touching the task
    // queue — the contract tests/test_alloc.cpp's zero-allocation
    // assertions lean on.
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    int ran = 0;
    pool.parallelFor(0, 5, [&](size_t i, size_t worker) {
        T_CHECK(worker == 0);
        T_CHECK(std::this_thread::get_id() == caller);
        T_CHECK(!ThreadPool::onWorkerThread());
        ran += static_cast<int>(i) + 1;
    });
    T_CHECK(ran == 15);

    // Empty range stays a no-op, and exceptions still propagate from
    // the inline path.
    pool.parallelFor(3, 3, [&](size_t, size_t) { ran = -1; });
    T_CHECK(ran == 15);
    T_CHECK_THROWS(pool.parallelFor(0, 4,
                                    [](size_t, size_t) {
                                        throw std::runtime_error("inline");
                                    }),
                   std::runtime_error);

    // A single-index loop takes the same inline path even on a
    // multi-worker pool.
    ThreadPool wide(4);
    bool inline_run = false;
    wide.parallelFor(7, 8, [&](size_t i, size_t worker) {
        T_CHECK(i == 7 && worker == 0);
        inline_run = std::this_thread::get_id() == caller;
    });
    T_CHECK(inline_run);
}

void
testThreadCountOverridePrecedence()
{
    // ThreadPool(0) resolves through Gemm::maxThreads() — the
    // VITALITY_THREADS / setMaxThreads() knob — while explicit
    // constructor counts are never overridden.
    const size_t prevCap = Gemm::maxThreads();
    Gemm::setMaxThreads(3);
    {
        ThreadPool defaulted(0);
        T_CHECK(defaulted.size() == 3);
        ThreadPool explicit_count(2);
        T_CHECK(explicit_count.size() == 2);
    }
    Gemm::setMaxThreads(prevCap);
    {
        ThreadPool defaulted(0);
        T_CHECK(defaulted.size() >= 1);
        if (prevCap > 0)
            T_CHECK(defaulted.size() == prevCap);
    }
}

void
testCallGuardBasics()
{
    std::atomic<bool> busy{false};

    // Entering sets the flag; a second guard on the same flag throws
    // without disturbing the holder; leaving releases it.
    {
        CallGuard guard(busy, "occupied");
        T_CHECK(busy.load());
        T_CHECK_THROWS(CallGuard(busy, "occupied"), std::logic_error);
        T_CHECK(busy.load());
    }
    T_CHECK(!busy.load());

    // Reusable after release, including after a rejected attempt.
    {
        CallGuard guard(busy, "again");
        T_CHECK(busy.load());
    }
    T_CHECK(!busy.load());
}

void
testIntraGemmRowBands()
{
    const size_t prevCap = Gemm::maxThreads();
    {
        ThreadPool pool(4);
        // The first live pool installs itself as the Gemm runner.
        T_CHECK(Gemm::parallelRunner() != nullptr);

        Rng rng(0x99c0);
        // Large enough to clear the size heuristic and band across the
        // pool (when no VITALITY_THREADS cap pins the suite to 1).
        const Matrix a = Matrix::randn(197, 384, rng);
        const Matrix b = Matrix::randn(384, 512, rng);

        Matrix banded;
        Gemm::multiply(banded, a, b);
        // Row bands partition the output; every element is still one
        // ascending-k sum, so any band count is bitwise-identical to
        // the sequential call.
        Gemm::setMaxThreads(1);
        Matrix sequential;
        Gemm::multiply(sequential, a, b);
        Gemm::setMaxThreads(prevCap);
        T_CHECK(banded == sequential);

        // Banding composes with the fused epilogue, still bitwise.
        const Matrix bias = Matrix::randn(1, 512, rng);
        const Matrix init = Matrix::randn(197, 512, rng);
        Gemm::Epilogue ep;
        ep.accumulate = true;
        ep.bias = &bias;
        ep.act = Gemm::Epilogue::Act::Gelu;
        Matrix fusedBanded = init;
        Gemm::multiply(fusedBanded, a, b, Gemm::Trans::None, ep);
        Gemm::setMaxThreads(1);
        Matrix fusedSeq = init;
        Gemm::multiply(fusedSeq, a, b, Gemm::Trans::None, ep);
        Gemm::setMaxThreads(prevCap);
        T_CHECK(fusedBanded == fusedSeq);

        // GEMMs issued from inside a pool task must not fan out again
        // (the runner reports width 1 there): this completing at all
        // proves no nested-parallelFor deadlock, and results match.
        pool.parallelFor(0, 8, [&](size_t, size_t) {
            Matrix c;
            Gemm::multiply(c, a, b);
            T_CHECK(c == sequential);
        });

        // The test-hook cap clamps the advertised width.
        Gemm::setMaxThreads(1);
        T_CHECK(Gemm::parallelWidth() == 1);
        Gemm::setMaxThreads(prevCap);
    }
    // Destruction un-installs the runner; multiplies fall back to
    // sequential execution instead of fanning into a dead pool.
    T_CHECK(Gemm::parallelRunner() == nullptr);
    T_CHECK(Gemm::parallelWidth() == 1);

    // With several pools alive, the newest serves; destroying it hands
    // the role back to the survivor rather than dropping parallelism
    // for the rest of the process.
    {
        ThreadPool outer(2);
        const auto outerRunner = Gemm::parallelRunner();
        T_CHECK(outerRunner != nullptr);
        {
            ThreadPool inner(3);
            T_CHECK(Gemm::parallelRunner() != outerRunner);
        }
        T_CHECK(Gemm::parallelRunner() == outerRunner);
    }
    T_CHECK(Gemm::parallelRunner() == nullptr);
}

void
testMultiHeadMatchesSequentialAndLegacy()
{
    const size_t n = 29, heads = 3, dh = 16, dm = heads * dh;
    Rng rng(0x99a1);
    const Matrix q = Matrix::randn(n, dm, rng, 0.0f, 0.5f);
    const Matrix k = Matrix::randn(n, dm, rng, 0.0f, 0.5f);
    const Matrix v = Matrix::randn(n, dm, rng);

    ThreadPool pool(4);
    for (const AttentionKernelPtr &kernel : makeAttentionZoo()) {
        MultiHeadAttention mha(kernel, heads);

        // Pooled vs sequential: the per-head programs are identical, so
        // the packed outputs are bitwise equal regardless of scheduling.
        const Matrix parallel_out = pooledForward(mha, pool, q, k, v);
        const Matrix sequential_out = mha.forwardSequential(q, k, v);
        T_CHECK(parallel_out == sequential_out);

        // And against a hand-rolled loop over the legacy forward().
        Matrix reference(n, dm);
        for (size_t h = 0; h < heads; ++h) {
            const Matrix zh = kernel->forward(
                q.colRange(h * dh, (h + 1) * dh),
                k.colRange(h * dh, (h + 1) * dh),
                v.colRange(h * dh, (h + 1) * dh));
            for (size_t r = 0; r < n; ++r)
                for (size_t c = 0; c < dh; ++c)
                    reference(r, h * dh + c) = zh(r, c);
        }
        if (maxAbsDiff(parallel_out, reference) > 1e-5f) {
            vitality::testing::reportFailure(__FILE__, __LINE__,
                                             kernel->name().c_str());
        }

        // Aggregate counts are per-head counts scaled by H.
        const OpCounts agg = mha.opCounts(n, dm);
        const OpCounts per_head = kernel->opCounts(n, dh);
        T_CHECK(agg.mul == per_head.mul * heads);
        T_CHECK(agg.add == per_head.add * heads);
        T_CHECK(agg.div == per_head.div * heads);
        T_CHECK(agg.exp == per_head.exp * heads);
    }
}

void
testMultiHeadDeterministicAcrossPoolSizes()
{
    const size_t n = 19, heads = 4, dm = 32;
    Rng rng(0x99b2);
    const Matrix q = Matrix::randn(n, dm, rng);
    const Matrix k = Matrix::randn(n, dm, rng);
    const Matrix v = Matrix::randn(n, dm, rng);

    AttentionKernelPtr kernel = makeAttention(AttentionType::Taylor);
    ThreadPool one(1), many(8);
    MultiHeadAttention mha_one(kernel, heads), mha_many(kernel, heads);
    const Matrix a = pooledForward(mha_one, one, q, k, v);
    const Matrix b = pooledForward(mha_many, many, q, k, v);
    T_CHECK(a == b);

    // Repeated calls on the same instance recycle and stay identical.
    const Matrix c = pooledForward(mha_many, many, q, k, v);
    T_CHECK(b == c);
}

void
testMultiHeadShapeValidation()
{
    ThreadPool pool(2);
    AttentionKernelPtr kernel = makeAttention(AttentionType::Softmax);
    MultiHeadAttention mha(kernel, 3);
    Rng rng(0x99c3);
    const Matrix bad = Matrix::randn(8, 16, rng); // 16 % 3 != 0
    T_CHECK_THROWS(mha.forwardSequential(bad, bad, bad),
                   std::invalid_argument);
    const RaggedBatch badR = oneImage(bad);
    T_CHECK_THROWS(mha.forwardRagged(pool, badR, badR, badR),
                   std::invalid_argument);
    T_CHECK_THROWS(MultiHeadAttention(kernel, 0), std::invalid_argument);
    T_CHECK_THROWS(MultiHeadAttention(nullptr, 2), std::invalid_argument);

    // Degenerate packed inputs are rejected loudly instead of silently
    // producing empty output: zero tokens and zero width (d_h = 0 —
    // 0 % heads == 0, so the divisibility check alone would pass it).
    const Matrix no_tokens(0, 12);
    T_CHECK_THROWS(mha.forwardSequential(no_tokens, no_tokens, no_tokens),
                   std::invalid_argument);
    const Matrix no_width(8, 0);
    T_CHECK_THROWS(mha.forwardSequential(no_width, no_width, no_width),
                   std::invalid_argument);
    // Empty keys with non-empty queries likewise.
    const Matrix good_q = Matrix::randn(8, 12, rng);
    const Matrix no_kv(0, 12);
    T_CHECK_THROWS(mha.forwardSequential(good_q, no_kv, no_kv),
                   std::invalid_argument);
}

void
testMultiHeadBatchMatchesPerImage()
{
    const size_t n = 23, heads = 3, dh = 8, dm = heads * dh, images = 4;
    Rng rng(0x99d4);
    std::vector<Matrix> qs, ks, vs;
    for (size_t b = 0; b < images; ++b) {
        qs.push_back(Matrix::randn(n, dm, rng, 0.0f, 0.5f));
        ks.push_back(Matrix::randn(n, dm, rng, 0.0f, 0.5f));
        vs.push_back(Matrix::randn(n, dm, rng));
    }
    auto pack = [](const std::vector<Matrix> &ms) {
        std::vector<const Matrix *> ptrs;
        for (const Matrix &m : ms)
            ptrs.push_back(&m);
        return RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
    };
    const RaggedBatch qb = pack(qs), kb = pack(ks), vb = pack(vs);

    ThreadPool pool(4);
    for (AttentionType type :
         {AttentionType::Softmax, AttentionType::Taylor,
          AttentionType::Unified}) {
        MultiHeadAttention mha(makeAttention(type), heads);

        // Batched output is bitwise-identical to B per-image forwards.
        const RaggedBatch out = mha.forwardRagged(pool, qb, kb, vb);
        T_CHECK(out.offsets() == qb.offsets() && out.cols() == dm);
        Matrix img;
        for (size_t b = 0; b < images; ++b) {
            out.unpackImage(b, img);
            T_CHECK(img == pooledForward(mha, pool, qs[b], ks[b], vs[b]));
            T_CHECK(img == mha.forwardSequential(qs[b], ks[b], vs[b]));
        }

        // And to the sequential batch reference.
        T_CHECK(out == mha.forwardRaggedSequential(qb, kb, vb));

        // Recycled rerun stays identical.
        T_CHECK(out == mha.forwardRagged(pool, qb, kb, vb));
    }
}

/**
 * A kernel whose forwardInto blocks until released, so the test can hold
 * one forward call in flight while probing the concurrent-caller guard.
 */
class BlockingKernel : public AttentionKernel
{
  public:
    AttentionType type() const override { return AttentionType::Softmax; }
    std::string name() const override { return "Blocking"; }

    Matrix forward(const Matrix &, const Matrix &,
                   const Matrix &v) const override
    {
        return v;
    }

    void forwardInto(AttentionContext &, const Matrix &, const Matrix &,
                     const Matrix &v, Matrix &out) const override
    {
        std::unique_lock<std::mutex> lock(m);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
        out.copyFrom(v);
    }

    OpCounts opCounts(size_t, size_t) const override { return {}; }
    std::vector<ProcessorKind> processors() const override { return {}; }

    void waitEntered() const
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return entered; });
    }

    void release() const
    {
        {
            std::lock_guard<std::mutex> lock(m);
            released = true;
        }
        cv.notify_all();
    }

  private:
    mutable std::mutex m;
    mutable std::condition_variable cv;
    mutable bool entered = false;
    mutable bool released = false;
};

void
testMultiHeadRejectsConcurrentCalls()
{
    auto kernel = std::make_shared<BlockingKernel>();
    MultiHeadAttention mha(kernel, 1);
    ThreadPool pool(2);
    Rng rng(0x99f6);
    const Matrix q = Matrix::randn(4, 8, rng);
    const RaggedBatch qr = oneImage(q);

    // First call parks inside the kernel on a pool worker...
    std::thread first([&] {
        RaggedBatch out;
        mha.forwardRaggedInto(pool, qr, qr, qr, out);
    });
    kernel->waitEntered();

    // ...so a second call on the same instance must be refused rather
    // than silently sharing the per-worker contexts.
    RaggedBatch out2;
    T_CHECK_THROWS(mha.forwardRaggedInto(pool, qr, qr, qr, out2),
                   std::logic_error);
    T_CHECK_THROWS(mha.forwardRaggedSequentialInto(qr, qr, qr, out2),
                   std::logic_error);
    Matrix mout;
    T_CHECK_THROWS(mha.forwardSequentialInto(q, q, q, mout),
                   std::logic_error);

    kernel->release();
    first.join();

    // Once the first call drains, the instance is usable again.
    RaggedBatch out3;
    mha.forwardRaggedInto(pool, qr, qr, qr, out3);
    T_CHECK(out3 == qr);
}

} // namespace

int
main()
{
    testThreadPoolRunsEverything();
    testThreadPoolPropagatesExceptions();
    testWorkerThreadFlag();
    testThreadPoolSingleWorkerInlinePath();
    testThreadCountOverridePrecedence();
    testCallGuardBasics();
    testIntraGemmRowBands();
    testMultiHeadMatchesSequentialAndLegacy();
    testMultiHeadDeterministicAcrossPoolSizes();
    testMultiHeadShapeValidation();
    testMultiHeadBatchMatchesPerImage();
    testMultiHeadRejectsConcurrentCalls();
    return vitality::testing::finish("test_runtime");
}
