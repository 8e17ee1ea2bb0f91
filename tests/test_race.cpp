/**
 * @file
 * Concurrency stress tests, written for the ThreadSanitizer CI leg
 * (they also run in the plain suites): concurrent forwardRagged on
 * distinct encoders sharing one pool, ThreadPool construction and
 * destruction racing in-flight GEMMs (both the uninstall path and the
 * runner handoff to a surviving pool), and CallGuard contention on a
 * shared MultiHeadAttention / VitEncoder instance.
 *
 * Iteration counts are deliberately modest: CI runs this under TSan
 * (~10x slowdown) on small runners, and every scenario reaches its
 * racy window within a few dozen iterations.
 */

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/vit_encoder.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/ragged_batch.h"

#include "reference_encoder.h"
#include "testing.h"

using namespace vitality;
using testing::oneImage;

namespace {

VitConfig
raceConfig()
{
    VitConfig cfg;
    cfg.name = "race-tiny";
    cfg.layers = 2;
    cfg.heads = 2;
    cfg.dModel = 32;
    cfg.tokens = 16;
    cfg.mlpHidden = 64;
    return cfg;
}

/**
 * Distinct encoder instances are documented as safe to run
 * concurrently (only same-instance calls are guarded): several caller
 * threads each drive their own encoder through one shared pool, and
 * every result must stay bitwise-identical to that encoder's
 * single-threaded reference.
 */
void
testConcurrentEncodersShareOnePool()
{
    const VitConfig cfg = raceConfig();
    const size_t callers = 3;
    ThreadPool pool(3);

    std::vector<std::unique_ptr<VitEncoder>> encoders;
    std::vector<RaggedBatch> inputs, refs;
    for (size_t c = 0; c < callers; ++c) {
        encoders.push_back(std::make_unique<VitEncoder>(
            cfg, makeAttention(AttentionType::Taylor), 0x5eed + c));
        Rng rng(0xba7c + c);
        const Matrix a =
            Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 0.5f);
        const Matrix b =
            Matrix::randn(cfg.tokens - 5, cfg.dModel, rng, 0.0f, 0.5f);
        const Matrix *ptrs[] = {&a, &b};
        inputs.push_back(RaggedBatch::fromMatrices(ptrs, 2));
        refs.push_back(encoders[c]->forwardRagged(inputs[c], pool));
    }

    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            for (int iter = 0; iter < 4; ++iter) {
                const RaggedBatch out =
                    encoders[c]->forwardRagged(inputs[c], pool);
                T_CHECK(out == refs[c]);
            }
        });
    }
    for (auto &t : threads)
        t.join();
}

/**
 * ThreadPool destruction racing in-flight multiplies: one thread loops
 * Gemm::multiply (large enough to clear the band fan-out heuristic)
 * while another constructs and destroys pools. A multiply may snapshot
 * a runner whose pool dies mid-call; ~ThreadPool must drain it (or
 * send it down the sequential fallback), and row banding is bitwise-
 * identical at every width, so every result must equal the sequential
 * reference.
 */
void
testPoolLifecycleRacesInFlightMultiplies()
{
    Rng rng(0xdead);
    const Matrix a = Matrix::randn(197, 128, rng, 0.0f, 0.5f);
    const Matrix b = Matrix::randn(128, 256, rng, 0.0f, 0.5f);
    Matrix ref;
    Gemm::multiply(ref, a, b); // no pool alive: sequential

    std::atomic<bool> stop{false};
    std::thread churn([&] {
        for (int i = 0; i < 30; ++i) {
            ThreadPool pool(2);
            // Run one multiply through the pool so destruction always
            // has a freshly-used runner to retire.
            Matrix c;
            Gemm::multiply(c, a, b);
            T_CHECK(c == ref);
        }
        stop.store(true);
    });

    Matrix c;
    do {
        Gemm::multiply(c, a, b);
        T_CHECK(c == ref);
    } while (!stop.load());
    churn.join();

    T_CHECK(Gemm::parallelRunner() == nullptr);
    Matrix after;
    Gemm::multiply(after, a, b);
    T_CHECK(after == ref);
}

/**
 * The runner-handoff path in ~ThreadPool: with an outer pool alive,
 * destroying an inner pool hands the GEMM-runner role back instead of
 * uninstalling it — while a second thread keeps multiplies in flight
 * across every handoff window.
 */
void
testRunnerHandoffUnderLoad()
{
    Rng rng(0xbeef);
    const Matrix a = Matrix::randn(197, 128, rng, 0.0f, 0.5f);
    const Matrix b = Matrix::randn(128, 256, rng, 0.0f, 0.5f);
    Matrix ref;
    Gemm::multiply(ref, a, b);

    ThreadPool outer(2);
    const auto outerRunner = Gemm::parallelRunner();
    T_CHECK(outerRunner != nullptr);

    std::atomic<bool> stop{false};
    std::thread churn([&] {
        for (int i = 0; i < 30; ++i)
            ThreadPool inner(3);
        stop.store(true);
    });

    Matrix c;
    do {
        Gemm::multiply(c, a, b);
        T_CHECK(c == ref);
    } while (!stop.load());
    churn.join();

    // Every inner pool handed the role back to the survivor.
    T_CHECK(Gemm::parallelRunner() == outerRunner);
    Matrix after;
    Gemm::multiply(after, a, b);
    T_CHECK(after == ref);
}

/**
 * CallGuard contention: several threads hammer one MultiHeadAttention
 * instance. Every call either completes with the exact reference
 * output or is refused with std::logic_error — nothing is lost, and
 * the instance stays healthy afterwards. A same-instance VitEncoder
 * race is probed the same way at the end.
 */
void
testCallGuardContention()
{
    const size_t n = 32, heads = 2, dm = 16;
    Rng rng(0xca11);
    const RaggedBatch q = oneImage(Matrix::randn(n, dm, rng, 0.0f, 0.5f));
    const RaggedBatch k = oneImage(Matrix::randn(n, dm, rng, 0.0f, 0.5f));
    const RaggedBatch v = oneImage(Matrix::randn(n, dm, rng));

    ThreadPool pool(2);
    MultiHeadAttention mha(makeAttention(AttentionType::Softmax), heads);
    const RaggedBatch ref = mha.forwardRagged(pool, q, k, v);

    const int threads = 4, iters = 8;
    std::atomic<int> completed{0}, refused{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < threads; ++t) {
        callers.emplace_back([&] {
            for (int i = 0; i < iters; ++i) {
                try {
                    RaggedBatch out;
                    mha.forwardRaggedInto(pool, q, k, v, out);
                    T_CHECK(out == ref);
                    completed.fetch_add(1);
                } catch (const std::logic_error &) {
                    refused.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : callers)
        t.join();
    T_CHECK(completed.load() + refused.load() == threads * iters);
    T_CHECK(completed.load() >= 1);

    RaggedBatch out;
    mha.forwardRaggedInto(pool, q, k, v, out);
    T_CHECK(out == ref);

    // Same contract on the encoder's guard, which the single-image
    // view and the ragged entry point share: half the callers use each.
    const VitConfig cfg = raceConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    Rng erng(0xca12);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, erng, 0.0f, 0.5f);
    const RaggedBatch xr = oneImage(x);
    const Matrix eref = enc.forward(x, pool);

    std::atomic<int> eCompleted{0}, eRefused{0};
    std::vector<std::thread> ecallers;
    for (int t = 0; t < threads; ++t) {
        ecallers.emplace_back([&, t] {
            for (int i = 0; i < iters; ++i) {
                try {
                    Matrix eout;
                    if (t % 2) {
                        RaggedBatch rout;
                        enc.forwardRaggedInto(xr, pool, rout);
                        rout.unpackImage(0, eout);
                    } else {
                        enc.forwardInto(x, pool, eout);
                    }
                    T_CHECK(eout == eref);
                    eCompleted.fetch_add(1);
                } catch (const std::logic_error &) {
                    eRefused.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : ecallers)
        t.join();
    T_CHECK(eCompleted.load() + eRefused.load() == threads * iters);
    T_CHECK(eCompleted.load() >= 1);

    Matrix eout;
    enc.forwardInto(x, pool, eout);
    T_CHECK(eout == eref);
}

} // namespace

int
main()
{
    testConcurrentEncodersShareOnePool();
    testPoolLifecycleRacesInFlightMultiplies();
    testRunnerHandoffUnderLoad();
    testCallGuardContention();
    return vitality::testing::finish("test_race");
}
