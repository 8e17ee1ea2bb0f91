/**
 * @file
 * Serving-engine benchmark: open-loop synthetic load with MIXED
 * token-count requests through ModelServer/DynamicBatcher, reporting
 * the latency distribution (p50/p95/p99 of client-observed total
 * latency), sustained images/s, and served tokens/s per batching
 * policy and per token-keep policy (keep_ratio 1.0 vs 0.5, pinned on
 * the model via RuntimeOptions.tokenKeep).
 *
 * For each (kernel, policy) sweep the bench first calibrates the
 * single-image forward time of the model, then submits `requests`
 * single-image requests on an open-loop schedule — arrival times are
 * fixed in advance at 70% of the calibrated single-stream capacity,
 * independent of completions, the standard way to expose queueing
 * delay (a closed loop would self-throttle and hide it). Every future
 * is then drained and the exact percentiles are computed over ALL
 * response latencies (no reservoir here — the bench holds every
 * sample). Policies swept: no-batching (maxBatch 1, no wait window)
 * as the baseline, and the default window (maxBatch 8, 2 ms) — the
 * pair that shows what the batcher buys (or costs, on a single-core
 * host) at the same offered load.
 *
 * Rows are appended to a SHA-keyed trajectory (same format and
 * provenance as bench_attention, via bench_util.h) as kernel
 * "Serve(<name>)" with the policy knobs (max_batch, max_wait_us)
 * recorded per row; check_bench_regression.py keys percentile metrics
 * on those knobs so serve rows gate like kernel rows. Each row also
 * records register_ms — the addModel wall-clock, which since
 * registration-time plan compilation covers weight prepacking, eager
 * int8 quantization (when pinned), and the workspace pre-grow; it is
 * informational (paid once per model), not gated. Note the
 * ROADMAP caveat: the dev container is single-core, so latency
 * distributions are only meaningful in CI — locally this bench is a
 * correctness smoke (and is run exactly that way, with a small
 * request count and "-" for the trajectory, under TSan/ASan in CI).
 *
 * Usage: bench_serve [requests] [trajectory.json] [kernel-filter]
 *   requests         requests per sweep (default 200)
 *   trajectory.json  append the run entry there (stdout always gets
 *                    it; pass "-" to skip the file)
 *   kernel-filter    case-insensitive substring on the kernel name
 *                    ("taylor" sweeps only Serve(Taylor))
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attention/zoo.h"
#include "base/logging.h"
#include "base/rng.h"
#include "bench_util.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/thread_pool.h"
#include "serve/model_server.h"
#include "sparse/csr.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"

using namespace vitality;
using benchutil::appendToTrajectory;
using benchutil::gitSha;
using benchutil::isoUtc;
using benchutil::median;
using benchutil::nowMs;
using benchutil::quantile;

namespace {

struct ServeResult
{
    std::string model;
    std::string kernel; // "Serve(<name>)"
    size_t maxBatch, queueCapacity;
    uint64_t maxWaitMicros;
    size_t requests, served, rejected;
    uint64_t batches;
    size_t maxBatchObserved;
    double offeredPerSec; // open-loop arrival rate
    double p50Ms, p95Ms, p99Ms;
    double imagesPerSec;  // served / sweep wall
    double keepRatio;     // token-keep policy of the served model
    double tokensPerSec;  // served input token rows / s (batcher stat)
    uint64_t tokensServed; // input token rows across served requests
    double registerMs;    // addModel wall: registration-time plan compile
};

std::string
lowered(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** One sweep: one server, one model, one policy, open-loop load. */
ServeResult
runSweep(const VitConfig &preset, AttentionType kernel,
         const BatchPolicy &policy, float keep, size_t requests,
         const std::vector<Matrix> &inputs, double calibratedMsPerImg)
{
    ModelServer server;
    ModelConfig mc;
    mc.preset = preset;
    mc.kernel = kernel;
    mc.policy = policy;
    // keep < 1 pins a token-keep policy on the model (RuntimeOptions
    // ride-along); 1.0 leaves the options empty so the unpruned sweep
    // adds no dispatch-gate locking.
    if (keep < 1.0f)
        mc.options.tokenKeep = keep;
    // Registration now compiles the model's execution plan (weight
    // prepacking, eager int8 twins when pinned, workspace pre-grow),
    // so addModel wall-clock IS the compiled-registration cost; it is
    // recorded per row (register_ms) but not gated — it is paid once
    // per model, not per request.
    const double tReg = nowMs();
    const std::string key = server.addModel(mc);
    const double registerMs = nowMs() - tReg;

    // Warm the serving path (first forward sizes every buffer).
    server.submit(key, inputs[0]).get();

    // Open-loop schedule: arrivals at 70% of calibrated single-stream
    // capacity, fixed before the run starts.
    const double interMs = calibratedMsPerImg / 0.7;
    std::vector<std::future<InferenceResponse>> futures;
    futures.reserve(requests);
    size_t rejected = 0;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests; ++i) {
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            interMs * static_cast<double>(i)));
        std::this_thread::sleep_until(due);
        try {
            futures.push_back(
                server.submit(key, inputs[i % inputs.size()]));
        } catch (const ServeError &e) {
            if (e.code() != ServeErrorCode::QueueFull)
                throw;
            ++rejected; // open loop: shed and keep the schedule
        }
    }
    std::vector<double> totals;
    totals.reserve(futures.size());
    for (std::future<InferenceResponse> &f : futures)
        totals.push_back(f.get().totalMs);
    const double wallMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    const BatcherStats stats = server.stats(key);
    server.shutdown();

    ServeResult r;
    r.model = preset.name;
    r.kernel = "Serve(" + kernelName(kernel) + ")";
    r.maxBatch = policy.maxBatch;
    r.maxWaitMicros = policy.maxWaitMicros;
    r.queueCapacity = policy.queueCapacity;
    r.requests = requests;
    r.served = totals.size();
    r.rejected = rejected;
    r.batches = stats.batches;
    r.maxBatchObserved = stats.maxBatchObserved;
    r.offeredPerSec = 1000.0 / interMs;
    r.p50Ms = quantile(totals, 0.50);
    r.p95Ms = quantile(totals, 0.95);
    r.p99Ms = quantile(totals, 0.99);
    r.imagesPerSec = wallMs > 0.0
                         ? static_cast<double>(totals.size()) /
                               (wallMs * 1e-3)
                         : 0.0;
    r.keepRatio = static_cast<double>(keep);
    r.tokensPerSec = stats.tokensPerSec;
    r.tokensServed = stats.tokensServed;
    r.registerMs = registerMs;
    return r;
}

std::string
entryJson(const std::vector<ServeResult> &results, size_t pool_threads)
{
    const std::time_t now = std::time(nullptr);
    std::ostringstream os;
    os << "{\n  \"bench\": \"serve\",\n";
    os << "  \"sha\": \"" << gitSha() << "\",\n";
    os << "  \"timestamp\": \"" << isoUtc(now) << "\",\n";
    os << "  \"unix_time\": " << static_cast<long long>(now) << ",\n";
    os << "  \"pool_threads\": " << pool_threads << ",\n";
    os << "  \"gemm_threads\": " << Gemm::parallelWidth() << ",\n";
    os << "  \"epilogue\": \""
       << Gemm::epilogueModeName(Gemm::epilogueMode()) << "\",\n";
    os << "  \"sparse_mode\": \"" << sparseExecName(sparseExecMode())
       << "\",\n";
    os << "  \"quant_mode\": \""
       << Gemm::quantModeName(Gemm::quantMode()) << "\",\n";
    os << "  \"gemm_backend\": \"" << Gemm::activeName() << "\",\n";
    os << "  \"gemm_tile\": \"" << Gemm::tileName() << "\",\n";
    os << "  \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const ServeResult &r = results[i];
        os << "    {\"model\": \"" << r.model << "\", \"kernel\": \""
           << r.kernel << "\", \"batch\": 1"
           << ", \"max_batch\": " << r.maxBatch
           << ", \"max_wait_us\": " << r.maxWaitMicros
           << ", \"queue_capacity\": " << r.queueCapacity
           << ", \"requests\": " << r.requests
           << ", \"served\": " << r.served
           << ", \"rejected\": " << r.rejected
           << ", \"batches\": " << r.batches
           << ", \"max_batch_observed\": " << r.maxBatchObserved
           << ", \"offered_img_per_s\": " << r.offeredPerSec
           << ", \"p50_ms\": " << r.p50Ms
           << ", \"p95_ms\": " << r.p95Ms
           << ", \"p99_ms\": " << r.p99Ms
           << ", \"images_per_s\": " << r.imagesPerSec
           << ", \"keep_ratio\": " << r.keepRatio
           << ", \"tokens_served\": " << r.tokensServed
           << ", \"tokens_per_s\": " << r.tokensPerSec
           << ", \"register_ms\": " << r.registerMs << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t requests =
        argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 200;
    if (requests == 0)
        fatal("bench_serve: requests must be positive");
    const std::string filter = argc > 3 ? lowered(argv[3]) : "";

    const VitConfig preset = VitConfig::deitTiny();
    std::vector<AttentionType> kernels = {AttentionType::Taylor,
                                          AttentionType::Softmax};
    if (!filter.empty()) {
        std::vector<AttentionType> kept;
        for (AttentionType k : kernels)
            if (lowered(kernelName(k)).find(filter) != std::string::npos)
                kept.push_back(k);
        if (kept.empty())
            fatal("bench_serve: kernel filter '%s' matches nothing "
                  "(have: Taylor, Softmax)",
                  argv[3]);
        kernels = std::move(kept);
    }

    // The no-batching baseline vs the default window: same offered
    // load, so the delta is exactly what the batcher buys/costs. A
    // deep queue keeps the open-loop schedule rejection-free at 70%
    // load on multi-core CI; rejections (if any) are recorded.
    std::vector<BatchPolicy> policies(2);
    policies[0].maxBatch = 1;
    policies[0].maxWaitMicros = 0;
    policies[0].queueCapacity = 256;
    policies[1].maxBatch = 8;
    policies[1].maxWaitMicros = 2000;
    policies[1].queueCapacity = 256;

    // Shared request pool: distinct inputs cycled round-robin with
    // MIXED token counts (full frame, 3/4, 1/2, 1/4 crops) — the
    // ragged dispatch packs them into one forward, and tokens/s is
    // the throughput row that stays comparable across the mix.
    Rng rng(0x5e47e ^ preset.dModel);
    const size_t lens[] = {preset.tokens, (3 * preset.tokens) / 4,
                           preset.tokens / 2, preset.tokens / 4};
    std::vector<Matrix> inputs;
    for (size_t i = 0; i < 8; ++i)
        inputs.push_back(Matrix::randn(std::max<size_t>(1, lens[i % 4]),
                                       preset.dModel, rng, 0.0f, 1.0f));

    std::vector<ServeResult> results;
    size_t poolThreads = 0;
    for (AttentionType kernel : kernels) {
        // Calibrate the single-stream service time on a direct
        // encoder (same seed/config as the served model), so the
        // offered load tracks the host instead of a hardcoded rate.
        double calibrated;
        {
            ThreadPool pool;
            poolThreads = pool.size();
            VitEncoder encoder(preset, makeAttention(kernel));
            Matrix out;
            encoder.forwardInto(inputs[0], pool, out); // warmup
            std::vector<double> laps(3);
            for (double &lap : laps) {
                const double t0 = nowMs();
                encoder.forwardInto(inputs[0], pool, out);
                lap = nowMs() - t0;
            }
            calibrated = median(laps);
        }
        inform("%s %s: calibrated %.3f ms/img, offering %.1f img/s",
               preset.name.c_str(), kernelName(kernel).c_str(),
               calibrated, 700.0 / calibrated);

        // The keep-ratio axis: 1.0 (no pruning) vs the paper-style 0.5
        // policy pinned per model, under each batching policy. Rows
        // carry keep_ratio, so the regression gate never compares
        // across policies.
        for (const float keep : {1.0f, 0.5f}) {
            for (const BatchPolicy &policy : policies) {
                const ServeResult r =
                    runSweep(preset, kernel, policy, keep, requests,
                             inputs, calibrated);
                inform("%-10s %-16s keep=%.2f max_batch=%zu wait=%lluus"
                       "  p50=%.2f p95=%.2f p99=%.2f ms  %.1f img/s  "
                       "%.1f tok/s  register=%.2fms  (%zu served, "
                       "%zu rejected, %llu batches, largest %zu)",
                       r.model.c_str(), r.kernel.c_str(), r.keepRatio,
                       r.maxBatch,
                       static_cast<unsigned long long>(r.maxWaitMicros),
                       r.p50Ms, r.p95Ms, r.p99Ms, r.imagesPerSec,
                       r.tokensPerSec, r.registerMs, r.served,
                       r.rejected,
                       static_cast<unsigned long long>(r.batches),
                       r.maxBatchObserved);
                results.push_back(r);
            }
        }
    }

    const std::string entry = entryJson(results, poolThreads);
    std::printf("%s\n", entry.c_str());
    if (argc > 2 && std::string(argv[2]) != "-") {
        appendToTrajectory(argv[2], entry);
        inform("appended run to %s", argv[2]);
    }
    return 0;
}
