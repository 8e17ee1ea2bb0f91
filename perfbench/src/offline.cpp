/**
 * @file
 * Offline workloads: one closed-loop caller issuing forwardRaggedInto
 * calls of a fixed batch on a compiled uniform plan, over a pool of
 * hostThreads() workers.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attention/unified_attention.h"
#include "attention/zoo.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "model/vit_encoder.h"
#include "replay.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using vitality::AttentionType;
using vitality::Matrix;
using vitality::RaggedBatch;
using vitality::VitConfig;
using vitality::VitEncoder;

namespace {

struct OfflineSpec
{
    VitConfig cfg;
    AttentionType kernel;
    std::optional<float> threshold;
    size_t images;    ///< Images per forwardRaggedInto call.
    size_t tokens;    ///< Token rows per image.
    /**
     * Per-image latency limit (p90) for goodput and max rate, about 3x
     * the measured median call so that a host stall does not read as a
     * cliff.
     */
    double limitMs;
};

OfflineSpec
offlineSpec(const std::string &name, bool tiny)
{
    OfflineSpec s;
    if (name == "offline-small-b8") {
        s.cfg = VitConfig::deitSmall();
        if (tiny)
            s.cfg.layers = 2;
        s.cfg.tokenKeep.assign(s.cfg.layers, 1.0f);
        s.kernel = AttentionType::Taylor;
        s.images = 8;
        s.tokens = 197;
        s.limitMs = 3000.0;
    } else if (name == "hires-tiny-unified-prune") {
        // DeiT-Tiny geometry at 384x384: 24x24 patches + CLS.
        s.cfg = VitConfig::deitTiny();
        s.cfg.name = "DeiT-Tiny@384";
        s.cfg.tokens = 577;
        if (tiny)
            s.cfg.layers = 2;
        s.cfg = s.cfg.withTokenKeep(0.5f);
        s.kernel = AttentionType::Unified;
        s.threshold = 0.5f;
        s.images = 2;
        s.tokens = 577;
        s.limitMs = 750.0;
    } else {
        throw std::invalid_argument("not an offline workload: " + name);
    }
    return s;
}

vitality::AttentionKernelPtr
makeKernel(const OfflineSpec &s)
{
    return s.threshold ? vitality::makeAttention(s.kernel, *s.threshold)
                       : vitality::makeAttention(s.kernel);
}

vitality::PlanOptions
planOptions(const OfflineSpec &s)
{
    vitality::PlanOptions po;
    po.layerKernels = std::string(); // engaged-empty: uniform
    po.tokenKeep = 1.0f;             // unused: cfg.tokenKeep is explicit
    po.maxTokens = s.tokens;
    po.maxBatch = s.images;
    po.packInt8 = false;
    return po;
}

/**
 * Mean sparse-branch density over every (layer, head) of image 0, from
 * UnifiedAttention::forwardDetailed on the replayed Q/K/V.
 */
double
unifiedMaskDensity(const VitEncoder &enc, const OfflineSpec &spec,
                   const RaggedBatch &x, vitality::ThreadPool &pool)
{
    const auto kernel = std::dynamic_pointer_cast<vitality::UnifiedAttention>(
        makeKernel(spec));
    const size_t heads = enc.config().heads;
    const size_t dh = enc.config().headDim();
    double sum = 0.0;
    size_t count = 0;
    auto head = [dh](const RaggedBatch &b, size_t h) {
        const size_t n = b.rowsOf(0);
        Matrix m(n, dh);
        for (size_t r = 0; r < n; ++r)
            for (size_t c = 0; c < dh; ++c)
                m(r, c) = b.rowPtr(0, r)[h * dh + c];
        return m;
    };
    StageReplay replay(enc, makeKernel(spec));
    RaggedBatch out;
    replay.run(x, pool, out, nullptr, 0,
               [&](size_t, const RaggedBatch &q, const RaggedBatch &k,
                   const RaggedBatch &v) {
                   for (size_t h = 0; h < heads; ++h) {
                       sum += kernel
                                  ->forwardDetailed(head(q, h), head(k, h),
                                                    head(v, h))
                                  .sparseBranchDensity;
                       ++count;
                   }
               });
    return count ? sum / static_cast<double>(count) : 0.0;
}

/**
 * Record latency_ms_p90 over per-image samples — every image of a call
 * completes when the call returns, so each call contributes `images`
 * samples of its duration — and return it.
 */
double
addLatencyP90(Report &rep, std::vector<double> perImageMs)
{
    std::sort(perImageMs.begin(), perImageMs.end());
    const double p90 = quantileSorted(perImageMs, 0.9);
    rep.add("latency_ms_p90", single(p90, perImageMs.size()),
            tailNameable(perImageMs.size(), 0.9)
                ? "per image"
                : "per image; <10 samples beyond p90");
    return p90;
}

} // namespace

void
runOffline(const RunArgs &args, RunResult &res)
{
    const OfflineSpec spec = offlineSpec(args.workload, args.tiny);
    const size_t d = spec.cfg.dModel;
    // One hardware thread is left to the caller and the host: a pool
    // as wide as the machine makes every parallel stage wait on
    // whichever worker the host preempted, which measured far noisier.
    const size_t threads = std::max<size_t>(1, hostThreads() - 1);
    vitality::ThreadPool pool(threads);

    // Two input batches, alternated call by call.
    vitality::Rng rng(args.seed);
    RaggedBatch inputs[2];
    for (RaggedBatch &in : inputs) {
        std::vector<Matrix> imgs;
        std::vector<const Matrix *> ptrs;
        for (size_t i = 0; i < spec.images; ++i)
            imgs.push_back(Matrix::randn(spec.tokens, d, rng));
        for (const Matrix &m : imgs)
            ptrs.push_back(&m);
        in = RaggedBatch::fromMatrices(ptrs.data(), ptrs.size());
    }

    // Reference outputs from an eager (unplanned) same-seed twin: the
    // planned encoder must reproduce them bitwise, and they must be
    // finite.
    uint64_t ref[2];
    {
        VitEncoder twin(spec.cfg, makeKernel(spec), kWeightSeed);
        for (int b = 0; b < 2; ++b) {
            const RaggedBatch out = twin.forwardRagged(inputs[b], pool);
            if (!allFinite(out.buffer()))
                res.correct = false;
            ref[b] = digest(out);
        }
    }
    res.digest = hex64(ref[0]) + hex64(ref[1]);

    // Setup: construction + compilePlan + the first forward, so any
    // first-call growth lands in setup_s rather than in a timed call;
    // repeated, and setup_s is the median.
    std::unique_ptr<VitEncoder> enc;
    std::vector<double> setupS, compileMs;
    RaggedBatch out;
    for (int r = 0; r < kSetupRepeats; ++r) {
        enc.reset();
        const auto t0 = Clock::now();
        enc = std::make_unique<VitEncoder>(spec.cfg, makeKernel(spec),
                                           kWeightSeed);
        const auto t1 = Clock::now();
        enc->compilePlan(planOptions(spec));
        const auto t2 = Clock::now();
        enc->forwardRaggedInto(inputs[0], pool, out);
        const auto t3 = Clock::now();
        if (digest(out) != ref[0])
            res.correct = false;
        setupS.push_back(msBetween(t0, t3) * 1e-3);
        compileMs.push_back(msBetween(t1, t2));
    }
    enc->forwardRaggedInto(inputs[1], pool, out);
    if (digest(out) != ref[1])
        res.correct = false;

    res.configJson =
        ConfigJson()
            .str("workload", args.workload)
            .str("loop", "closed, 1 caller")
            .str("model", spec.cfg.name)
            .num("layers", static_cast<double>(spec.cfg.layers))
            .num("heads", static_cast<double>(spec.cfg.heads))
            .num("d_model", static_cast<double>(d))
            .str("kernel", vitality::kernelName(spec.kernel))
            .num("threshold", spec.threshold ? *spec.threshold : -1.0)
            .num("images_per_call", static_cast<double>(spec.images))
            .num("tokens_per_image", static_cast<double>(spec.tokens))
            .str("token_keep", listText(spec.cfg.tokenKeep))
            .str("plan", enc->plan()->summary())
            .str("runtime", vitality::RuntimeOptions::current().summary())
            .num("pool_threads", static_cast<double>(threads))
            .num("nproc", static_cast<double>(hostThreads()))
            .str("cpu_flags", cpuFlags())
            .num("latency_limit_ms", spec.limitMs)
            .num("weight_seed", static_cast<double>(kWeightSeed))
            .num("input_seed", static_cast<double>(args.seed))
            .done();

    Report &rep = res.report;
    if (args.trace) {
        Tracer tracer;
        const ReplayChecks checks =
            replayLoop(*enc, makeKernel(spec), inputs[0], pool, args.seconds,
                       args.corrupt, tracer, rep);
        res.attempted = checks.calls;
        res.failed = checks.mismatches;
        std::vector<double> perImageMs;
        for (double ms : checks.forwardMs)
            perImageMs.insert(perImageMs.end(), spec.images, ms);
        addLatencyP90(rep, perImageMs);
        if (spec.kernel == AttentionType::Unified)
            rep.add("sparse.mask_density",
                    single(unifiedMaskDensity(*enc, spec, inputs[0], pool)));
        else
            rep.add("sparse.mask_density", single(0.0),
                    "no sparse branch in this kernel");
        rep.add("model.compile_ms", summarize(compileMs));
        rep.add("model.packed_mb",
                single(static_cast<double>(enc->plan()->packedBytes()) /
                       (1024.0 * 1024.0)));
        for (const char *name :
             {"serve.queue_ms_p50", "serve.queue_ms_p90",
              "serve.compute_ms_p50", "serve.overhead_ms_p50",
              "serve.batch_size_mean", "serve.rejected", "serve.errors",
              "gen.late_ms_p90"})
            rep.notApplicable(name);
        writeTrace(tracer, args, res);
    } else {
        std::vector<double> callMs, imgRate, tokRate, perImageMs;
        uint64_t goodImages = 0, okImages = 0;
        const double rows = static_cast<double>(spec.images * spec.tokens);
        const auto deadline =
            Clock::now() + std::chrono::duration<double>(args.seconds);
        for (size_t i = 0; callMs.size() < 3 || Clock::now() < deadline;
             ++i) {
            const RaggedBatch &in = inputs[i % 2];
            const auto t0 = Clock::now();
            enc->forwardRaggedInto(in, pool, out);
            const auto t1 = Clock::now();
            const double ms = msBetween(t0, t1);
            if (args.corrupt && i == 0)
                flipFirstBit(out.buffer());
            const bool ok = digest(out) == ref[i % 2];
            res.attempted += spec.images;
            if (!ok)
                res.failed += spec.images;
            else
                okImages += spec.images;
            if (ok && ms <= spec.limitMs)
                goodImages += spec.images;
            callMs.push_back(ms);
            imgRate.push_back(static_cast<double>(spec.images) / ms * 1e3);
            tokRate.push_back(rows / ms * 1e3);
            perImageMs.insert(perImageMs.end(), spec.images, ms);
        }
        const Summary img = summarize(imgRate);
        rep.add("img_per_s", img);
        rep.add("tokens_per_s", summarize(tokRate));
        rep.add("latency_ms_p50", summarize(callMs), "per call");
        const double p90 = addLatencyP90(rep, perImageMs);
        // Rates derived from the median call rate, so they are as
        // robust to a stalled call as img_per_s itself.
        const double attempted = static_cast<double>(res.attempted);
        rep.add("goodput_img_per_s",
                single(img.median * static_cast<double>(goodImages) /
                           attempted,
                       callMs.size()),
                "median rate x share of images correct within the limit");
        // A closed loop offers exactly what it completes: the highest
        // rate meeting the limit is the completed rate, if the p90 meets
        // the limit at all.
        rep.add("max_rate_img_per_s",
                single(p90 <= spec.limitMs
                           ? img.median * static_cast<double>(okImages) /
                                 attempted
                           : 0.0,
                       callMs.size()),
                "closed loop: completed rate if p90 <= limit");
        rep.add("setup_s", summarize(setupS));
        rep.add("peak_rss_mb", single(peakRssMiB()));
    }
    rep.add("fail_frac",
            single(res.attempted ? static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted)
                                 : 0.0));
    if (res.failed)
        res.correct = false;
}

} // namespace perfbench
