/**
 * @file
 * Serving workload: one generator thread offers an open-loop schedule
 * to a ModelServer at fixed absolute rates, and a collector thread
 * checks every response against a same-seed twin encoder.
 *
 * The rate ladder is fixed here and never calibrated from the run, so
 * a parent commit and a change are offered identical load. A step's
 * schedule is a seeded Poisson process conditioned on its request
 * count (sorted uniform arrival times), so the offered rate is exact
 * and only the arrival pattern varies with the seed. Latency runs from
 * when a request was due, so a stalled generator shows up as latency
 * (and as gen.late_ms_p90) instead of hiding it.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "model/vit_encoder.h"
#include "replay.h"
#include "runtime/runtime_options.h"
#include "serve/model_server.h"
#include "workloads.h"

namespace perfbench {

using vitality::InferenceResponse;
using vitality::Matrix;
using vitality::RaggedBatch;

namespace {

struct ServeSpec
{
    vitality::VitConfig cfg = vitality::VitConfig::deitTiny();
    vitality::AttentionType kernel = vitality::AttentionType::Taylor;
    /** Request i carries tokenCycle[i % 4] token rows. */
    std::vector<size_t> tokenCycle = {197, 148, 98, 49};
    size_t imagesPerCount = 4;
    /**
     * Offered rates, requests/s; ladder[nominal] is the named rate. It
     * sits far below saturation on purpose: near it, the tail latency
     * on a shared host swung by more than the metric's bound between
     * runs.
     */
    std::vector<double> ladder = {2.5, 5, 20, 30, 40, 60, 90};
    size_t nominal = 1;
    /** p90 latency limit, ms, for goodput and the ladder. */
    double limitMs = 500.0;
    /**
     * Share of --seconds for the nominal step and for each further
     * step; at most four further steps run (the ladder stops at the
     * first rate that misses the limit).
     */
    double nominalShare = 0.75;
    double stepShare = 0.0625;
    size_t maxProbes = 4;
};

enum class Status { Ok, Rejected, Error, Mismatch };

struct Outcome
{
    size_t image = 0;
    Status status = Status::Ok;
    double lateMs = 0.0;    ///< Submit start minus due time.
    double latencyMs = 0.0; ///< Due time to the client holding the output.
    double endMs = 0.0;     ///< Completion, ms after the step's start.
    double queueMs = 0.0, computeMs = 0.0, overheadMs = 0.0;
};

struct StepResult
{
    double rate = 0.0;
    std::vector<Outcome> out;
    vitality::BatcherStats before, after;

    size_t okCount() const
    {
        return static_cast<size_t>(
            std::count_if(out.begin(), out.end(), [](const Outcome &o) {
                return o.status == Status::Ok;
            }));
    }
    std::vector<double> okLatencies() const
    {
        std::vector<double> v;
        for (const Outcome &o : out)
            if (o.status == Status::Ok)
                v.push_back(o.latencyMs);
        return v;
    }
    /** Step start (t = 0 of the schedule) to last completion, s. */
    double spanS() const
    {
        double end = 0.0;
        for (const Outcome &o : out)
            end = std::max(end, o.endMs);
        return end * 1e-3;
    }
};

/**
 * Waits on the step's futures in submission order and checks each
 * output bitwise against the twin's reference.
 */
class Collector
{
  public:
    Collector(const std::vector<Matrix> &refs, std::vector<Outcome> &out,
              Clock::time_point start, bool corrupt)
        : refs_(refs), out_(out), start_(start), corrupt_(corrupt),
          thread_([this] { loop(); })
    {
    }
    ~Collector() { finish(); }
    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Hand over request idx's future; due is its scheduled time. */
    void push(size_t idx, Clock::time_point due,
              std::future<InferenceResponse> fut)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(Item{idx, due, std::move(fut)});
        }
        cv_.notify_one();
    }

    /** No more requests: wait until every pushed one is collected. */
    void finish()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    struct Item
    {
        size_t idx;
        Clock::time_point due;
        std::future<InferenceResponse> fut;
    };

    void loop()
    {
        for (;;) {
            Item item;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
                if (queue_.empty())
                    return;
                item = std::move(queue_.front());
                queue_.pop_front();
            }
            Outcome &o = out_[item.idx];
            try {
                InferenceResponse r = item.fut.get();
                const Clock::time_point done = Clock::now();
                o.latencyMs = msBetween(item.due, done);
                o.endMs = msBetween(start_, done);
                o.queueMs = r.queueMs;
                o.computeMs = r.computeMs;
                // What neither the queue nor the forward explains: the
                // generator's lateness, the submit copy, the unpack and
                // the handoff to the waiting client.
                o.overheadMs = o.latencyMs - r.queueMs - r.computeMs;
                if (corrupt_ && item.idx == 0)
                    flipFirstBit(r.output);
                o.status = bitwiseEqual(r.output, refs_[o.image]) &&
                                   allFinite(r.output)
                               ? Status::Ok
                               : Status::Mismatch;
            } catch (...) {
                o.status = Status::Error;
            }
        }
    }

    const std::vector<Matrix> &refs_;
    std::vector<Outcome> &out_;
    const Clock::time_point start_;
    const bool corrupt_;
    std::mutex mutex_; ///< Guards queue_ and done_.
    std::condition_variable cv_;
    std::deque<Item> queue_;
    bool done_ = false;
    std::thread thread_;
};

size_t
imageFor(const ServeSpec &spec, size_t i)
{
    const size_t kinds = spec.tokenCycle.size();
    return (i % kinds) * spec.imagesPerCount + (i / kinds) % spec.imagesPerCount;
}

StepResult
runStep(vitality::ModelServer &server, const std::string &key,
        const ServeSpec &spec, double rate, double seconds, uint64_t seed,
        const std::vector<Matrix> &images, const std::vector<Matrix> &refs,
        bool corrupt)
{
    StepResult res;
    res.rate = rate;
    const size_t n =
        std::max<size_t>(1, static_cast<size_t>(std::lround(rate * seconds)));
    vitality::Rng rng(seed);
    std::vector<double> due(n);
    for (double &t : due)
        t = rng.uniform() * seconds * 1e3;
    std::sort(due.begin(), due.end());
    res.out.resize(n);
    for (size_t i = 0; i < n; ++i)
        res.out[i].image = imageFor(spec, i);

    res.before = server.stats(key);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    {
        Collector collector(refs, res.out, start, corrupt);
        for (size_t i = 0; i < n; ++i) {
            const Clock::time_point at =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(due[i]));
            std::this_thread::sleep_until(at);
            const Clock::time_point sent = Clock::now();
            res.out[i].lateMs = msBetween(at, sent);
            try {
                collector.push(i, at,
                               server.submit(key, images[res.out[i].image]));
            } catch (const vitality::ServeError &) {
                res.out[i].status = Status::Rejected;
            }
        }
        collector.finish();
    }
    res.after = server.stats(key);
    return res;
}

/**
 * The latency a step is judged by: its p90, or the median latency of
 * its last quarter of requests when that is higher — a growing backlog
 * shows there first.
 */
double
stepScoreMs(const StepResult &s)
{
    std::vector<double> lat = s.okLatencies();
    if (lat.empty())
        return HUGE_VAL;
    std::vector<double> tail(lat.end() - static_cast<long>(lat.size() / 4 + 1),
                             lat.end());
    std::sort(lat.begin(), lat.end());
    std::sort(tail.begin(), tail.end());
    return std::max(quantileSorted(lat, 0.9), quantileSorted(tail, 0.5));
}

/** Every request succeeded and the score is within the limit. */
bool
meetsLimit(const StepResult &s, double limitMs)
{
    return s.okCount() == s.out.size() && stepScoreMs(s) <= limitMs;
}

/**
 * The highest offered rate meeting the limit: the last ladder rate that
 * met it, moved toward the first rate that missed it by interpolating
 * log(score) linearly in the rate (near saturation the score grows
 * roughly exponentially). Continuous in the measurements, so a rung
 * that only just passes or fails moves the metric by part of a rung,
 * not a whole one. With no miss, the rate the last step completed.
 */
double
crossingRate(const StepResult &pass, const StepResult *fail, double limitMs)
{
    if (!fail) // every probed rate met the limit: report what it served
        return static_cast<double>(pass.okCount()) / pass.spanS();
    const double lo = stepScoreMs(pass);
    const double hi = stepScoreMs(*fail);
    if (!(hi > limitMs) || !std::isfinite(hi) || !(lo > 0.0))
        return pass.rate;
    return pass.rate + (fail->rate - pass.rate) * std::log(limitMs / lo) /
                           std::log(hi / lo);
}

} // namespace

void
runServe(const RunArgs &args, RunResult &res)
{
    ServeSpec spec;
    if (args.tiny)
        spec.cfg.layers = 2;
    const size_t poolThreads = std::max<size_t>(1, hostThreads() - 1);
    const size_t d = spec.cfg.dModel;

    vitality::Rng rng(args.seed);
    std::vector<Matrix> images;
    for (size_t tokens : spec.tokenCycle)
        for (size_t i = 0; i < spec.imagesPerCount; ++i)
            images.push_back(Matrix::randn(tokens, d, rng));

    // Reference: a direct forwardRagged of each image alone on an eager
    // same-seed twin. Served outputs must match these bitwise.
    auto twin = std::make_unique<vitality::VitEncoder>(
        spec.cfg, vitality::makeAttention(spec.kernel), kWeightSeed);
    std::vector<Matrix> refs(images.size());
    uint64_t refDigest = 1469598103934665603ULL;
    {
        vitality::ThreadPool pool(poolThreads);
        for (size_t i = 0; i < images.size(); ++i) {
            const Matrix *p = &images[i];
            const RaggedBatch out =
                twin->forwardRagged(RaggedBatch::fromMatrices(&p, 1), pool);
            out.unpackImage(0, refs[i]);
            if (!allFinite(refs[i]))
                res.correct = false;
            refDigest = digest(refs[i], refDigest);
        }
    }
    res.digest = hex64(refDigest);

    vitality::ModelConfig mc;
    mc.preset = spec.cfg;
    mc.kernel = spec.kernel;
    mc.seed = kWeightSeed; // default BatchPolicy, no pinned options

    // Setup: server + addModel (plan compile) + one warm-up burst of
    // every image, repeated; setup_s is the median.
    std::unique_ptr<vitality::ModelServer> server;
    std::string key;
    std::vector<double> setupS;
    for (int r = 0; r < kSetupRepeats; ++r) {
        server.reset();
        const auto t0 = Clock::now();
        server = std::make_unique<vitality::ModelServer>(poolThreads);
        key = server->addModel(mc);
        std::vector<std::future<InferenceResponse>> warm;
        for (const Matrix &img : images)
            warm.push_back(server->submit(key, img));
        for (size_t i = 0; i < warm.size(); ++i)
            if (!bitwiseEqual(warm[i].get().output, refs[i]))
                res.correct = false;
        setupS.push_back(msBetween(t0, Clock::now()) * 1e-3);
    }

    const double nominalS = args.seconds * spec.nominalShare;
    const double stepS = args.seconds * spec.stepShare;
    uint64_t stepSeed = args.seed * 1000003ULL;
    StepResult nominal = runStep(*server, key, spec, spec.ladder[spec.nominal],
                                 nominalS, ++stepSeed, images, refs,
                                 args.corrupt);

    res.configJson =
        ConfigJson()
            .str("workload", args.workload)
            .str("loop", "open, 1 generator thread, fixed-rate ladder")
            .str("model", spec.cfg.name)
            .num("layers", static_cast<double>(spec.cfg.layers))
            .str("kernel", vitality::kernelName(spec.kernel))
            .str("token_cycle", listText(spec.tokenCycle))
            .str("ladder_img_per_s", listText(spec.ladder))
            .num("nominal_img_per_s", spec.ladder[spec.nominal])
            .num("latency_limit_ms_p90", spec.limitMs)
            .num("nominal_s", nominalS)
            .num("step_s", stepS)
            .num("max_batch", static_cast<double>(mc.policy.maxBatch))
            .num("max_wait_us", static_cast<double>(mc.policy.maxWaitMicros))
            .num("queue_capacity",
                 static_cast<double>(mc.policy.queueCapacity))
            .str("runtime", vitality::RuntimeOptions::current().summary())
            .num("pool_threads", static_cast<double>(poolThreads))
            .num("nproc", static_cast<double>(hostThreads()))
            .str("cpu_flags", cpuFlags())
            .num("weight_seed", static_cast<double>(kWeightSeed))
            .num("input_seed", static_cast<double>(args.seed))
            .done();

    auto countFailures = [&res](const StepResult &s, bool nominalStep) {
        for (const Outcome &o : s.out) {
            ++res.attempted;
            // Errors and wrong outputs fail the run wherever they occur.
            // A refusal fails the nominal step; past it the ladder
            // probes overload on purpose, and refusing is load shedding.
            if (o.status == Status::Error || o.status == Status::Mismatch) {
                ++res.failed;
                res.correct = false;
            } else if (nominalStep && o.status == Status::Rejected) {
                ++res.failed;
            }
        }
    };
    countFailures(nominal, true);

    Report &rep = res.report;
    std::vector<double> nomLat = nominal.okLatencies();
    std::sort(nomLat.begin(), nomLat.end());
    rep.add("latency_ms_p90",
            single(quantileSorted(nomLat, 0.9), nomLat.size()),
            tailNameable(nomLat.size(), 0.9) ? "from due time, nominal rate"
                                             : "<10 samples beyond p90");
    if (args.trace) {
        std::vector<double> queue, compute, overhead, late;
        for (const Outcome &o : nominal.out) {
            late.push_back(o.lateMs);
            if (o.status != Status::Ok)
                continue;
            queue.push_back(o.queueMs);
            compute.push_back(o.computeMs);
            overhead.push_back(o.overheadMs);
        }
        std::sort(queue.begin(), queue.end());
        std::sort(late.begin(), late.end());
        const double q90 = quantileSorted(queue, 0.9);
        const double l90 = quantileSorted(late, 0.9);
        const char *tailNote = tailNameable(queue.size(), 0.9)
                                   ? ""
                                   : "<10 samples beyond p90";
        rep.add("serve.queue_ms_p50", summarize(queue));
        rep.add("serve.queue_ms_p90", single(q90, queue.size()), tailNote);
        rep.add("serve.compute_ms_p50", summarize(compute));
        rep.add("serve.overhead_ms_p50", summarize(overhead),
                "latency from due - queue - compute");
        const double batches = static_cast<double>(nominal.after.batches -
                                                   nominal.before.batches);
        rep.add("serve.batch_size_mean",
                single(batches > 0 ? static_cast<double>(
                                         nominal.after.served -
                                         nominal.before.served) /
                                         batches
                                   : 0.0,
                       static_cast<size_t>(batches)));
        rep.add("serve.rejected",
                single(static_cast<double>(
                    nominal.after.rejectedFull + nominal.after.rejectedStopping -
                    nominal.before.rejectedFull -
                    nominal.before.rejectedStopping)));
        rep.add("serve.errors", single(static_cast<double>(
                                    nominal.after.errors -
                                    nominal.before.errors)));
        rep.add("gen.late_ms_p90", single(l90, late.size()));

        // Stage breakdown on the twin, compiled as addModel compiles.
        vitality::PlanOptions po;
        po.maxBatch = mc.policy.maxBatch;
        std::vector<double> compileMs;
        for (int r = 0; r < kSetupRepeats; ++r) {
            const auto t0 = Clock::now();
            twin->compilePlan(po);
            compileMs.push_back(msBetween(t0, Clock::now()));
        }
        rep.add("model.compile_ms", summarize(compileMs));
        rep.add("model.packed_mb",
                single(static_cast<double>(twin->plan()->packedBytes()) /
                       (1024.0 * 1024.0)));
        std::vector<const Matrix *> mix;
        for (size_t k = 0; k < spec.tokenCycle.size(); ++k)
            mix.push_back(&images[k * spec.imagesPerCount]);
        const RaggedBatch mixed =
            RaggedBatch::fromMatrices(mix.data(), mix.size());
        Tracer tracer;
        const ReplayChecks checks = replayLoop(
            *twin, vitality::makeAttention(spec.kernel), mixed,
            server->pool(), args.seconds - nominalS, args.corrupt, tracer,
            rep);
        res.attempted += checks.calls;
        res.failed += checks.mismatches;
        if (checks.mismatches)
            res.correct = false;
        rep.add("sparse.mask_density", single(0.0),
                "no sparse branch in this kernel");
        writeTrace(tracer, args, res);
    } else {
        // Ladder: up from the nominal rate while steps meet the limit;
        // if the nominal rate misses it, down until one meets it.
        std::vector<StepResult> probes;
        probes.reserve(spec.ladder.size()); // keeps the pointers valid
        const StepResult *best = nullptr;
        const StepResult *miss = nullptr;
        if (meetsLimit(nominal, spec.limitMs)) {
            best = &nominal;
            for (size_t j = spec.nominal + 1;
                 j < spec.ladder.size() && probes.size() < spec.maxProbes;
                 ++j) {
                probes.push_back(runStep(*server, key, spec, spec.ladder[j],
                                         stepS, ++stepSeed, images, refs,
                                         false));
                countFailures(probes.back(), false);
                if (!meetsLimit(probes.back(), spec.limitMs)) {
                    miss = &probes.back();
                    break;
                }
                best = &probes.back();
            }
        } else {
            miss = &nominal;
            for (size_t j = spec.nominal; j-- > 0 && !best;) {
                probes.push_back(runStep(*server, key, spec, spec.ladder[j],
                                         stepS, ++stepSeed, images, refs,
                                         false));
                countFailures(probes.back(), false);
                if (meetsLimit(probes.back(), spec.limitMs))
                    best = &probes.back();
                else
                    miss = &probes.back();
            }
        }

        const double span = nominal.spanS();
        double okTokens = 0.0;
        size_t good = 0;
        for (const Outcome &o : nominal.out) {
            if (o.status != Status::Ok)
                continue;
            okTokens += static_cast<double>(images[o.image].rows());
            if (o.latencyMs <= spec.limitMs)
                ++good;
        }
        const size_t n = nominal.out.size();
        rep.add("img_per_s",
                single(static_cast<double>(nominal.okCount()) / span, n),
                "at the nominal rate");
        rep.add("tokens_per_s", single(okTokens / span, n),
                "at the nominal rate");
        rep.add("latency_ms_p50", summarize(nomLat),
                "per request, from its due time");
        rep.add("goodput_img_per_s",
                single(static_cast<double>(good) / span, n),
                "ok within the p90 limit, nominal rate");
        rep.add("max_rate_img_per_s",
                single(best ? crossingRate(*best, miss, spec.limitMs) : 0.0,
                       best ? best->out.size() : 0),
                best ? "met at " + jsonNumber(best->rate) + "/s" +
                           (miss ? ", missed at " + jsonNumber(miss->rate) +
                                       "/s"
                                 : "")
                     : "no ladder rate met the limit");
        rep.add("setup_s", summarize(setupS));
        rep.add("peak_rss_mb", single(peakRssMiB()));
    }
    rep.add("fail_frac",
            single(res.attempted ? static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted)
                                 : 0.0));
}

} // namespace perfbench
