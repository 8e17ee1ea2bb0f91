#include "serve/dynamic_batcher.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "base/check.h"
#include "base/logging.h"

namespace vitality {

namespace {

double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

void
BatchPolicy::validate() const
{
    if (maxBatch == 0)
        throw std::invalid_argument(
            "BatchPolicy: maxBatch must be positive");
    if (queueCapacity == 0)
        throw std::invalid_argument(
            "BatchPolicy: queueCapacity must be positive");
    if (queueCapacity < maxBatch)
        throw std::invalid_argument(
            strfmt("BatchPolicy: queueCapacity %zu < maxBatch %zu — a "
                   "full batch could never accumulate",
                   queueCapacity, maxBatch));
}

DynamicBatcher::DynamicBatcher(VitEncoder &encoder, ThreadPool &pool,
                               BatchPolicy policy, RuntimeOptions options,
                               std::mutex *dispatchGate)
    : encoder_(encoder), pool_(pool), policy_(policy),
      options_(std::move(options)), dispatchGate_(dispatchGate),
      reservoir_(512, 0x5eedULL ^ encoder.config().dModel)
{
    policy_.validate();
    if (!options_.empty() && !dispatchGate_)
        throw std::invalid_argument(
            "DynamicBatcher: pinned RuntimeOptions need a dispatch "
            "gate (the knobs are process-global; see runtime_options.h)");
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

DynamicBatcher::~DynamicBatcher()
{
    shutdown();
}

std::future<InferenceResponse>
DynamicBatcher::submit(const Matrix &tokens)
{
    const VitConfig &cfg = encoder_.config();
    // Mixed token counts are welcome (the dispatcher packs a ragged
    // batch); what stays fixed is the embedding width and the preset's
    // token budget. Rejecting here gives the caller a typed error at
    // the ingress instead of a downstream check abort mid-batch.
    if (tokens.cols() != cfg.dModel) {
        throw ServeError(
            ServeErrorCode::BadRequest,
            strfmt("submit: input %s, model %s expects %zu columns",
                   tokens.shapeStr().c_str(), cfg.name.c_str(),
                   cfg.dModel));
    }
    if (tokens.rows() == 0 || tokens.rows() > cfg.tokens) {
        throw ServeError(
            ServeErrorCode::BadRequest,
            strfmt("submit: input %s, model %s accepts 1..%zu token "
                   "rows",
                   tokens.shapeStr().c_str(), cfg.name.c_str(),
                   cfg.tokens));
    }
    // One NaN/Inf request would otherwise poison its whole batch (a
    // checked build aborts on the encoder's finite-input contract; a
    // release build serves NaN outputs), so it fails alone, here.
    if (!check::allFinite(tokens.data(), tokens.size())) {
        throw ServeError(ServeErrorCode::BadRequest,
                         strfmt("submit: input %s has non-finite values",
                                tokens.shapeStr().c_str()));
    }

    std::future<InferenceResponse> future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            rejectedStopping_.fetch_add(1, std::memory_order_relaxed);
            throw ServeError(ServeErrorCode::Stopping,
                             "submit: batcher is shutting down");
        }
        if (queue_.size() >= policy_.queueCapacity) {
            rejectedFull_.fetch_add(1, std::memory_order_relaxed);
            throw ServeError(
                ServeErrorCode::QueueFull,
                strfmt("submit: queue at capacity (%zu waiting)",
                       queue_.size()));
        }
        queue_.emplace_back();
        Pending &p = queue_.back();
        p.id = nextId_++;
        p.tokens.copyFrom(tokens);
        p.enqueued = std::chrono::steady_clock::now();
        future = p.promise.get_future();
    }
    submitted_.fetch_add(1, std::memory_order_relaxed);
    tokensSubmitted_.fetch_add(tokens.rows(), std::memory_order_relaxed);
    cv_.notify_one();
    return future;
}

void
DynamicBatcher::dispatchLoop()
{
    std::vector<Pending> batch;
    batch.reserve(policy_.maxBatch);
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, fully drained
            // The latency bound is owed to the OLDEST queued request:
            // it dispatches no later than enqueued + maxWaitMicros,
            // however few riders accumulate. Stopping waives the
            // window so shutdown drains at compute speed.
            const auto deadline =
                queue_.front().enqueued +
                std::chrono::microseconds(policy_.maxWaitMicros);
            while (queue_.size() < policy_.maxBatch && !stopping_) {
                if (cv_.wait_until(lock, deadline) ==
                    std::cv_status::timeout)
                    break;
            }
            const size_t take =
                std::min(queue_.size(), policy_.maxBatch);
            batch.clear();
            for (size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        runBatch(batch);
        // More work may have queued while the forward ran; loop
        // re-checks under the lock. On stopping the loop only exits
        // once the queue is empty, so every accepted request is
        // dispatched before join.
    }
}

void
DynamicBatcher::runBatch(std::vector<Pending> &batch)
{
    const auto dispatchStart = std::chrono::steady_clock::now();
    try {
        inputPtrs_.clear();
        uint64_t batchTokens = 0;
        for (const Pending &p : batch) {
            inputPtrs_.push_back(&p.tokens);
            batchTokens += p.tokens.rows();
        }
        // Ragged pack: requests keep their own token counts. A uniform
        // batch is just the special case where every count matches.
        packed_.packFrom(inputPtrs_.data(), inputPtrs_.size());
        {
            // Pinned options install under the process-wide gate; the
            // guard's destructor restores the prior mode before the
            // gate releases. No options + no gate = no locking.
            std::unique_lock<std::mutex> gate;
            if (dispatchGate_)
                gate = std::unique_lock<std::mutex>(*dispatchGate_);
            if (!options_.empty()) {
                RuntimeOptions::Scoped scoped(options_);
                encoder_.forwardRaggedInto(packed_, pool_, encoded_);
            } else {
                encoder_.forwardRaggedInto(packed_, pool_, encoded_);
            }
        }
        const auto done = std::chrono::steady_clock::now();
        const double computeMs = msBetween(dispatchStart, done);

        batches_.fetch_add(1, std::memory_order_relaxed);
        tokensServed_.fetch_add(batchTokens, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> slock(statsMutex_);
            maxBatchObserved_ = std::max(maxBatchObserved_, batch.size());
            if (!dispatchClockSet_) {
                dispatchClockSet_ = true;
                firstDispatch_ = dispatchStart;
            }
        }
        for (size_t i = 0; i < batch.size(); ++i) {
            Pending &p = batch[i];
            InferenceResponse resp;
            resp.requestId = p.id;
            encoded_.unpackImage(i, resp.output);
            resp.batchSize = batch.size();
            resp.queueMs = msBetween(p.enqueued, dispatchStart);
            resp.computeMs = computeMs;
            resp.totalMs = msBetween(p.enqueued, done);
            {
                std::lock_guard<std::mutex> slock(statsMutex_);
                reservoir_.record(resp.totalMs);
            }
            // Count before fulfilling: a caller whose get() returned
            // must see itself in stats().served, even without a
            // shutdown barrier in between.
            served_.fetch_add(1, std::memory_order_relaxed);
            p.promise.set_value(std::move(resp));
        }
    } catch (...) {
        // A failed forward fails every rider; the dispatcher survives
        // to serve the next batch.
        const std::exception_ptr err = std::current_exception();
        for (Pending &p : batch) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            p.promise.set_exception(err);
        }
    }
    batch.clear();
}

void
DynamicBatcher::shutdown()
{
    std::lock_guard<std::mutex> slock(shutdownMutex_);
    if (joined_)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (dispatcher_.joinable())
        dispatcher_.join();
    joined_ = true;
}

BatcherStats
DynamicBatcher::stats() const
{
    BatcherStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.served = served_.load(std::memory_order_relaxed);
    s.rejectedFull = rejectedFull_.load(std::memory_order_relaxed);
    s.rejectedStopping =
        rejectedStopping_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.tokensSubmitted =
        tokensSubmitted_.load(std::memory_order_relaxed);
    s.tokensServed = tokensServed_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s.queueDepth = queue_.size();
    }
    {
        std::lock_guard<std::mutex> slock(statsMutex_);
        s.maxBatchObserved = maxBatchObserved_;
        s.p50Ms = reservoir_.quantile(0.50);
        s.p95Ms = reservoir_.quantile(0.95);
        s.p99Ms = reservoir_.quantile(0.99);
        if (dispatchClockSet_) {
            const double secs =
                msBetween(firstDispatch_,
                          std::chrono::steady_clock::now()) /
                1000.0;
            if (secs > 0.0)
                s.tokensPerSec =
                    static_cast<double>(s.tokensServed) / secs;
        }
    }
    return s;
}

} // namespace vitality
