/**
 * @file
 * Request/response types and the typed error for the serving engine.
 *
 * An InferenceRequest is one image's token matrix; its completion is a
 * std::future<InferenceResponse> the submitter holds while the
 * DynamicBatcher packs the request into a RaggedBatch with whatever
 * else arrived inside the batching window. The response carries the
 * encoded output plus the timing breakdown a latency SLO needs:
 * queueMs (submit to dispatch), computeMs (the batched forward), and
 * totalMs (submit to completion), along with the batch size the
 * request actually rode in — the number that explains a tail-latency
 * sample (a request that waited out maxWaitMicros alone reports
 * batchSize 1 and queueMs near the window).
 *
 * Failures that are the caller's fault or the server's state — queue
 * full, server stopping, unknown model, bad input shape or non-finite
 * input values — surface as ServeError, which carries a
 * machine-readable code so callers can distinguish back-pressure
 * (QueueFull: retry later) from terminal conditions (Stopping,
 * UnknownModel) without parsing what() text.
 * Backpressure is synchronous: submit() throws rather than returning
 * a future that will fail, so the queue bound is enforced before the
 * caller ever blocks on a result. Compute-side exceptions propagate
 * through the future instead (every request in the failed batch gets
 * the exception).
 */

#ifndef VITALITY_SERVE_INFERENCE_H
#define VITALITY_SERVE_INFERENCE_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "tensor/matrix.h"

namespace vitality {

/** Why a serving call was refused (ServeError::code()). */
enum class ServeErrorCode
{
    QueueFull,    ///< Bounded request queue at capacity; retry later.
    Stopping,     ///< Server/batcher is shutting down; terminal.
    UnknownModel, ///< No model registered under that key.
    BadRequest,   ///< Input shape does not match the model's config,
                  ///< or the input holds a NaN/Inf value.
};

/** "queue_full", "stopping", "unknown_model", or "bad_request". */
const char *serveErrorCodeName(ServeErrorCode code);

/** Typed serving failure: a runtime_error carrying a ServeErrorCode. */
class ServeError : public std::runtime_error
{
  public:
    ServeError(ServeErrorCode code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    ServeErrorCode code() const { return code_; }

  private:
    ServeErrorCode code_;
};

/**
 * One image in: the token matrix (tokens x dModel for the target
 * model) and the id the batcher assigned at submit time, echoed in the
 * response so callers correlating logs don't need their own ids.
 */
struct InferenceRequest
{
    uint64_t id = 0;
    Matrix tokens;
};

/** One image out: the encoded output plus the timing breakdown. */
struct InferenceResponse
{
    uint64_t requestId = 0;

    /** Encoded output, tokens x dModel. */
    Matrix output;

    /** How many requests rode the batch this one was packed into. */
    size_t batchSize = 0;

    /** Submit to dispatch (time spent queued, ms). */
    double queueMs = 0.0;

    /** The batched forward this request rode (ms, shared). */
    double computeMs = 0.0;

    /** Submit to completion (ms); the latency a client observes. */
    double totalMs = 0.0;
};

} // namespace vitality

#endif // VITALITY_SERVE_INFERENCE_H
