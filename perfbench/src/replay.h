/**
 * @file
 * Stage-by-stage replay of VitEncoder::forwardRaggedInto.
 *
 * The library has no internal timers, so the traced run rebuilds one
 * compiled-plan forward from the library's public entry points and
 * records a span around each stage:
 *
 *   LN1 -> QKV -> MHA -> proj+residual -> LN2 -> MLP1+GELU
 *       -> MLP2+residual -> prune
 *
 * Each stage calls the function the encoder calls — layerNormRowsInto,
 * Gemm::multiply against the plan's PackedMatrix panels with the same
 * epilogue descriptors, MultiHeadAttention::forwardRaggedInto,
 * TokenPruner::prune — in the same order on the same shapes. The
 * caller checks that the replay's output equals forwardRaggedInto's
 * bitwise; if it ever differs, the trace is measuring a different
 * program and the run fails.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "model/token_pruner.h"
#include "model/vit_encoder.h"
#include "runtime/multi_head_attention.h"
#include "tensor/ragged_batch.h"
#include "trace.h"

namespace perfbench {

/** Stage names as they appear in spans, in execution order. */
enum Stage
{
    kLn1,
    kQkv,
    kMha,
    kProj,
    kLn2,
    kMlp1Gelu,
    kMlp2,
    kPrune,
    kStageCount
};
extern const char *const kStageNames[kStageCount];

/** Called after a layer's attention stage with that layer's Q/K/V. */
using LayerHook = std::function<void(
    size_t layer, const vitality::RaggedBatch &q,
    const vitality::RaggedBatch &k, const vitality::RaggedBatch &v)>;

class StageReplay
{
  public:
    /**
     * @param encoder Encoder with a compiled, uniform, fp32 plan; its
     * weights and packed panels are read, never modified. Must outlive
     * the replay.
     * @param kernel A kernel constructed exactly like the encoder's
     * (attention/zoo.h construction is deterministic).
     */
    StageReplay(const vitality::VitEncoder &encoder,
                vitality::AttentionKernelPtr kernel);

    /**
     * Replay one forwardRaggedInto of x into out. With a tracer, a
     * "forward" span (parent -1) encloses one "layer" span per layer,
     * each enclosing its stage spans; all carry call id `call`. The
     * hook, when set, runs untimed outside the stage spans.
     * Throws std::logic_error when the encoder has no uniform plan or
     * the process runs quantized GEMMs (the replay covers fp32 only).
     */
    void run(const vitality::RaggedBatch &x, vitality::ThreadPool &pool,
             vitality::RaggedBatch &out, Tracer *tracer, uint64_t call,
             const LayerHook &hook = nullptr);

  private:
    const vitality::VitEncoder &enc_;
    vitality::MultiHeadAttention mha_;
    vitality::TokenPruner pruner_;
    vitality::RaggedBatch x_, q_, k_, v_, attn_;
    vitality::Matrix normed_, hidden_;
};

/** Per-call stage totals reduced from the spans of one tracer. */
struct CallBreakdown
{
    double forwardMs = 0.0;
    double stageMs[kStageCount] = {};
    /**
     * Multiplications per stage under the VitEncoder::denseOpCounts
     * model (OpCounts::flops() convention), from each span's row count.
     */
    double stageFlops[kStageCount] = {};
};

/**
 * One breakdown per replayed call, in call order. d and h are the
 * model width and MLP hidden width the flop model needs.
 */
std::vector<CallBreakdown> breakdownByCall(const Tracer &tracer, size_t d,
                                           size_t h);

/** Outcome of replayLoop's parity checks. */
struct ReplayChecks
{
    uint64_t calls = 0;
    uint64_t mismatches = 0;
    /** Duration of each untraced forwardRaggedInto, ms. */
    std::vector<double> forwardMs;
};

/**
 * The traced run's measurement loop: for at least `seconds` (and at
 * least three rounds), alternate one untraced encoder.forwardRaggedInto
 * with one traced replay of the same input, and check the two outputs
 * are bitwise-equal. Records the tensor.*, runtime.mha_ms,
 * model.prune_ms, model.tokens_kept_frac and trace.* metrics into
 * report. With corrupt set, the first replay output has one bit
 * flipped before its check.
 */
ReplayChecks replayLoop(vitality::VitEncoder &encoder,
                        vitality::AttentionKernelPtr kernel,
                        const vitality::RaggedBatch &x,
                        vitality::ThreadPool &pool, double seconds,
                        bool corrupt, Tracer &tracer, Report &report);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
