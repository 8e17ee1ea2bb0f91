/**
 * @file
 * EncoderPlan: the compile step between a VitConfig and execution.
 *
 * Eager VitEncoder execution re-derives per-call everything that is
 * actually a function of the model alone: every dense-stage GEMM
 * re-packs the same weight panels, the first int8 forward quantizes
 * the weights inside the dispatch gate, workspace buffers grow to
 * their high-water marks mid-request, and the attention kernel is one
 * process-wide choice. EncoderPlan::compile hoists all of that to
 * model-registration time:
 *
 *  - every dense-stage weight (wq/wk/wv/wo/w1/w2 per layer) is packed
 *    once into the exact kc x 16 panel layout the AVX2 microkernels
 *    consume (tensor/packed_weights.h), so steady-state GEMMs skip
 *    the pack loop entirely — and the scalar backend runs its
 *    unpack-free reference path, so planned execution is
 *    bitwise-identical to eager on every backend;
 *  - the int8 weight twins are built (and packed) eagerly when
 *    requested, so the first quantized request pays no lazy
 *    quantization;
 *  - the per-(maxBatch, maxTokens) workspace footprint is computed so
 *    the encoder pre-grows its activation buffers at compile time and
 *    steady-state forwards run without allocating;
 *  - a per-layer LayerSpec records which attention kernel and token
 *    keep-ratio each layer runs, parsed from the schedule grammar of
 *    attention/zoo.h ("taylor:0-7,softmax:8-11") with precedence
 *    PlanOptions > VitConfig::layerKernels > the VITALITY_LAYERS knob.
 *
 * A plan borrows the encoder's weight storage (PackedMatrix borrows
 * its source; the int8 panels borrow the encoder's quantized cache),
 * so it must not outlive the encoder that compiled it — VitEncoder
 * owns its plan (VitEncoder::compilePlan), which makes the lifetime
 * structural. When the resolved schedule is uniform (every layer runs
 * the encoder's own kernel), planned execution is bitwise-identical
 * to eager execution — test-asserted across the whole zoo.
 */

#ifndef VITALITY_MODEL_ENCODER_PLAN_H
#define VITALITY_MODEL_ENCODER_PLAN_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attention/attention.h"
#include "tensor/packed_weights.h"

namespace vitality {

class VitEncoder;

/** Compile-time choices for one EncoderPlan. */
struct PlanOptions
{
    /**
     * Per-layer kernel schedule (attention/zoo.h grammar). Disengaged
     * defers to VitConfig::layerKernels, then the VITALITY_LAYERS
     * knob; engaged-but-empty explicitly pins uniform (every layer
     * runs the encoder's own kernel), shutting the ambient knob out —
     * the same convention RuntimeOptions::layerKernels uses. Uncovered
     * layers run the encoder's own kernel.
     */
    std::optional<std::string> layerKernels;

    /**
     * Token keep-ratio to freeze into the plan's per-layer schedule
     * when the config carries no explicit tokenKeep vector. Disengaged
     * reads the global VITALITY_TOKENS knob at compile time — compile
     * freezes the value, so later knob changes don't retune a plan.
     */
    std::optional<float> tokenKeep;

    /** Largest per-image token count to provision for; 0 = cfg.tokens. */
    size_t maxTokens = 0;

    /** Largest batch size to provision workspace for. */
    size_t maxBatch = 1;

    /** Also build + pack the int8 weight twins at compile time. */
    bool packInt8 = false;
};

/** A compiled execution plan for one VitEncoder. */
class EncoderPlan
{
  public:
    /** What one layer runs: its attention kernel and keep-ratio. */
    struct LayerSpec
    {
        AttentionType kernel;
        float tokenKeep;
    };

    /** Prepacked panels for one layer's six dense-stage weights. */
    struct LayerPack
    {
        PackedMatrix wq, wk, wv, wo, w1, w2;
    };

    /**
     * Compile a plan against an encoder's weights. Throws
     * std::invalid_argument on a malformed schedule, a range past the
     * model's layer count, or out-of-range options. The plan borrows
     * the encoder's weight storage — callers go through
     * VitEncoder::compilePlan, which ties the lifetimes together.
     */
    static std::unique_ptr<const EncoderPlan>
    compile(VitEncoder &encoder, const PlanOptions &opts);

    size_t layers() const { return specs_.size(); }
    const LayerSpec &spec(size_t l) const { return specs_[l]; }
    const LayerPack &pack(size_t l) const { return packs_[l]; }

    /** True when every layer runs the encoder's own kernel. */
    bool uniform() const { return uniform_; }

    /** True when the int8 twins were packed (PlanOptions::packInt8). */
    bool hasInt8() const { return int8_; }

    size_t maxTokens() const { return maxTokens_; }
    size_t maxBatch() const { return maxBatch_; }

    /** Total bytes held by the prepacked weight panels. */
    size_t packedBytes() const;

    /**
     * High-water activation-float count the encoder pre-grows for:
     * maxBatch x maxTokens rows through the six d-wide buffers plus
     * the mlpHidden-wide one.
     */
    size_t workspaceFloats() const { return workspaceFloats_; }

    /** Human-readable one-liner for logs and benches. */
    std::string summary() const;

  private:
    EncoderPlan() = default;

    std::vector<LayerSpec> specs_;
    std::vector<LayerPack> packs_;
    bool uniform_ = true;
    bool int8_ = false;
    size_t maxTokens_ = 0;
    size_t maxBatch_ = 1;
    size_t workspaceFloats_ = 0;
    std::string scheduleText_;
};

} // namespace vitality

#endif // VITALITY_MODEL_ENCODER_PLAN_H
