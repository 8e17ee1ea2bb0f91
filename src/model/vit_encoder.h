/**
 * @file
 * End-to-end ViT encoder stack over the attention zoo.
 *
 * Runs the standard pre-norm transformer encoder the DeiT family uses:
 *
 *   for each layer:  x = x + W_O MHA(LN1(x))        (attention block)
 *                    x = x + W_2 GELU(W_1 LN2(x))   (MLP block)
 *
 * with the multi-head attention dispatched through the runtime layer, so
 * any kernel in the zoo (softmax baseline, ViTALiTy Taylor, Sanger
 * sparse, unified, ...) can be swapped in end-to-end. Every dense stage
 * (QKV/output projections, MLP) is a single fused GEMM call: bias adds,
 * the tanh-GELU, and the residual adds ride the GEMM epilogue
 * (tensor/gemm.h) instead of re-walking the activations. There is one
 * execution path: every forward runs over a RaggedBatch of B images
 * (a single image is the one-image batch), each dense stage as one GEMM
 * over the concatenated tokens with row bands fanned across the pool,
 * and the attention as B x heads work items. Weights are
 * randomly initialized (the repo reproduces the paper's compute and
 * accuracy *structure*, not trained checkpoints); everything is seeded,
 * so runs are bit-reproducible.
 *
 * The op-count rollup reproduces the paper's model-level GFLOPs
 * accounting: the attention contribution is exactly the kernel's
 * per-head opCounts(n, d_h) scaled by heads x layers, and the dense
 * contribution adds the QKV/output projections and the MLP.
 */

#ifndef VITALITY_MODEL_VIT_ENCODER_H
#define VITALITY_MODEL_VIT_ENCODER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "attention/attention.h"
#include "model/token_pruner.h"
#include "model/vit_config.h"
#include "runtime/multi_head_attention.h"
#include "runtime/thread_pool.h"
#include "tensor/quantized_matrix.h"
#include "tensor/ragged_batch.h"

namespace vitality {

class EncoderPlan;
class Rng;
struct PlanOptions;

/** A stack of pre-norm transformer encoder layers. */
class VitEncoder
{
  public:
    /** Weights of one encoder layer. */
    struct LayerWeights
    {
        Matrix ln1Gamma, ln1Beta; ///< Pre-attention layer norm, 1 x d.
        Matrix wq, wk, wv;        ///< QKV projections, d x d.
        Matrix bq, bk, bv;        ///< QKV biases, 1 x d.
        Matrix wo, bo;            ///< Output projection d x d, bias 1 x d.
        Matrix ln2Gamma, ln2Beta; ///< Pre-MLP layer norm, 1 x d.
        Matrix w1, b1;            ///< MLP up-projection d x h, 1 x h.
        Matrix w2, b2;            ///< MLP down-projection h x d, 1 x d.
    };

    /**
     * INT8 twins of one layer's projection weights (symmetric
     * per-tensor, tensor/quantized_matrix.h), built lazily on the
     * first forward under Gemm::QuantMode::Int8 and cached for the
     * life of the encoder. Layer norms, biases, and the attention
     * kernels stay fp32; under the int8 mode the dense stages (QKV,
     * output projection, both MLP GEMMs) run through the quantized
     * Gemm::multiply with per-row-quantized activations, and the
     * fp32-vs-int8 output deviation is bounded and asserted by
     * test_quant.
     */
    struct QuantizedLayerWeights
    {
        QuantizedMatrix wq, wk, wv, wo, w1, w2;
    };

    /**
     * @param config Architecture preset; validated.
     * @param kernel Attention kernel shared by every head and layer.
     * @param seed Weight-initialization seed.
     */
    VitEncoder(VitConfig config, AttentionKernelPtr kernel,
               uint64_t seed = 0x5eedULL);

    /** Out-of-line: plan_ holds an incomplete EncoderPlan here. */
    ~VitEncoder();

    const VitConfig &config() const { return cfg_; }
    const AttentionKernel &kernel() const { return mha_.kernel(); }
    const LayerWeights &layer(size_t i) const { return layers_[i]; }

    /**
     * The layer's int8 weight twins, building the whole cache on first
     * use (the same cache the lazy int8 forward path fills). Not
     * thread-safe against concurrent forwards — call it where a
     * forward would be legal.
     */
    const QuantizedLayerWeights &quantizedLayer(size_t i);

    /**
     * Compile and attach an execution plan (model/encoder_plan.h):
     * prepacks every dense-stage weight into the microkernel panel
     * layout, freezes the per-layer kernel/keep schedule, pre-grows
     * the activation buffers to the plan's (maxBatch, maxTokens)
     * high-water mark, and — for heterogeneous schedules — builds one
     * MultiHeadAttention per layer. Subsequent forward/forwardRagged
     * calls execute through the plan; with a uniform schedule they are
     * bitwise-identical to eager execution (test-asserted). Replaces any previous plan.
     * Throws std::invalid_argument on malformed options and leaves the
     * encoder unplanned.
     */
    void compilePlan(const PlanOptions &opts);

    /** compilePlan with default options (uniform schedule, batch 1). */
    void compilePlan();

    /** The attached plan, or nullptr when executing eagerly. */
    const EncoderPlan *plan() const { return plan_.get(); }

    /** Detach the plan; the encoder executes eagerly again. */
    void clearPlan();

    /**
     * Run the full encoder stack over one image: a one-image view of
     * forwardRaggedInto, with the same keep schedule.
     *
     * @param x Token embeddings, tokens x dModel.
     * @param pool Pool dense row bands and attention heads fan across.
     * @param out Resized to the SURVIVING tokens x dModel (all tokens
     * under an all-1.0 schedule). Bitwise-identical to image 0 of
     * forwardRaggedInto over x alone. All tensor storage is recycled
     * after the first call.
     */
    void forwardInto(const Matrix &x, ThreadPool &pool, Matrix &out);

    Matrix forward(const Matrix &x, ThreadPool &pool);

    /**
     * Run the full encoder stack over a ragged batch of mixed
     * token-count images, with progressive token pruning.
     *
     * Dense stages (layer norms, QKV/output projections, MLP, and the
     * int8 per-row activation quantization) run over the WHOLE
     * concatenated token buffer as single fused GEMM calls — every one
     * of those stages is row-independent, and the GEMM row-band
     * guarantee makes each row's result bitwise-independent of the
     * other rows present — while attention fans B x heads ragged work
     * items so every kernel runs at its image's own token count.
     *
     * Between layers a TokenPruner applies the keep-ratio schedule:
     * cfg.tokenKeep when non-empty, else the global VITALITY_TOKENS
     * knob expanded over the default staged schedule
     * (TokenPruner::buildSchedule). out's per-image row counts are the
     * SURVIVING token counts, which may be smaller than the input's.
     *
     * Parity contract (test-asserted): image i of out is
     * bitwise-identical to forwardInto of that image alone — any
     * image's result is bitwise-independent of what it shares the
     * batch with — and, with an all-1.0 schedule (the pruner never
     * runs), to a per-image reference built from the public stages.
     *
     * @param x Ragged batch; cols must equal dModel, any rows >= 1.
     * @param pool Pool dense row bands and attention items fan across.
     * @param out Resized; must not alias x.
     */
    void forwardRaggedInto(const RaggedBatch &x, ThreadPool &pool,
                           RaggedBatch &out);

    RaggedBatch forwardRagged(const RaggedBatch &x, ThreadPool &pool);

    /**
     * Attention-only rollup: kernel per-head opCounts(tokens, headDim)
     * x heads x layers — the quantity the paper's Eq. (1)-(3) and
     * Table IV state per model.
     */
    OpCounts attentionOpCounts() const;

    /**
     * Dense (non-attention) rollup per the usual ViT accounting: QKV and
     * output projections (4 n d^2 MACs) plus the MLP (2 n d h MACs) per
     * layer, with bias adds; layer norms and GELU are counted as adds/
     * divs/exps respectively.
     */
    OpCounts denseOpCounts() const;

    /** attentionOpCounts() + denseOpCounts(). */
    OpCounts opCounts() const;

  private:
    /**
     * The shared core of every forward, unguarded (the public entry
     * points hold the CallGuard): runs all layers over rx_ in place,
     * pruning it by the effective keep schedule.
     */
    void runLayers(ThreadPool &pool);

    /** Build qlayers_ from layers_ if not already cached. */
    void ensureQuantizedWeights();

    /** Layer l's attention dispatch: the per-layer instance when the
     * plan's schedule is heterogeneous, the shared mha_ otherwise. */
    MultiHeadAttention &mhaAt(size_t l);

    VitConfig cfg_;
    MultiHeadAttention mha_;
    std::vector<LayerWeights> layers_;
    /** Lazily-built INT8 weight cache, empty until the first int8
     * forward (see QuantizedLayerWeights). */
    std::vector<QuantizedLayerWeights> qlayers_;
    /**
     * Activations, recycled across forward calls and grown on first
     * use (or by compilePlan). rx_/rq_/rk_/rv_/rattn_ carry the
     * per-image structure (attention needs the boundaries);
     * rnormed_/rhidden_ are plain buffers the row-independent dense
     * stages run over. Output and MLP projections accumulate straight
     * into rx_ through the fused GEMM epilogue.
     */
    RaggedBatch rx_, rq_, rk_, rv_, rattn_;
    Matrix rnormed_, rhidden_;
    TokenPruner pruner_;
    /** Effective per-layer keep schedule, resolved per call. */
    std::vector<float> keepSched_;
    /**
     * Attached execution plan (compilePlan), or null for eager
     * execution. The plan borrows the weight storage above, so the
     * encoder owning it is what makes the borrow safe.
     */
    std::unique_ptr<const EncoderPlan> plan_;
    /**
     * Per-layer attention dispatch for heterogeneous plan schedules
     * (one instance per layer, each wrapping that layer's kernel).
     * Empty for uniform schedules — mhaAt() then returns mha_, which
     * is what keeps uniform planned execution bitwise-identical to
     * eager (identical object, identical float program).
     */
    std::vector<std::unique_ptr<MultiHeadAttention>> planMha_;
    /**
     * Set while a forward entry point is executing; the activation
     * buffers above are shared per instance, so a concurrent
     * same-instance call throws std::logic_error instead of silently
     * corrupting them (same contract as MultiHeadAttention).
     */
    std::atomic<bool> inFlight_{false};
};

} // namespace vitality

#endif // VITALITY_MODEL_VIT_ENCODER_H
