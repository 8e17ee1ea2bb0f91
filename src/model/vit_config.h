/**
 * @file
 * Vision-transformer architecture presets.
 *
 * The paper evaluates ViTALiTy on the DeiT family (Table I / Table IV):
 * 224 x 224 inputs, 16 x 16 patches, so 196 patch tokens + 1 class token
 * = 197 tokens, 12 encoder layers, head dimension 64, and MLP hidden
 * dimension 4 x d_model. VitConfig captures those shape parameters so the
 * encoder, the benches, and the op-count rollups all agree on them.
 */

#ifndef VITALITY_MODEL_VIT_CONFIG_H
#define VITALITY_MODEL_VIT_CONFIG_H

#include <cstddef>
#include <string>
#include <vector>

namespace vitality {

/** Shape parameters of one ViT/DeiT encoder stack. */
struct VitConfig
{
    std::string name;  ///< Preset name, e.g. "DeiT-Tiny".
    size_t layers;     ///< Encoder layer count L.
    size_t heads;      ///< Attention heads H per layer.
    size_t dModel;     ///< Embedding width; per-head dim is dModel / heads.
    size_t tokens;     ///< Sequence length n (196 patches + class token).
    size_t mlpHidden;  ///< MLP hidden width (4 x dModel for DeiT).

    /**
     * Per-layer token keep-ratio schedule for every encoder forward:
     * after running layer l, the token pruner keeps tokenKeep[l] of
     * each image's non-CLS tokens (ranked by CLS-attention mass; see
     * model/token_pruner.h). Empty (the default) defers to the global
     * VITALITY_TOKENS knob expanded over the default staged schedule;
     * non-empty must have exactly `layers` entries in (0, 1]
     * (validate() enforces this). 1.0 entries prune nothing. The
     * single-image forward applies it too (it is a one-image ragged
     * view).
     */
    std::vector<float> tokenKeep;

    /**
     * Per-layer attention-kernel schedule, string form
     * "taylor:0-7,softmax:8-11" (attention/zoo.h grammar): ranges name
     * the kernel run on those layers, uncovered layers run the model's
     * base kernel. Empty (the default) defers to the global
     * VITALITY_LAYERS knob. Only consulted when an EncoderPlan is
     * compiled (model/encoder_plan.h) — eager execution always runs
     * the base kernel on every layer. validate() checks the grammar
     * and that ranges fit `layers`.
     */
    std::string layerKernels;

    /** Per-head dimension d_h = dModel / heads (64 for all DeiT sizes). */
    size_t headDim() const { return dModel / heads; }

    /**
     * This preset with the DynamicViT-style staged schedule installed:
     * keep `keep` of the surviving non-CLS tokens after each quarter
     * of the stack (layers 3/6/9 for L=12), never after the final
     * layer. keep must be in (0, 1].
     */
    VitConfig withTokenKeep(float keep) const;

    /** DeiT-Tiny: L=12, H=3, d=192, n=197. */
    static VitConfig deitTiny();

    /** DeiT-Small: L=12, H=6, d=384, n=197. */
    static VitConfig deitSmall();

    /** DeiT-Base: L=12, H=12, d=768, n=197. */
    static VitConfig deitBase();

    /** Human-readable one-liner for benches and logs. */
    std::string summary() const;

    /** Sanity checks (nonzero dims, heads divides dModel); throws. */
    void validate() const;
};

} // namespace vitality

#endif // VITALITY_MODEL_VIT_CONFIG_H
