/**
 * @file
 * Attention-guided token pruning between encoder layers.
 *
 * DynamicViT and Attention-aware Token Filtering (PAPERS.md) both show
 * that ViT token counts can shrink progressively with negligible
 * accuracy cost: tokens the CLS token barely attends to contribute
 * little to the classification output, and dropping them shrinks the
 * n axis of EVERY downstream stage — attention (the paper's Taylor
 * kernel is O(n d^2), so cost is linear in n) and the dense
 * projections/MLP alike. TokenPruner is that stage for the ragged
 * encoder path: after a layer runs, it ranks each image's non-CLS
 * tokens by CLS-attention mass and compacts the kept rows in place.
 *
 * Ranking signal: for image i with n tokens, per head h the pruner
 * computes softmax_j(q_cls^h . k_j^h / sqrt(d_h)) over all n tokens
 * from the layer's packed Q/K projections — exactly the CLS row of the
 * softmax attention map — and sums the probabilities across heads.
 * This is the standard DynamicViT signal, costs O(n d) per image
 * (negligible next to the layer itself), and works for every kernel in
 * the zoo including the linear-path Taylor kernel, which never
 * materializes an n x n map to reuse.
 *
 * Determinism and parity: kept tokens preserve their original order
 * (ties broken by lower index), the CLS row is always kept, and a keep
 * ratio of 1.0 is a structural no-op — the encoder skips the pruner
 * entirely, which is what keeps the encoder at keep=1.0
 * bitwise-identical to the unpruned per-image reference. Scratch
 * buffers are
 * members recycled across calls, so steady-state pruning allocates
 * nothing.
 */

#ifndef VITALITY_MODEL_TOKEN_PRUNER_H
#define VITALITY_MODEL_TOKEN_PRUNER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/ragged_batch.h"

namespace vitality {

/** Ranks non-CLS tokens by CLS-attention mass; compacts in place. */
class TokenPruner
{
  public:
    /**
     * Prune every image of x to `keep` of its non-CLS tokens (at least
     * one survives; images with a single token are untouched), using
     * the layer's packed Q/K projections as the ranking signal.
     *
     * @param x Activations to compact in place (structure shrinks).
     * @param q,k Packed per-layer projections sharing x's image
     * structure (same offsets), heads * d_h columns.
     * @param heads Head count H; q/k columns must divide by it.
     * @param keep Keep ratio in (0, 1]; 1.0 returns without touching x.
     */
    void prune(RaggedBatch &x, const RaggedBatch &q, const RaggedBatch &k,
               size_t heads, float keep);

    /**
     * Tokens surviving one prune of n: the CLS token plus
     * clamp(round(keep * (n - 1)), 1, n - 1) non-CLS tokens; n <= 1
     * and keep = 1.0 pass through. The analytic twin of prune()'s
     * structural effect, for tests and op accounting.
     */
    static size_t keptTokens(size_t n, float keep);

    /**
     * Build the default staged schedule into out (sized to layers,
     * 1.0 everywhere except `keep` at each quarter of the stack —
     * layers/4, layers/2, 3*layers/4, skipping the final layer whose
     * pruning no downstream stage could exploit). keep must be in
     * (0, 1]; throws otherwise. This is the expansion the ragged
     * encoder applies to the global VITALITY_TOKENS knob when a
     * VitConfig carries no explicit schedule.
     */
    static void buildSchedule(std::vector<float> &out, size_t layers,
                              float keep);

  private:
    /** Rank image i's tokens; kept non-CLS indices land in order_. */
    size_t rankImage(const RaggedBatch &q, const RaggedBatch &k,
                     size_t image, size_t heads, float keep);

    /** Per-image CLS-attention mass, recycled across calls. */
    std::vector<float> scores_;
    /** Per-head logit/probability scratch, recycled across calls. */
    std::vector<float> logits_;
    /** Candidate index scratch for the top-k selection. */
    std::vector<uint32_t> order_;
    /** Per-image surviving row counts for RaggedBatch::shrinkRows. */
    std::vector<size_t> keptRows_;
};

} // namespace vitality

#endif // VITALITY_MODEL_TOKEN_PRUNER_H
