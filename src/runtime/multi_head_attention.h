/**
 * @file
 * Multi-head dispatch over any attention kernel.
 *
 * The paper states all of its model-level numbers for H heads x L layers
 * of DeiT/ViT; the kernels themselves are single-head. MultiHeadAttention
 * closes that gap: it slices packed n x (H * d_h) query/key/value
 * matrices into per-head views, fans the heads out across a ThreadPool
 * (each worker running the kernel's allocation-free forwardInto through
 * its own AttentionContext), and writes the per-head outputs back into
 * the packed n x (H * d_h) result — the concatenation step of standard
 * multi-head attention. The output projection W_O lives in the model
 * layer, matching where the paper draws the attention-vs-linear boundary.
 *
 * The pooled entry points take a RaggedBatch (tensor/ragged_batch.h)
 * of B packed images and fan B x H independent work items across the
 * pool, which is what keeps the workers busy at small head counts (H=3
 * for DeiT-Tiny leaves most of a pool idle when only one image is in
 * flight). Every kernel invocation runs at its image's own token count,
 * reading its row band of the contiguous packed buffer — the
 * variable-token execution the encoder, token pruning and
 * mixed-resolution serving dispatch through. A single image is the
 * one-image batch.
 *
 * Thread safety: one MultiHeadAttention instance owns per-worker
 * contexts, so concurrent forward calls on the same instance are not
 * allowed; the entry points detect that misuse and throw
 * std::logic_error instead of corrupting the shared contexts. Concurrent
 * calls on different instances are fine.
 */

#ifndef VITALITY_RUNTIME_MULTI_HEAD_ATTENTION_H
#define VITALITY_RUNTIME_MULTI_HEAD_ATTENTION_H

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "attention/attention.h"
#include "runtime/call_guard.h"
#include "runtime/thread_pool.h"
#include "tensor/ragged_batch.h"

namespace vitality {

/** Fans H heads (x B images) of an attention kernel across a pool. */
class MultiHeadAttention
{
  public:
    /**
     * @param kernel Per-head kernel, shared across heads (kernels are
     * stateless with respect to the input).
     * @param heads Head count H; packed inputs carry H * d_h columns.
     */
    MultiHeadAttention(AttentionKernelPtr kernel, size_t heads);

    size_t heads() const { return heads_; }
    const AttentionKernel &kernel() const { return *kernel_; }

    /**
     * Ragged parallel forward: B x heads work items across the pool,
     * every kernel invocation at its image's own token count.
     *
     * @param pool Pool to fan (image, head) pairs across.
     * @param q,k,v Ragged batches over one contiguous buffer each
     * (tensor/ragged_batch.h). All three must agree on image count and
     * columns; k and v must share per-image row counts (q's may
     * differ).
     * @param out Resized to q's image structure; must not alias an
     * input. Image i is bitwise-identical to forwardSequentialInto on
     * that image's matrices — each (image, head) pair is the same
     * float program, reading a row band of the packed buffer instead
     * of a standalone Matrix.
     */
    void forwardRaggedInto(ThreadPool &pool, const RaggedBatch &q,
                           const RaggedBatch &k, const RaggedBatch &v,
                           RaggedBatch &out);

    RaggedBatch forwardRagged(ThreadPool &pool, const RaggedBatch &q,
                              const RaggedBatch &k, const RaggedBatch &v);

    /**
     * Single-image reference: identical computation, one head at a time
     * on the calling thread. Bitwise-identical to that image's slice of
     * the pooled ragged path.
     */
    void forwardSequentialInto(const Matrix &q, const Matrix &k,
                               const Matrix &v, Matrix &out);

    Matrix forwardSequential(const Matrix &q, const Matrix &k,
                             const Matrix &v);

    /** Ragged sequential reference, bitwise-identical to the pooled
     * ragged path. */
    void forwardRaggedSequentialInto(const RaggedBatch &q,
                                     const RaggedBatch &k,
                                     const RaggedBatch &v,
                                     RaggedBatch &out);

    RaggedBatch forwardRaggedSequential(const RaggedBatch &q,
                                        const RaggedBatch &k,
                                        const RaggedBatch &v);

    /**
     * Aggregate op counts for one multi-head invocation: the kernel's
     * per-head opCounts(n, d_model / heads) scaled by heads.
     */
    OpCounts opCounts(size_t n, size_t d_model) const;

  private:
    void checkShapes(const Matrix &q, const Matrix &k,
                     const Matrix &v) const;
    void checkRaggedShapes(const RaggedBatch &q, const RaggedBatch &k,
                           const RaggedBatch &v) const;
    /** Grow contexts_ to at least workers entries, under contextsMutex_. */
    void ensureContexts(size_t workers);
    /** Run one head through ctx and write its output slice into out. */
    void runHead(AttentionContext &ctx, size_t head, const Matrix &q,
                 const Matrix &k, const Matrix &v, Matrix &out);
    /**
     * The runHead core over raw row bands: qRows x packedCols queries
     * at q, kvRows x packedCols keys/values at k/v, output band at
     * out. The Matrix and ragged paths both land here, which is what
     * makes them bitwise-identical — a row band of a contiguous
     * row-major buffer IS the standalone matrix.
     */
    void runHeadRows(AttentionContext &ctx, size_t head, const float *q,
                     size_t qRows, const float *k, const float *v,
                     size_t kvRows, size_t packedCols, float *out);
    /** Ragged (image, head) work item: band lookup + runHeadRows. */
    void runRaggedItem(AttentionContext &ctx, size_t item,
                       const RaggedBatch &q, const RaggedBatch &k,
                       const RaggedBatch &v, RaggedBatch &out);

    AttentionKernelPtr kernel_;
    size_t heads_;
    /**
     * One context per pool worker, grown on demand. Growth is guarded by
     * contextsMutex_ so the vector itself stays intact even under the
     * (disallowed, detected) concurrent-caller misuse.
     */
    std::vector<std::unique_ptr<AttentionContext>> contexts_;
    std::mutex contextsMutex_;
    /**
     * Set while a forward entry point is executing; CallGuard turns a
     * concurrent same-instance call (which would share per-worker
     * contexts between two forwards) into std::logic_error.
     */
    std::atomic<bool> inFlight_{false};
    /** Context for the sequential reference path. */
    AttentionContext seqContext_;
};

} // namespace vitality

#endif // VITALITY_RUNTIME_MULTI_HEAD_ATTENTION_H
