/**
 * @file
 * A variable-token batch: B images over one contiguous token buffer.
 *
 * Token-count diversity is the axis DynamicViT token sparsification
 * and mixed-resolution serving exploit, so the engine's one batch type
 * is variable-length: a RaggedBatch holds B images of n_i x cols
 * tokens stored back to back in one row-major buffer, described by a
 * cu_lens-style offsets array of B + 1 row offsets (offsets()[i] is the
 * first buffer row of image i; offsets()[B] is the total row count). This is the layout LLMInfer's VarLenAttentionParams uses for
 * variable-length attention (SNIPPETS.md Snippet 1): consumers walk
 * [offsets()[i], offsets()[i+1]) instead of assuming a uniform n.
 *
 * The contiguous buffer is the load-bearing design choice: every
 * per-row dense stage (layer norm, GEMM projections, GELU, residuals,
 * per-row activation quantization) can run over the WHOLE concatenated
 * buffer as one Matrix, because those stages are row-independent — the
 * model layer relies on this to keep every image's result
 * bitwise-independent of its batch-mates. Only attention needs the
 * per-image boundaries.
 *
 * Invariants: every image has >= 1 rows (token row 0 is the CLS token
 * by model-layer convention) and cols >= 1; established by resize()/
 * packFrom() and relied on by the runtime layer. Storage recycles on
 * resize exactly like Matrix, so steady-state reuse is
 * allocation-free. shrinkRows() supports in-place token pruning: after
 * a caller compacts kept rows toward the front of the buffer, it
 * replaces the row structure without touching storage.
 */

#ifndef VITALITY_TENSOR_RAGGED_BATCH_H
#define VITALITY_TENSOR_RAGGED_BATCH_H

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace vitality {

/** B token matrices of per-image row counts over one buffer. */
class RaggedBatch
{
  public:
    /** An empty batch (0 images). */
    RaggedBatch() = default;

    /** Adopt copies of n mixed-shape matrices (packFrom contract). */
    static RaggedBatch fromMatrices(const Matrix *const *inputs,
                                    size_t n);

    /** Number of images B. */
    size_t size() const
    {
        return offsets_.empty() ? 0 : offsets_.size() - 1;
    }
    bool empty() const { return size() == 0; }

    /** Total token rows across all images. */
    size_t totalRows() const
    {
        return offsets_.empty() ? 0 : offsets_.back();
    }

    /** Columns of every image (0 for an empty batch). */
    size_t cols() const { return buffer_.cols(); }

    /** Token rows of image i. */
    size_t rowsOf(size_t i) const;

    /** First buffer row of image i (offsets()[i]). */
    size_t offset(size_t i) const;

    /**
     * The cu_lens array: B + 1 row offsets, offsets()[0] == 0,
     * offsets()[B] == totalRows(). Empty for an empty batch.
     */
    const std::vector<size_t> &offsets() const { return offsets_; }

    /**
     * The contiguous totalRows() x cols() token buffer. Handed out
     * mutably so dense stages can run over all images at once;
     * reshaping it breaks the offsets invariant and is a caller error
     * (the runtime re-validates and throws).
     */
    Matrix &buffer() { return buffer_; }
    const Matrix &buffer() const { return buffer_; }

    /** Pointer to token row r of image i. */
    float *rowPtr(size_t i, size_t r)
    {
        return buffer_.rowPtr(offset(i) + r);
    }
    const float *rowPtr(size_t i, size_t r) const
    {
        return buffer_.rowPtr(offset(i) + r);
    }

    /**
     * Resize to n images of rows[i] x cols tokens, recycling storage
     * (Matrix::resize semantics: contents unspecified). Every rows[i]
     * must be >= 1 and cols >= 1; n >= 1.
     */
    void resize(const size_t *rows, size_t n, size_t cols);

    /** Resize to other's image structure (values not copied). */
    void resizeLike(const RaggedBatch &other);

    /**
     * Pack n mixed-shape request matrices (resized, storage recycled).
     * All inputs must be non-null with cols equal and rows >= 1;
     * throws std::invalid_argument otherwise.
     */
    void packFrom(const Matrix *const *inputs, size_t n);

    /** Copy image i into dst (resized). std::out_of_range on bad i. */
    void unpackImage(size_t i, Matrix &dst) const;

    /** Resize to other's structure and copy its contents. */
    void copyFrom(const RaggedBatch &other);

    /**
     * Replace the row structure with smaller per-image counts after
     * the caller compacted the kept rows of every image toward the
     * front of the buffer (token pruning). newRows[i] must be in
     * [1, rowsOf(i)]; buffer storage is untouched — rows past the new
     * structure simply stop being addressable.
     */
    void shrinkRows(const size_t *newRows);

    /** True if structures, and all addressable entries, match. */
    bool operator==(const RaggedBatch &other) const;
    bool operator!=(const RaggedBatch &other) const
    {
        return !(*this == other);
    }

    /** True if structures match and entries differ by at most tol. */
    bool allClose(const RaggedBatch &other, float tol = 1e-5f) const;

    /** Human-readable shape, e.g. "[3 x {1,17,197} x 192]". */
    std::string shapeStr() const;

  private:
    void checkIndex(size_t i) const;

    Matrix buffer_;
    /** cu_lens row offsets, size B + 1 (empty for an empty batch). */
    std::vector<size_t> offsets_;
};

} // namespace vitality

#endif // VITALITY_TENSOR_RAGGED_BATCH_H
