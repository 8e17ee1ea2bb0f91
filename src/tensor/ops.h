/**
 * @file
 * Free-function linear algebra over Matrix.
 *
 * These are the primitive operations used by every attention kernel and by
 * the autograd layer. All functions validate shapes and throw
 * std::invalid_argument on mismatch. The whole matmul family (matmul,
 * matmulBT, matmulAT and their *Into twins) routes through the Gemm
 * dispatcher in tensor/gemm.h, so every caller rides the runtime-selected
 * backend (AVX2+FMA microkernel or portable scalar loops) without
 * per-kernel changes; everything else is a straightforward single pass.
 *
 * Every hot operation comes in two forms:
 *   - a value-returning form (matmul, softmaxRows, ...) that allocates its
 *     result, kept for convenience and for cold paths; and
 *   - an out-parameter *Into form (matmulInto, softmaxRowsInto, ...) that
 *     resizes dst (recycling its storage) and writes the result there,
 *     used by the allocation-free forwardInto execution paths together
 *     with a Workspace.
 * The value forms are thin wrappers over the *Into forms, so both paths
 * produce bitwise-identical results.
 *
 * Aliasing: for the matmul family dst must not alias an input (checked,
 * throws). Element-wise, row-wise, and broadcast *Into ops allow dst to
 * alias the primary input a (they process entries in order), but never the
 * vector operand v.
 */

#ifndef VITALITY_TENSOR_OPS_H
#define VITALITY_TENSOR_OPS_H

#include <functional>

#include "tensor/matrix.h"

namespace vitality {

/**
 * Tanh-approximation GELU, the variant ViT/DeiT checkpoints use:
 *   0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
 * with the tanh evaluated by the polynomial exp2 core below (tanhApprox)
 * in a fixed mul/add order: x^3 as (x * x) * x, the result as
 * (0.5 * x) * (1 + tanh(inner)). The AVX2 GEMM write-backs run the
 * identical program lane by lane (geluApprox8 in tensor/avx2_math.h), so
 * every GELU in the library — full tiles, ragged edges, the scalar
 * backend, geluInto and the unfused epilogue — produces the same bits.
 *
 * Accuracy against the float64 tanh-GELU (swept in test_ops):
 * |geluScalar(x) - gelu64(x)| <= 4e-7 * (1 + |x| / 2), the tanhApprox
 * bound carried through the outer 0.5 x (1 + t) form (measured worst
 * 4.3e-7 at x ~ 4.7, a third of the bound there). Special values: +/-0
 * map to themselves, NaN propagates, +inf -> +inf, and every
 * x <= -10 gives -0 (-inf, like the std::tanh form, gives NaN).
 *
 * Deliberately defined once in ops.cpp (baseline ISA) rather than
 * inline: the GEMM backends call it from their ragged-edge write-back,
 * and an inline definition would also be emitted by the -mavx2 -mfma
 * translation units — in unoptimized builds the linker may then keep
 * that VEX-encoded copy for every caller, breaking the scalar path on
 * hosts the runtime CPUID dispatch exists to support.
 */
float geluScalar(float x);

/**
 * @name Polynomial transcendental approximations
 *
 * One exp2 core — round-to-nearest argument split 2^z = 2^n * 2^f,
 * f in [-0.5, 0.5], degree-7 polynomial for 2^f, exponent-bit scale by
 * 2^n — backs these functions and geluScalar. They exist because
 * std::exp / std::tanh would be the encoder's largest non-GEMM costs
 * (the predictor's n^2 softmax and the GELU epilogue); the
 * approximations are branch-free mul/add/min/max sequences that
 * auto-vectorize, and the AVX2 kernels (tensor/avx2_math.h) replicate
 * the exact same operation order lane by lane, so the vector paths and
 * these scalar fallbacks are bitwise-identical (asserted in test_gemm).
 *
 * Accuracy (verified over dense sweeps in test_ops):
 *   - expApprox: relative error <= 1e-5 over [-87, 87] and <= 6e-7
 *     over [-5, 5], the softmax regime (the polynomial contributes
 *     < 1e-8; the rest is the z = x * log2(e) argument rounding,
 *     which grows linearly in |x| — measured 7.6e-6 at |x| = 87).
 *   - tanhApprox: absolute error <= 4e-7 everywhere (measured
 *     1.4e-7) — about 2 ULP of the function's +/-1 range; |x| >= 10
 *     returns exactly +/-1.
 * Edge semantics: inputs are clamped before the exponent split, so
 * NaN does not propagate through expApprox / tanhApprox themselves
 * (NaN clamps like -inf), tanhApprox(-0) is +0, and expApprox
 * flushes to 2^-126 instead of 0 at the underflow end. Exact softmax
 * paths (SoftmaxAttention, maskedSoftmax*) keep std::exp; the
 * quantized Sanger prediction front-end and geluScalar use these.
 */
/// @{

/** e^x via the exp2 core. */
float expApprox(float x);

/** tanh(x) = (e^2x - 1) / (e^2x + 1) via the exp2 core. */
float tanhApprox(float x);

/**
 * Row-wise softmax with expApprox inside — the low-precision softmax
 * of the Sanger prediction front-end (sparse/predictor.h), where the
 * estimate only feeds a threshold compare and Sanger hardware runs the
 * whole pass in 4 bits anyway. The per-row loop lives out of line so
 * the compiler vectorizes the polynomial; results match calling
 * expApprox per element bitwise.
 */
void softmaxRowsApproxInto(Matrix &dst, const Matrix &a);
/// @}

/** C = A * B. A is m x k, B is k x n. */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T without materializing the transpose. A is m x k, B is n x k. */
Matrix matmulBT(const Matrix &a, const Matrix &b);

/** C = A^T * B without materializing the transpose. A is k x m, B is k x n. */
Matrix matmulAT(const Matrix &a, const Matrix &b);

/** B = A^T. */
Matrix transpose(const Matrix &a);

/** Element-wise A + B. */
Matrix add(const Matrix &a, const Matrix &b);

/** Element-wise A - B. */
Matrix sub(const Matrix &a, const Matrix &b);

/** Element-wise (Hadamard) A .* B. */
Matrix hadamard(const Matrix &a, const Matrix &b);

/** Element-wise A ./ B. */
Matrix divide(const Matrix &a, const Matrix &b);

/** s * A. */
Matrix scale(const Matrix &a, float s);

/** A + s (every entry). */
Matrix addScalar(const Matrix &a, float s);

/** Column vector (rows x 1) of per-row sums. */
Matrix rowSum(const Matrix &a);

/** Row vector (1 x cols) of per-column sums; 1_n^T A in the paper. */
Matrix colSum(const Matrix &a);

/** Column vector of per-row means. */
Matrix rowMean(const Matrix &a);

/** Row vector of per-column means; the key-mean K-bar in Algorithm 1. */
Matrix colMean(const Matrix &a);

/** A + 1_n * v, adding the 1 x cols row vector v to every row. */
Matrix broadcastAddRow(const Matrix &a, const Matrix &v);

/** A - 1_n * v, subtracting the 1 x cols row vector v from every row. */
Matrix broadcastSubRow(const Matrix &a, const Matrix &v);

/** A + v * 1_n^T, adding the rows x 1 column vector v to every column. */
Matrix broadcastAddCol(const Matrix &a, const Matrix &v);

/** A .* (v * 1^T): scale row i of A by v(i, 0). */
Matrix scaleRows(const Matrix &a, const Matrix &v);

/** A ./ (v * 1^T): divide row i of A by v(i, 0) = diag(v)^-1 * A. */
Matrix divRows(const Matrix &a, const Matrix &v);

/** Row-wise numerically-stable softmax. */
Matrix softmaxRows(const Matrix &a);

/** Element-wise exp. */
Matrix expElem(const Matrix &a);

/** Element-wise tanh-approximation GELU (geluScalar per entry). */
Matrix gelu(const Matrix &a);

/** Apply fn to every element. */
Matrix mapElem(const Matrix &a, const std::function<float(float)> &fn);

/** Outer product u * v^T of a column vector u and column vector v. */
Matrix outer(const Matrix &u, const Matrix &v);

/** Stack A on top of B (same column count). */
Matrix concatRows(const Matrix &a, const Matrix &b);

/** Place A left of B (same row count). */
Matrix concatCols(const Matrix &a, const Matrix &b);

/** Largest |a_ij|. */
float maxAbs(const Matrix &a);

/** Largest |a_ij - b_ij|; shapes must match. */
float maxAbsDiff(const Matrix &a, const Matrix &b);

/** Frobenius norm. */
float frobeniusNorm(const Matrix &a);

/** Mean of all entries. */
float mean(const Matrix &a);

/** Sum of all entries. */
float sum(const Matrix &a);

/** Index of the max entry in row r. */
size_t argmaxRow(const Matrix &a, size_t r);

/** Fraction of entries within the half-open interval [lo, hi). */
float fractionInRange(const Matrix &a, float lo, float hi);

/** Fraction of exactly-zero entries. */
float sparsity(const Matrix &a);

/**
 * Row-wise layer normalization:
 *   dst(r, :) = (a(r, :) - mean_r) / sqrt(var_r + eps) .* gamma + beta
 * with gamma and beta 1 x cols row vectors (the affine parameters).
 * The mean and variance sums are lane-grouped: column c feeds
 * accumulator c % 8 over the whole 8-column groups, the eight lanes fold
 * pairwise ((0+4) + (2+6)) + ((1+5) + (3+7)), and the tail columns add
 * on in order. The AVX2 row kernel (used when the AVX2 GEMM backend is
 * active) runs that order in registers, so both give the same bits.
 * Inputs of at least 2 x 64K elements fan row bands over the installed
 * Gemm parallel runner (under the same thread cap as the GEMMs); rows
 * are independent, so banding never changes a bit.
 */
Matrix layerNormRows(const Matrix &a, const Matrix &gamma,
                     const Matrix &beta, float eps = 1e-5f);

/** @name Allocation-free out-parameter variants
 * Each resizes dst and writes the same result as its value-returning twin.
 */
/// @{
void matmulInto(Matrix &dst, const Matrix &a, const Matrix &b);
void matmulBTInto(Matrix &dst, const Matrix &a, const Matrix &b);
void matmulATInto(Matrix &dst, const Matrix &a, const Matrix &b);
void transposeInto(Matrix &dst, const Matrix &a);
void addInto(Matrix &dst, const Matrix &a, const Matrix &b);
void subInto(Matrix &dst, const Matrix &a, const Matrix &b);
void hadamardInto(Matrix &dst, const Matrix &a, const Matrix &b);
void divideInto(Matrix &dst, const Matrix &a, const Matrix &b);
void scaleInto(Matrix &dst, const Matrix &a, float s);
void addScalarInto(Matrix &dst, const Matrix &a, float s);
void rowSumInto(Matrix &dst, const Matrix &a);
void colSumInto(Matrix &dst, const Matrix &a);
void rowMeanInto(Matrix &dst, const Matrix &a);
void colMeanInto(Matrix &dst, const Matrix &a);
void broadcastAddRowInto(Matrix &dst, const Matrix &a, const Matrix &v);
void broadcastSubRowInto(Matrix &dst, const Matrix &a, const Matrix &v);
void broadcastAddColInto(Matrix &dst, const Matrix &a, const Matrix &v);
void scaleRowsInto(Matrix &dst, const Matrix &a, const Matrix &v);
void divRowsInto(Matrix &dst, const Matrix &a, const Matrix &v);
void softmaxRowsInto(Matrix &dst, const Matrix &a);
void expElemInto(Matrix &dst, const Matrix &a);
void geluInto(Matrix &dst, const Matrix &a);
void mapElemInto(Matrix &dst, const Matrix &a,
                 const std::function<float(float)> &fn);
void layerNormRowsInto(Matrix &dst, const Matrix &a, const Matrix &gamma,
                       const Matrix &beta, float eps = 1e-5f);
/// @}

} // namespace vitality

#endif // VITALITY_TENSOR_OPS_H
