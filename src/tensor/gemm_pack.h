/**
 * @file
 * Operand-panel packing shared by the GEMM backends and the prepack
 * path.
 *
 * The fp32 and INT8 AVX2 backends consume packed operand panels: op(A)
 * in microkernel-height row panels, op(B) in microkernel-width column
 * panels (fp32) or k-quad panels (int8), zero-padded so the
 * microkernels never see a ragged edge. These helpers used to live as
 * private copies inside gemm_avx2.cpp / gemm_int8_avx2.cpp; they are
 * hoisted here so the per-call backends and the weight-prepacking path
 * (tensor/packed_weights.h) produce byte-identical panels from ONE
 * definition — a prepacked panel is interchangeable with a per-call
 * one precisely because there is no second packing routine to drift.
 *
 * Everything here is plain scalar code (no intrinsics), compiled for
 * the baseline ISA; packing is exact element movement, so where the
 * loops run makes no numerical difference.
 *
 * Layouts (documented once, relied on by both backends):
 *
 *   fp32 A panel:  pa[kk * kMr + r]            kMr rows, zero-padded
 *   fp32 B panel:  pb[(kk - k0) * kNr + c]     kNr cols, zero-padded;
 *                  chunks [k0, k1) are contiguous in kk, so a full-k
 *                  panel's [k0, k1) slice starts at pb + k0 * kNr
 *   int8 A panel:  pa[q * kMr8 * 4 + r * 4 + t]  (k index 4q + t)
 *   int8 B panel:  pb[q * kNr8 * 4 + c * 4 + t]  (k index 4q + t)
 *
 * Internal to the tensor layer; not part of the public Gemm surface.
 */

#ifndef VITALITY_TENSOR_GEMM_PACK_H
#define VITALITY_TENSOR_GEMM_PACK_H

#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"

namespace vitality {

class QuantizedMatrix;

namespace detail {

constexpr size_t kMr = 6;   ///< fp32 microkernel rows (A panel height).
constexpr size_t kNr = 16;  ///< fp32 microkernel cols (B panel width).
constexpr size_t kKc = 256; ///< fp32 k-dimension cache-block depth.
constexpr size_t kNc = 256; ///< fp32 n-dimension column-block width.

/**
 * Columns of the fp32 register tile the AVX2 backend runs: 2 * kNr
 * (the 6x32 zmm tile over two adjacent B panels) when the AVX-512
 * kernel is compiled in and CPUID reports avx512f, else kNr (the 6x16
 * ymm tile). Both tiles run the same per-element FMA chain, so the
 * choice never changes a bit of output; the panel geometry above is
 * the same for both.
 */
size_t fp32TileCols();

/**
 * Force the fp32 tile width (test hook, so both tiles can run on one
 * host): kNr or 2 * kNr, or 0 to restore the CPUID choice. Throws
 * std::invalid_argument for any other width, and for 2 * kNr where the
 * zmm tile is unavailable. Not synchronized with in-flight multiplies.
 */
void setFp32TileCols(size_t cols);

constexpr size_t kMr8 = 4;  ///< int8 microkernel rows (A panel height).
constexpr size_t kNr8 = 16; ///< int8 microkernel cols (B panel width).

/**
 * Pack op(A) rows [i0, i0+rows) into a kMr x k panel, layout
 * pa[kk * kMr + r], zero-padded to kMr rows.
 */
void packAPanel(float *pa, const Matrix &a, Gemm::Trans trans, size_t i0,
                size_t rows, size_t k);

/**
 * Pack the [k0, k1) slice of op(B) cols [j0, j0+cols) into a
 * (k1-k0) x kNr panel, layout pb[(kk-k0) * kNr + c], zero-padded to
 * kNr cols.
 */
void packBPanel(float *pb, const Matrix &b, Gemm::Trans trans, size_t j0,
                size_t cols, size_t k0, size_t k1);

/**
 * Pack op(A) rows [i0, i0+rows) into a panel of k-quads, layout
 * pa[q * 16 + r * 4 + t] for quad q, row r, byte t (k index 4q + t),
 * zero-padded to 4 rows and a whole quad.
 */
void packAPanelInt8(int8_t *pa, const QuantizedMatrix &a,
                    Gemm::Trans trans, size_t i0, size_t rows, size_t k,
                    size_t quads);

/**
 * Pack op(B) columns [j0, j0+cols) into a panel of k-quads, layout
 * pb[q * 64 + c * 4 + t] for quad q, column c, byte t (k index
 * 4q + t), zero-padded to 16 columns and a whole quad.
 */
void packBPanelInt8(int8_t *pb, const QuantizedMatrix &b,
                    Gemm::Trans trans, size_t j0, size_t cols, size_t k,
                    size_t quads);

} // namespace detail
} // namespace vitality

#endif // VITALITY_TENSOR_GEMM_PACK_H
