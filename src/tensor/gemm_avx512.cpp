/**
 * @file
 * AVX-512 fp32 microkernel: a 6x32 register tile over two adjacent
 * kNr = 16 B panels.
 *
 * This translation unit is compiled with -mavx512f -mfma and holds
 * nothing but the tile; the blocking, packing, banding and fused
 * epilogue all stay in the AVX2 driver (gemm_avx2.cpp), which calls in
 * here only after the dispatcher's CPUID check reported avx512f (see
 * detail::fp32TileCols in gemm_pack.h). The panel layout is the one
 * every other fp32 path uses (kMr = 6 rows, kNr = 16 columns per B
 * panel); a zmm register simply spans one whole B-panel row, so the
 * tile is the ymm 6x16 tile run on two panels at once.
 *
 * Bitwise contract: every output element is one FMA chain over k in
 * ascending order, seeded from cin (the previous kc chunk's float32
 * partials) or zero — exactly the chain microKernel6x16 runs per
 * element. A zmm FMA rounds each lane as a ymm FMA does, so the two
 * tiles produce the same bits.
 */

#include <immintrin.h>

#include <cstddef>

#include "tensor/gemm_pack.h"

namespace vitality {
namespace detail {

/**
 * cout[0:6, 0:32] = (cin ? cin : 0) + A-panel * [B-panel 0 | B-panel 1]
 * over k steps. pb0 and pb1 are two kNr-wide packed B panels (columns
 * 0..15 and 16..31 of the tile); cin/cout rows are 32 contiguous floats
 * with strides ldcin/ldcout. cin may equal cout: every load happens
 * before the first store. Twelve zmm accumulators; per k step two B
 * loads, six broadcasts and twelve FMAs.
 */
void
microKernel6x32Avx512(size_t k, const float *pa, const float *pb0,
                      const float *pb1, const float *cin, size_t ldcin,
                      float *cout, size_t ldcout)
{
    __m512 acc00, acc01, acc10, acc11, acc20, acc21;
    __m512 acc30, acc31, acc40, acc41, acc50, acc51;
    if (cin) {
        acc00 = _mm512_loadu_ps(cin + 0 * ldcin);
        acc01 = _mm512_loadu_ps(cin + 0 * ldcin + kNr);
        acc10 = _mm512_loadu_ps(cin + 1 * ldcin);
        acc11 = _mm512_loadu_ps(cin + 1 * ldcin + kNr);
        acc20 = _mm512_loadu_ps(cin + 2 * ldcin);
        acc21 = _mm512_loadu_ps(cin + 2 * ldcin + kNr);
        acc30 = _mm512_loadu_ps(cin + 3 * ldcin);
        acc31 = _mm512_loadu_ps(cin + 3 * ldcin + kNr);
        acc40 = _mm512_loadu_ps(cin + 4 * ldcin);
        acc41 = _mm512_loadu_ps(cin + 4 * ldcin + kNr);
        acc50 = _mm512_loadu_ps(cin + 5 * ldcin);
        acc51 = _mm512_loadu_ps(cin + 5 * ldcin + kNr);
    } else {
        acc00 = acc01 = acc10 = acc11 = acc20 = acc21 =
            _mm512_setzero_ps();
        acc30 = acc31 = acc40 = acc41 = acc50 = acc51 =
            _mm512_setzero_ps();
    }
    for (size_t kk = 0; kk < k; ++kk) {
        const __m512 b0 = _mm512_loadu_ps(pb0 + kk * kNr);
        const __m512 b1 = _mm512_loadu_ps(pb1 + kk * kNr);
        const float *av = pa + kk * kMr;
        __m512 ar;
        ar = _mm512_set1_ps(av[0]);
        acc00 = _mm512_fmadd_ps(ar, b0, acc00);
        acc01 = _mm512_fmadd_ps(ar, b1, acc01);
        ar = _mm512_set1_ps(av[1]);
        acc10 = _mm512_fmadd_ps(ar, b0, acc10);
        acc11 = _mm512_fmadd_ps(ar, b1, acc11);
        ar = _mm512_set1_ps(av[2]);
        acc20 = _mm512_fmadd_ps(ar, b0, acc20);
        acc21 = _mm512_fmadd_ps(ar, b1, acc21);
        ar = _mm512_set1_ps(av[3]);
        acc30 = _mm512_fmadd_ps(ar, b0, acc30);
        acc31 = _mm512_fmadd_ps(ar, b1, acc31);
        ar = _mm512_set1_ps(av[4]);
        acc40 = _mm512_fmadd_ps(ar, b0, acc40);
        acc41 = _mm512_fmadd_ps(ar, b1, acc41);
        ar = _mm512_set1_ps(av[5]);
        acc50 = _mm512_fmadd_ps(ar, b0, acc50);
        acc51 = _mm512_fmadd_ps(ar, b1, acc51);
    }
    _mm512_storeu_ps(cout + 0 * ldcout, acc00);
    _mm512_storeu_ps(cout + 0 * ldcout + kNr, acc01);
    _mm512_storeu_ps(cout + 1 * ldcout, acc10);
    _mm512_storeu_ps(cout + 1 * ldcout + kNr, acc11);
    _mm512_storeu_ps(cout + 2 * ldcout, acc20);
    _mm512_storeu_ps(cout + 2 * ldcout + kNr, acc21);
    _mm512_storeu_ps(cout + 3 * ldcout, acc30);
    _mm512_storeu_ps(cout + 3 * ldcout + kNr, acc31);
    _mm512_storeu_ps(cout + 4 * ldcout, acc40);
    _mm512_storeu_ps(cout + 4 * ldcout + kNr, acc41);
    _mm512_storeu_ps(cout + 5 * ldcout, acc50);
    _mm512_storeu_ps(cout + 5 * ldcout + kNr, acc51);
}

} // namespace detail
} // namespace vitality
