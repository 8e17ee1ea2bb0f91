/**
 * @file
 * AVX2+FMA GEMM backend: a 6x16 register-blocked microkernel over
 * packed operand panels, with kc cache-blocking and a fused epilogue,
 * plus the driver for the 6x32 AVX-512 tile (gemm_avx512.cpp).
 *
 * This translation unit is compiled with -mavx2 -mfma and is only ever
 * entered after Gemm's runtime CPUID check, so it may use the AVX2 ISA
 * freely (but no AVX-512 instruction: the zmm tile lives in its own
 * -mavx512f TU and is called only when CPUID reported avx512f). The
 * classic BLIS-style structure, sized for this workload
 * (attention-shaped GEMMs plus the DeiT MLP projections, k up to 3072):
 *
 *   - op(B) is packed one kc x 16 column-panel chunk at a time (two
 *     adjacent chunks per step when the zmm tile runs), op(A)
 *     into 6 x k row panels, both zero-padded to full panel width so the
 *     microkernel never needs a ragged edge case. Panels live in a
 *     thread-local Workspace arena through acquireAligned(), so packed
 *     data starts on 32-byte boundaries (the kNr = 16 panel stride then
 *     keeps every B-panel row aligned; the loads stay _mm256_loadu_ps
 *     because an aligned loadu costs the same as an aligned load on
 *     AVX2 hardware, while C-tile pointers are never alignment-
 *     guaranteed anyway). After the first call with a given shape
 *     profile the packing buffers are recycled and the steady state
 *     performs no heap allocations (matching the AttentionContext
 *     design).
 *   - The n dimension is processed in nc = 256 column blocks (16 kNr
 *     panels), outermost loop, and the k dimension in kc = 256 chunks
 *     inside each block. Within a block, one kc chunk of every packed
 *     A panel (a few hundred KB for a full 197-row band) stays
 *     L2-resident across the block's column-panel sweep, where an
 *     unbroken k sweep re-streamed megabytes of packed A per column
 *     panel at the DeiT-Base MLP shapes; and because every kc chunk of
 *     a block completes before the next block starts, the C partials
 *     that round-trip between chunks are one mBand x nc tile — at
 *     n >> cache shapes (the deep-N MLP transposes) the old
 *     block-free sweep re-streamed the whole mBand x n band per chunk.
 *     The round-trip through float32 memory is exact, and per element
 *     the accumulation is still one ascending-k sum regardless of the
 *     blocking (blocks partition columns; chunks run in ascending
 *     order within each), so results are bitwise-unchanged and the
 *     cross-backend tolerance contract in gemm.h holds as before.
 *   - The microkernel holds a 6x16 tile of C in twelve ymm accumulators
 *     (optionally initialized from the previous chunk's partials) and
 *     walks k in ascending order with two FMAs per row per step — the
 *     same per-element accumulation order as the scalar backend, so
 *     backends differ only by FMA rounding (see gemm.h).
 *   - With tileCols == 32 (fp32TileCols: CPUID reported avx512f), every
 *     full 6-row A panel that meets a full pair of adjacent B panels
 *     runs the 6x32 zmm tile instead: twelve zmm accumulators, one per
 *     row per panel, walking the same k range from the same seed. Each
 *     output element is therefore the same ascending-k FMA chain as
 *     under the ymm tile, and the finished tile goes through the same
 *     epilogueStoreTile (once per 16-column half), so the two tiles
 *     are bitwise-equal. Ragged rows, an odd last panel of an nc block
 *     and a partial panel fall back to the 6x16 tile.
 *   - Full tiles store straight to C; edge tiles go through a 6x16
 *     scratch tile and copy only the valid region, so C is never read
 *     or written out of bounds.
 *   - On the final kc chunk the Epilogue (row-broadcast bias, tanh
 *     GELU in registers, accumulate-into-C) is applied in the tile's
 *     write-back — one store pass instead of separate bias/activation/
 *     residual sweeps over the finished output. With an accumulate
 *     epilogue the inter-chunk partials are staged in a scratch band so
 *     the old C (the residual stream) survives until that final fused
 *     store.
 *
 * Only rows [rowBegin, rowEnd) of C are computed, so the dispatcher can
 * fan microkernel-aligned row bands across a thread pool; rowBegin is
 * always a multiple of the panel height.
 */

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/avx2_math.h"
#include "tensor/gemm.h"
#include "tensor/gemm_epilogue.h"
#include "tensor/gemm_pack.h"
#include "tensor/ops.h"
#include "tensor/transcendental.h"
#include "tensor/workspace.h"

namespace vitality {
namespace detail {

// Panel geometry (kMr, kNr, kKc, kNc) and the packAPanel/packBPanel
// helpers live in tensor/gemm_pack.h, shared with the weight-prepack
// path so both produce byte-identical panels. The vectorized
// polynomial GELU (geluApprox8) and its exp2/tanh cores live in
// tensor/avx2_math.h, shared with the int8 backend so both write-backs
// run the identical bitwise program.

/**
 * 8-lane twin of the scalar approx row softmax in tensor/ops.cpp
 * (which dispatches here when the AVX2 backend is active). Bitwise
 * equality with the scalar loop holds element by element: the max
 * reduction is exactly associative, the exp lanes run the shared
 * exp2 program (tails through the one scalar definition,
 * exp2CoreScalar), the denominator is accumulated scalar in index
 * order, and the normalize multiply is element-wise.
 */
void
softmaxRowsApproxAvx2(Matrix &dst, const Matrix &a)
{
    dst.resize(a.rows(), a.cols());
    const size_t n = a.cols();
    const __m256 vl2e = _mm256_set1_ps(kLog2e);
    for (size_t r = 0; r < a.rows(); ++r) {
        const float *in = a.rowPtr(r);
        float *out = dst.rowPtr(r);

        float maxv;
        size_t c;
        if (n >= 8) {
            __m256 vmax = _mm256_loadu_ps(in);
            for (c = 8; c + 8 <= n; c += 8)
                vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(in + c));
            __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                                  _mm256_extractf128_ps(vmax, 1));
            m = _mm_max_ps(m, _mm_movehl_ps(m, m));
            m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
            maxv = _mm_cvtss_f32(m);
        } else {
            maxv = in[0];
            c = 1;
        }
        for (; c < n; ++c)
            maxv = std::max(maxv, in[c]);

        const __m256 vmaxb = _mm256_set1_ps(maxv);
        size_t e = 0;
        for (; e + 8 <= n; e += 8) {
            const __m256 z = _mm256_mul_ps(
                _mm256_sub_ps(_mm256_loadu_ps(in + e), vmaxb), vl2e);
            _mm256_storeu_ps(out + e, exp2Core8(z));
        }
        for (; e < n; ++e)
            out[e] = exp2CoreScalar((in[e] - maxv) * kLog2e);

        float denom = 0.0f;
        for (size_t j = 0; j < n; ++j)
            denom += out[j];
        const float inv = 1.0f / denom;
        const __m256 vinv = _mm256_set1_ps(inv);
        size_t j = 0;
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(
                out + j, _mm256_mul_ps(_mm256_loadu_ps(out + j), vinv));
        for (; j < n; ++j)
            out[j] *= inv;
    }
}

/**
 * 8-lane twin of the scalar layerNormRowsInto loop in tensor/ops.cpp
 * (which dispatches here when the AVX2 backend is active), over rows
 * [r0, r1) so the caller can band rows across the pool. The mean and
 * variance sums run the documented lane-grouped order — one ymm
 * accumulator over the whole 8-column groups, the pairwise fold
 * ((0+4) + (2+6)) + ((1+5) + (3+7)), then the tail in order — and the
 * normalize pass is element-wise, so every element equals the scalar
 * loop's bit for bit.
 */
void
layerNormRowsAvx2(Matrix &dst, const Matrix &a, const Matrix &gamma,
                  const Matrix &beta, float eps, size_t r0, size_t r1)
{
    const size_t n = a.cols();
    const float inv_n = 1.0f / static_cast<float>(n);
    const float *grow = gamma.rowPtr(0);
    const float *brow = beta.rowPtr(0);
    const auto fold = [](__m256 v) {
        __m128 m = _mm_add_ps(_mm256_castps256_ps128(v),
                              _mm256_extractf128_ps(v, 1));
        m = _mm_add_ps(m, _mm_movehl_ps(m, m));
        m = _mm_add_ss(m, _mm_shuffle_ps(m, m, 1));
        return _mm_cvtss_f32(m);
    };
    for (size_t r = r0; r < r1; ++r) {
        const float *in = a.rowPtr(r);
        float *out = dst.rowPtr(r);

        __m256 acc = _mm256_setzero_ps();
        size_t c = 0;
        for (; c + 8 <= n; c += 8)
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(in + c));
        float sum = fold(acc);
        for (; c < n; ++c)
            sum += in[c];
        const float mean_r = sum * inv_n;

        const __m256 vmean = _mm256_set1_ps(mean_r);
        acc = _mm256_setzero_ps();
        for (c = 0; c + 8 <= n; c += 8) {
            const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(in + c), vmean);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        float sq = fold(acc);
        for (; c < n; ++c) {
            const float d = in[c] - mean_r;
            sq += d * d;
        }
        const float var_r = sq * inv_n;
        const float inv_std = 1.0f / std::sqrt(var_r + eps);

        const __m256 vinv = _mm256_set1_ps(inv_std);
        for (c = 0; c + 8 <= n; c += 8) {
            const __m256 t = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(in + c), vmean),
                              vinv),
                _mm256_loadu_ps(grow + c));
            _mm256_storeu_ps(out + c,
                             _mm256_add_ps(t, _mm256_loadu_ps(brow + c)));
        }
        for (; c < n; ++c)
            out[c] = (in[c] - mean_r) * inv_std * grow[c] + brow[c];
    }
}

/** 8-lane |max| reduction; max is exactly associative, so this equals
 * the scalar loop in ops.cpp for any lane grouping. */
float
maxAbsAvx2(const float *data, size_t count)
{
    const __m256 absMask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 vbest = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= count; i += 8)
        vbest = _mm256_max_ps(
            vbest, _mm256_and_ps(_mm256_loadu_ps(data + i), absMask));
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(vbest),
                          _mm256_extractf128_ps(vbest, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    float best = _mm_cvtss_f32(m);
    for (; i < count; ++i)
        best = std::max(best, std::fabs(data[i]));
    return best;
}

/**
 * 8-lane twin of the quantizer loop in sparse/predictor.cpp:
 * dst[i] = (src[i] * inv_step rounded to nearest-even) * step, the
 * magic-number rounding as two float adds. Lane program identical to
 * the scalar fallback, so quantized values are backend-independent.
 */
void
quantizeRowAvx2(float *dst, const float *src, size_t count,
                float inv_step, float step)
{
    const __m256 vinv = _mm256_set1_ps(inv_step);
    const __m256 vstep = _mm256_set1_ps(step);
    const __m256 vmagic = _mm256_set1_ps(kRoundMagic);
    size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        const __m256 x = _mm256_loadu_ps(src + i);
        const __m256 q = _mm256_sub_ps(
            _mm256_add_ps(_mm256_mul_ps(x, vinv), vmagic), vmagic);
        _mm256_storeu_ps(dst + i, _mm256_mul_ps(q, vstep));
    }
    for (; i < count; ++i) {
        const float q = (src[i] * inv_step + kRoundMagic) - kRoundMagic;
        dst[i] = q * step;
    }
}

#if VITALITY_HAVE_AVX512
// Defined in gemm_avx512.cpp, compiled with -mavx512f -mfma. Reached
// only with tileCols == 32, which the dispatcher passes only after its
// CPUID check reported avx512f (detail::fp32TileCols).
void microKernel6x32Avx512(size_t k, const float *pa, const float *pb0,
                           const float *pb1, const float *cin,
                           size_t ldcin, float *cout, size_t ldcout);
#endif

namespace {

/**
 * cout[0:6, 0:16] = (cin ? cin : 0) + A-panel * B-panel over k steps.
 * cin carries the previous kc chunk's partial sums (row stride ldcin);
 * the raw result is stored to cout (row stride ldcout). cin may equal
 * cout: every load happens before the first store. Twelve ymm
 * accumulators, k ascending, FMA per step.
 */
void
microKernel6x16(size_t k, const float *pa, const float *pb,
                const float *cin, size_t ldcin, float *cout,
                size_t ldcout)
{
    __m256 acc00, acc01, acc10, acc11, acc20, acc21;
    __m256 acc30, acc31, acc40, acc41, acc50, acc51;
    if (cin) {
        acc00 = _mm256_loadu_ps(cin + 0 * ldcin);
        acc01 = _mm256_loadu_ps(cin + 0 * ldcin + 8);
        acc10 = _mm256_loadu_ps(cin + 1 * ldcin);
        acc11 = _mm256_loadu_ps(cin + 1 * ldcin + 8);
        acc20 = _mm256_loadu_ps(cin + 2 * ldcin);
        acc21 = _mm256_loadu_ps(cin + 2 * ldcin + 8);
        acc30 = _mm256_loadu_ps(cin + 3 * ldcin);
        acc31 = _mm256_loadu_ps(cin + 3 * ldcin + 8);
        acc40 = _mm256_loadu_ps(cin + 4 * ldcin);
        acc41 = _mm256_loadu_ps(cin + 4 * ldcin + 8);
        acc50 = _mm256_loadu_ps(cin + 5 * ldcin);
        acc51 = _mm256_loadu_ps(cin + 5 * ldcin + 8);
    } else {
        acc00 = acc01 = acc10 = acc11 = acc20 = acc21 =
            _mm256_setzero_ps();
        acc30 = acc31 = acc40 = acc41 = acc50 = acc51 =
            _mm256_setzero_ps();
    }
    for (size_t kk = 0; kk < k; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(pb + kk * kNr);
        const __m256 b1 = _mm256_loadu_ps(pb + kk * kNr + 8);
        const float *av = pa + kk * kMr;
        __m256 ar;
        ar = _mm256_broadcast_ss(av + 0);
        acc00 = _mm256_fmadd_ps(ar, b0, acc00);
        acc01 = _mm256_fmadd_ps(ar, b1, acc01);
        ar = _mm256_broadcast_ss(av + 1);
        acc10 = _mm256_fmadd_ps(ar, b0, acc10);
        acc11 = _mm256_fmadd_ps(ar, b1, acc11);
        ar = _mm256_broadcast_ss(av + 2);
        acc20 = _mm256_fmadd_ps(ar, b0, acc20);
        acc21 = _mm256_fmadd_ps(ar, b1, acc21);
        ar = _mm256_broadcast_ss(av + 3);
        acc30 = _mm256_fmadd_ps(ar, b0, acc30);
        acc31 = _mm256_fmadd_ps(ar, b1, acc31);
        ar = _mm256_broadcast_ss(av + 4);
        acc40 = _mm256_fmadd_ps(ar, b0, acc40);
        acc41 = _mm256_fmadd_ps(ar, b1, acc41);
        ar = _mm256_broadcast_ss(av + 5);
        acc50 = _mm256_fmadd_ps(ar, b0, acc50);
        acc51 = _mm256_fmadd_ps(ar, b1, acc51);
    }
    _mm256_storeu_ps(cout + 0 * ldcout, acc00);
    _mm256_storeu_ps(cout + 0 * ldcout + 8, acc01);
    _mm256_storeu_ps(cout + 1 * ldcout, acc10);
    _mm256_storeu_ps(cout + 1 * ldcout + 8, acc11);
    _mm256_storeu_ps(cout + 2 * ldcout, acc20);
    _mm256_storeu_ps(cout + 2 * ldcout + 8, acc21);
    _mm256_storeu_ps(cout + 3 * ldcout, acc30);
    _mm256_storeu_ps(cout + 3 * ldcout + 8, acc31);
    _mm256_storeu_ps(cout + 4 * ldcout, acc40);
    _mm256_storeu_ps(cout + 4 * ldcout + 8, acc41);
    _mm256_storeu_ps(cout + 5 * ldcout, acc50);
    _mm256_storeu_ps(cout + 5 * ldcout + 8, acc51);
}

/**
 * The fused write-back: push the finished raw-product tile (row stride
 * ldt: kNr for a 6x16 tile, 2 * kNr for either half of a 6x32 one)
 * through the epilogue into dst. Full-width tiles take the vectorized
 * path; ragged edges go through the shared scalar helper
 * (gemm_epilogue.h). The two
 * agree bitwise because a vector float add is the same rounding as a
 * scalar float add lane by lane — the vector path is the one
 * intentional second copy of the canonical element order. The GELU
 * runs in registers (geluApprox8), whose lanes are bitwise-equal to
 * geluScalar by construction.
 */
void
epilogueStoreTile(const float *tile, size_t ldt, Matrix &dst, size_t i0,
                  size_t j0, size_t mEff, size_t nEff,
                  const Gemm::Epilogue &ep)
{
    const float *bias = ep.bias ? ep.bias->rowPtr(0) + j0 : nullptr;
    if (nEff == kNr) {
        __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
        if (bias) {
            b0 = _mm256_loadu_ps(bias);
            b1 = _mm256_loadu_ps(bias + 8);
        }
        for (size_t r = 0; r < mEff; ++r) {
            const float *src = tile + r * ldt;
            __m256 v0 = _mm256_loadu_ps(src);
            __m256 v1 = _mm256_loadu_ps(src + 8);
            if (bias) {
                v0 = _mm256_add_ps(v0, b0);
                v1 = _mm256_add_ps(v1, b1);
            }
            if (ep.act == Gemm::Epilogue::Act::Gelu) {
                v0 = geluApprox8(v0);
                v1 = geluApprox8(v1);
            }
            float *out = dst.rowPtr(i0 + r) + j0;
            if (ep.accumulate) {
                v0 = _mm256_add_ps(_mm256_loadu_ps(out), v0);
                v1 = _mm256_add_ps(_mm256_loadu_ps(out + 8), v1);
            }
            _mm256_storeu_ps(out, v0);
            _mm256_storeu_ps(out + 8, v1);
        }
        return;
    }
    for (size_t r = 0; r < mEff; ++r)
        epilogueApplyRow(dst.rowPtr(i0 + r) + j0, tile + r * ldt, bias,
                         nEff, ep.accumulate, ep.act);
}

} // namespace

void
gemmAvx2(Matrix &dst, const Matrix &a, const Matrix &b, Gemm::Trans trans,
         size_t rowBegin, size_t rowEnd, const Gemm::Epilogue &ep,
         const float *packedB, size_t tileCols)
{
    const size_t n = dst.cols();
    const size_t k = trans == Gemm::Trans::A ? a.rows() : a.cols();
    const size_t mBand = rowEnd - rowBegin;
    const size_t mPanels = (mBand + kMr - 1) / kMr;
    const size_t nPanels = (n + kNr - 1) / kNr;
    const size_t chunks = (k + kKc - 1) / kKc;
    // B panels one step of the column sweep covers: 2 when the zmm tile
    // pairs adjacent panels, else 1.
#if VITALITY_HAVE_AVX512
    const size_t stepPanels = tileCols / kNr;
#else
    (void)tileCols;
    const size_t stepPanels = 1;
#endif
    const size_t kcMax = std::min(k, kKc);

    // Gemm-private packing arena: per worker thread, recycled across
    // calls, so hot-path multiplies allocate nothing in steady state.
    // op(A) is packed whole (each kc chunk of it is swept once per B
    // step); op(B) is packed one kc x kNr chunk per panel of the step —
    // unless the caller supplies prepacked full-k panels (packedB, jp
    // stride k * kNr), in which case the pack loop is skipped and the
    // microkernels read the [k0, k1) slice at packedB + jp * k * kNr +
    // k0 * kNr, byte-identical to what packBPanel would have written.
    // The per-call B panels start on a cache line, as PackedMatrix
    // panels do, so no zmm row load splits a line.
    static thread_local Workspace tls;
    Workspace::Frame frame(tls);
    float *packedA = tls.acquireAligned(mPanels * k * kMr);
    float *pb = packedB ? nullptr
                        : tls.acquireAligned(stepPanels * kcMax * kNr, 64);
    float *tile = tls.acquireAligned(kMr * stepPanels * kNr);
    // With an accumulate epilogue the old C must survive until the
    // fused store of the last chunk, so inter-chunk partials live in a
    // scratch band instead of dst.
    float *partial = (ep.accumulate && chunks > 1)
                         ? tls.acquireAligned(mBand * n)
                         : nullptr;
    // Raw-product row r (global index) of the partial storage.
    const auto prow = [&](size_t r) -> float * {
        return partial ? partial + (r - rowBegin) * n : dst.rowPtr(r);
    };

    for (size_t ip = 0; ip < mPanels; ++ip) {
        const size_t i0 = rowBegin + ip * kMr;
        packAPanel(packedA + ip * k * kMr, a, trans, i0,
                   std::min(kMr, rowEnd - i0), k);
    }

    // One 6x16 tile: A panel ip against B panel jp (packed at pbp),
    // over the kc chunk [k0, k1). Handles ragged rows and columns.
    const auto ymmTile = [&](size_t ip, size_t jp, const float *pbp,
                             size_t chunk, size_t k0, size_t k1,
                             bool fuse) {
        const size_t i0 = rowBegin + ip * kMr;
        const size_t mEff = std::min(kMr, rowEnd - i0);
        const size_t j0 = jp * kNr;
        const size_t nEff = std::min(kNr, n - j0);
        const float *pa = packedA + ip * k * kMr + k0 * kMr;
        const bool fullTile = mEff == kMr && nEff == kNr;

        const float *cin = nullptr;
        size_t ldcin = n;
        if (chunk > 0) {
            if (fullTile) {
                cin = prow(i0) + j0;
            } else {
                // Stage the valid region so the microkernel never reads
                // past a ragged edge; the padded lanes hold garbage that
                // only ever feeds discarded lanes.
                for (size_t r = 0; r < mEff; ++r)
                    std::memcpy(tile + r * kNr, prow(i0 + r) + j0,
                                nEff * sizeof(float));
                cin = tile;
                ldcin = kNr;
            }
        }

        if (!fuse && fullTile) {
            microKernel6x16(k1 - k0, pa, pbp, cin, ldcin, prow(i0) + j0,
                            n);
            return;
        }
        microKernel6x16(k1 - k0, pa, pbp, cin, ldcin, tile, kNr);
        if (fuse) {
            epilogueStoreTile(tile, kNr, dst, i0, j0, mEff, nEff, ep);
        } else {
            // Ragged edge: copy only the valid region so C is never
            // written out of bounds.
            for (size_t r = 0; r < mEff; ++r)
                std::memcpy(prow(i0 + r) + j0, tile + r * kNr,
                            nEff * sizeof(float));
        }
    };

    // nc column blocks outermost, kc chunks inside: all of a block's
    // chunks finish before the next block starts, so inter-chunk C
    // partials stay one mBand x kNc tile, and within a chunk one kc
    // slice of all packed A panels stays cache-resident across the
    // block's column-panel sweep.
    constexpr size_t kNcPanels = kNc / kNr;
    static_assert(kNc % (2 * kNr) == 0,
                  "column block must be whole panel pairs");
    for (size_t jcBegin = 0; jcBegin < nPanels; jcBegin += kNcPanels) {
      const size_t jcEnd = std::min(jcBegin + kNcPanels, nPanels);
      for (size_t chunk = 0; chunk < chunks; ++chunk) {
        const size_t k0 = chunk * kKc;
        const size_t k1 = std::min(k0 + kKc, k);
        // The last chunk of a non-trivial epilogue goes through the
        // fused store; earlier chunks park raw partials.
        const bool fuse = chunk + 1 == chunks && !ep.trivial();
        for (size_t jp = jcBegin; jp < jcEnd;) {
            // The zmm tile takes two adjacent full-width panels; an odd
            // last panel or a ragged one steps alone.
            const size_t step =
                stepPanels == 2 && jp + 1 < jcEnd && (jp + 2) * kNr <= n
                    ? 2
                    : 1;
            const float *pbp[2] = {nullptr, nullptr};
            for (size_t h = 0; h < step; ++h) {
                const size_t j0 = (jp + h) * kNr;
                if (packedB) {
                    pbp[h] = packedB + (jp + h) * k * kNr + k0 * kNr;
                } else {
                    float *panel = pb + h * kcMax * kNr;
                    packBPanel(panel, b, trans, j0, std::min(kNr, n - j0),
                               k0, k1);
                    pbp[h] = panel;
                }
            }
            for (size_t ip = 0; ip < mPanels; ++ip) {
#if VITALITY_HAVE_AVX512
                const size_t i0 = rowBegin + ip * kMr;
                if (step == 2 && rowEnd - i0 >= kMr) {
                    // Full 6-row panel against a full pair: one 6x32
                    // zmm tile, the same per-element FMA chains as the
                    // two 6x16 tiles it replaces.
                    const size_t j0 = jp * kNr;
                    const float *pa = packedA + ip * k * kMr + k0 * kMr;
                    const float *cin = chunk > 0 ? prow(i0) + j0 : nullptr;
                    if (!fuse) {
                        microKernel6x32Avx512(k1 - k0, pa, pbp[0], pbp[1],
                                              cin, n, prow(i0) + j0, n);
                    } else {
                        microKernel6x32Avx512(k1 - k0, pa, pbp[0], pbp[1],
                                              cin, n, tile, 2 * kNr);
                        epilogueStoreTile(tile, 2 * kNr, dst, i0, j0, kMr,
                                          kNr, ep);
                        epilogueStoreTile(tile + kNr, 2 * kNr, dst, i0,
                                          j0 + kNr, kMr, kNr, ep);
                    }
                    continue;
                }
#endif
                for (size_t h = 0; h < step; ++h)
                    ymmTile(ip, jp + h, pbp[h], chunk, k0, k1, fuse);
            }
            jp += step;
        }
      }
    }
}

} // namespace detail
} // namespace vitality
