/**
 * @file
 * GEMM backend tests: exhaustive scalar-vs-AVX2 parity over ragged
 * shapes and every transpose mode against a float64 reference under the
 * documented tolerance (gemm.h), deep-K shapes through the AVX2 kc
 * cache-blocking, fused-epilogue bitwise parity against the unfused op
 * sequence for every {accumulate, bias, gelu} combination on both
 * backends (including K=3072), epilogue validation rules, dispatcher
 * plumbing (env parsing, availability, explicit-backend calls),
 * aliasing and zero-dimension rules, destination recycling, and
 * cross-backend parity of the whole batched multi-head forward.
 *
 * The AVX2 legs are skipped (with a notice) when the backend is not
 * available — scalar-only builds and non-AVX2 hosts still run the
 * scalar and plumbing checks, so the fallback is tested everywhere.
 */

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attention/zoo.h"
#include "base/check.h"
#include "base/rng.h"
#include "runtime/multi_head_attention.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/gemm_pack.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/packed_weights.h"
#include "tensor/ragged_batch.h"
#include "testing.h"

using namespace vitality;

namespace {

bool
avx2Here()
{
    return Gemm::available(Gemm::Backend::Avx2);
}

/** op(A) element under the given transpose mode. */
float
opA(const Matrix &a, Gemm::Trans trans, size_t i, size_t kk)
{
    return trans == Gemm::Trans::A ? a(kk, i) : a(i, kk);
}

float
opB(const Matrix &b, Gemm::Trans trans, size_t kk, size_t j)
{
    return trans == Gemm::Trans::B ? b(j, kk) : b(kk, j);
}

/** Build the (A, B) operand pair whose op()-shapes are m x k and k x n. */
void
makeOperands(Matrix &a, Matrix &b, Gemm::Trans trans, size_t m, size_t n,
             size_t k, Rng &rng)
{
    a = trans == Gemm::Trans::A ? Matrix::randn(k, m, rng)
                                : Matrix::randn(m, k, rng);
    b = trans == Gemm::Trans::B ? Matrix::randn(n, k, rng)
                                : Matrix::randn(k, n, rng);
}

const char *
transName(Gemm::Trans trans)
{
    switch (trans) {
    case Gemm::Trans::None:
        return "AB";
    case Gemm::Trans::A:
        return "AtB";
    case Gemm::Trans::B:
        return "ABt";
    }
    return "?";
}

/**
 * Check one backend's result against the float64 reference under the
 * documented per-element bound |err| <= k * eps * sum_k |a| * |b| (see
 * gemm.h; the factor 2 leaves room for the reference's own rounding).
 * Returns the number of out-of-tolerance elements.
 */
size_t
checkAgainstRef(const Matrix &c, const Matrix &a, const Matrix &b,
                Gemm::Trans trans, size_t m, size_t n, size_t k)
{
    const float eps = std::numeric_limits<float>::epsilon();
    size_t bad = 0;
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double ref = 0.0, absdot = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                const double av = opA(a, trans, i, kk);
                const double bv = opB(b, trans, kk, j);
                ref += av * bv;
                absdot += std::fabs(av * bv);
            }
            const double tol =
                2.0 * static_cast<double>(k + 1) * eps * absdot + 1e-7;
            if (std::fabs(c(i, j) - ref) > tol)
                ++bad;
        }
    }
    return bad;
}

void
testExhaustiveShapeParity()
{
    // Odd / ragged sizes straddle every microkernel boundary: below one
    // 6-row panel, below one 16-col panel, exact multiples, and the
    // DeiT token count 197 (= 12*16+5 cols, 32*6+5 rows).
    const std::vector<size_t> sizes = {1, 2, 3, 5, 8, 17, 64, 197};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e44);
    Matrix a, b, cScalar, cAvx2;
    size_t combos = 0;
    for (Gemm::Trans trans : modes) {
        for (size_t m : sizes) {
            for (size_t n : sizes) {
                for (size_t k : sizes) {
                    makeOperands(a, b, trans, m, n, k, rng);
                    Gemm::multiply(cScalar, a, b, trans,
                                   Gemm::Backend::Scalar);
                    T_CHECK(cScalar.rows() == m && cScalar.cols() == n);
                    size_t bad =
                        checkAgainstRef(cScalar, a, b, trans, m, n, k);
                    if (bad != 0) {
                        std::printf(
                            "  scalar %s m=%zu n=%zu k=%zu: %zu elems "
                            "out of tolerance\n",
                            transName(trans), m, n, k, bad);
                        T_CHECK(bad == 0);
                    }
                    if (avx2Here()) {
                        Gemm::multiply(cAvx2, a, b, trans,
                                       Gemm::Backend::Avx2);
                        T_CHECK(cAvx2.rows() == m && cAvx2.cols() == n);
                        bad = checkAgainstRef(cAvx2, a, b, trans, m, n, k);
                        if (bad != 0) {
                            std::printf(
                                "  avx2 %s m=%zu n=%zu k=%zu: %zu elems "
                                "out of tolerance\n",
                                transName(trans), m, n, k, bad);
                            T_CHECK(bad == 0);
                        }
                    }
                    ++combos;
                }
            }
        }
    }
    std::printf("  %zu shape/transpose combos checked (avx2 %s)\n",
                combos, avx2Here() ? "on" : "absent, scalar only");
}

void
testDispatcherPlumbing()
{
    // Scalar is always available; the active backend is always valid.
    T_CHECK(Gemm::available(Gemm::Backend::Scalar));
    const Gemm::Backend act = Gemm::active();
    T_CHECK(act == Gemm::Backend::Scalar || act == Gemm::Backend::Avx2);
    T_CHECK(Gemm::available(act));

    T_CHECK(Gemm::parseBackend("scalar") == Gemm::Backend::Scalar);
    T_CHECK(Gemm::parseBackend("avx2") == Gemm::Backend::Avx2);
    T_CHECK(!Gemm::parseBackend("sse9").has_value());
    T_CHECK(!Gemm::parseBackend("").has_value());

    T_CHECK(std::string(Gemm::backendName(Gemm::Backend::Scalar)) ==
            "scalar");
    T_CHECK(std::string(Gemm::backendName(Gemm::Backend::Avx2)) == "avx2");

    // The tile name follows the backend and the fp32 tile width; the
    // width hook takes only the two tile widths (or 0, the CPUID pick).
    T_CHECK(std::string(Gemm::tileName(Gemm::Backend::Scalar)) ==
            "scalar");
    const size_t cols = detail::fp32TileCols();
    T_CHECK(cols == detail::kNr || cols == 2 * detail::kNr);
    T_CHECK(std::string(Gemm::tileName(Gemm::Backend::Avx2)) ==
            (cols == 2 * detail::kNr ? "6x32z" : "6x16y"));
    detail::setFp32TileCols(detail::kNr);
    T_CHECK(std::string(Gemm::tileName(Gemm::Backend::Avx2)) == "6x16y");
    T_CHECK_THROWS(detail::setFp32TileCols(8), std::invalid_argument);
    T_CHECK_THROWS(detail::setFp32TileCols(64), std::invalid_argument);
    detail::setFp32TileCols(0);
    T_CHECK(detail::fp32TileCols() == cols);
    if (!avx2Here())
        T_CHECK_THROWS(detail::setFp32TileCols(2 * detail::kNr),
                       std::invalid_argument);

    // setActive round-trips, and restores cleanly.
    Gemm::setActive(Gemm::Backend::Scalar);
    T_CHECK(Gemm::active() == Gemm::Backend::Scalar);
    if (avx2Here()) {
        Gemm::setActive(Gemm::Backend::Avx2);
        T_CHECK(Gemm::active() == Gemm::Backend::Avx2);
    } else {
        // Explicitly requesting an unavailable backend throws rather
        // than silently running the wrong code.
        T_CHECK_THROWS(Gemm::setActive(Gemm::Backend::Avx2),
                       std::invalid_argument);
        Matrix d;
        const Matrix a = Matrix::ones(2, 2);
        T_CHECK_THROWS(Gemm::multiply(d, a, a, Gemm::Trans::None,
                                      Gemm::Backend::Avx2),
                       std::invalid_argument);
    }
    Gemm::setActive(act);
}

void
testAliasingAndShapeRules()
{
    Rng rng(0x11);
    Matrix a = Matrix::randn(5, 3, rng);
    Matrix b = Matrix::randn(3, 7, rng);

    // dst must not alias an input, in any transpose mode or wrapper.
    T_CHECK_THROWS(Gemm::multiply(a, a, b), std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(b, a, b), std::invalid_argument);
    T_CHECK_THROWS(matmulInto(a, a, b), std::invalid_argument);
    Matrix bt = transpose(b);
    T_CHECK_THROWS(matmulBTInto(bt, a, bt), std::invalid_argument);
    Matrix at = transpose(a);
    T_CHECK_THROWS(matmulATInto(at, at, b), std::invalid_argument);

    // Shape mismatches throw for every mode.
    Matrix d;
    T_CHECK_THROWS(Gemm::multiply(d, a, a, Gemm::Trans::None),
                   std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::A),
                   std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::B),
                   std::invalid_argument);
}

void
testZeroDimsAndRecycling()
{
    Rng rng(0x22);
    Matrix d;

    // k = 0: a well-defined all-zero product.
    const Matrix a0(4, 0);
    const Matrix b0(0, 6);
    Gemm::multiply(d, a0, b0);
    T_CHECK(d.rows() == 4 && d.cols() == 6);
    T_CHECK(maxAbs(d) == 0.0f);

    // m = 0 / n = 0: empty results with the right shape.
    Gemm::multiply(d, Matrix(0, 3), Matrix(3, 5));
    T_CHECK(d.rows() == 0 && d.cols() == 5);
    Gemm::multiply(d, Matrix(3, 4), Matrix(4, 0));
    T_CHECK(d.rows() == 3 && d.cols() == 0);

    // The destination recycles across shape changes (larger, smaller,
    // ragged) and every fill is complete — no stale entries survive.
    Matrix big = Matrix::randn(33, 17, rng);
    Matrix small = Matrix::randn(17, 2, rng);
    Gemm::multiply(d, big, small);
    T_CHECK(d.rows() == 33 && d.cols() == 2);
    Matrix oneone = Matrix::full(1, 1, 3.0f);
    Gemm::multiply(d, oneone, oneone);
    T_CHECK(d.rows() == 1 && d.cols() == 1);
    T_CHECK_CLOSE(d(0, 0), 9.0f, 1e-6);
}

/**
 * Deep-K shapes drive the AVX2 backend through its kc cache-blocking
 * (chunks of 256): partial sums round-trip through float32 memory
 * between chunks, which is exact, so the documented tolerance against
 * the float64 reference must hold unchanged. K values straddle the
 * chunk boundary (256, 257, 517 = 2 chunks + remainder, 3072 = the
 * DeiT-Base MLP depth).
 */
void
testDeepKCacheBlocking()
{
    struct Shape
    {
        size_t m, n, k;
    };
    const std::vector<Shape> shapes = {
        {7, 17, 3072}, {19, 33, 517}, {64, 16, 256}, {6, 16, 257}};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e55);
    Matrix a, b, c;
    for (const Shape &s : shapes) {
        for (Gemm::Trans trans : modes) {
            makeOperands(a, b, trans, s.m, s.n, s.k, rng);
            for (Gemm::Backend backend :
                 {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
                if (backend == Gemm::Backend::Avx2 && !avx2Here())
                    continue;
                Gemm::multiply(c, a, b, trans, backend);
                const size_t bad =
                    checkAgainstRef(c, a, b, trans, s.m, s.n, s.k);
                if (bad != 0) {
                    std::printf("  %s %s m=%zu n=%zu k=%zu: %zu elems "
                                "out of tolerance\n",
                                Gemm::backendName(backend),
                                transName(trans), s.m, s.n, s.k, bad);
                    T_CHECK(bad == 0);
                }
            }
        }
    }
}

/**
 * Shapes with n far past the 256-column block width (and ragged block
 * edges) exercise the AVX2 backend's nc-blocking the way deep-k shapes
 * exercise its kc chunking; the blocking must be invisible in the
 * results. The n > 256 x k > 256 shape runs both blockings at once.
 */
void
testDeepNCacheBlocking()
{
    struct Shape
    {
        size_t m, n, k;
    };
    const std::vector<Shape> shapes = {
        {7, 3072, 64}, {19, 517, 33}, {6, 256, 16}, {17, 300, 8},
        {13, 516, 517}};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e56);
    Matrix a, b, c;
    for (const Shape &s : shapes) {
        for (Gemm::Trans trans : modes) {
            makeOperands(a, b, trans, s.m, s.n, s.k, rng);
            for (Gemm::Backend backend :
                 {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
                if (backend == Gemm::Backend::Avx2 && !avx2Here())
                    continue;
                Gemm::multiply(c, a, b, trans, backend);
                const size_t bad =
                    checkAgainstRef(c, a, b, trans, s.m, s.n, s.k);
                if (bad != 0) {
                    std::printf("  %s %s m=%zu n=%zu k=%zu: %zu elems "
                                "out of tolerance\n",
                                Gemm::backendName(backend),
                                transName(trans), s.m, s.n, s.k, bad);
                    T_CHECK(bad == 0);
                }
            }
        }
    }
}

/**
 * Apply ep to a finished plain product the way the separate op passes
 * would: bias pass, activation pass, residual add. The fused write-back
 * documents exactly this element order, so fused results must match
 * this reference bitwise on the same backend.
 */
void
unfusedReference(Matrix &dst, const Matrix &a, const Matrix &b,
                 Gemm::Trans trans, const Gemm::Epilogue &ep,
                 Gemm::Backend backend)
{
    Matrix product;
    Gemm::multiply(product, a, b, trans, backend);
    if (ep.bias)
        broadcastAddRowInto(product, product, *ep.bias);
    if (ep.act == Gemm::Epilogue::Act::Gelu)
        geluInto(product, product);
    if (ep.accumulate)
        addInto(dst, dst, product);
    else
        dst.copyFrom(product);
}

void
testFusedEpilogueParity()
{
    struct Shape
    {
        size_t m, n, k;
    };
    // Ragged shapes straddling every microkernel boundary, one exact
    // 6x16 tile, the attention shape, and a kc-blocked K=3072 (the
    // DeiT-Base MLP down-projection depth).
    const std::vector<Shape> shapes = {
        {1, 1, 1}, {5, 7, 3}, {6, 16, 64}, {197, 64, 197}, {13, 35, 3072}};
    const std::vector<Gemm::Trans> modes = {
        Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B};

    Rng rng(0x6e66);
    Matrix a, b, fused, ref, fusedViaMode;
    // Pin Fused here (the mode the fused side of each comparison needs)
    // and restore the run's mode (possibly the env override under test,
    // e.g. VITALITY_EPILOGUE=unfused) at the end.
    const Gemm::EpilogueMode modeBefore = Gemm::epilogueMode();
    Gemm::setEpilogueMode(Gemm::EpilogueMode::Fused);
    size_t combos = 0;
    for (const Shape &s : shapes) {
        for (Gemm::Trans trans : modes) {
            makeOperands(a, b, trans, s.m, s.n, s.k, rng);
            const Matrix bias = Matrix::randn(1, s.n, rng);
            const Matrix init = Matrix::randn(s.m, s.n, rng);
            for (int acc = 0; acc < 2; ++acc) {
                for (int withBias = 0; withBias < 2; ++withBias) {
                    for (int withGelu = 0; withGelu < 2; ++withGelu) {
                        Gemm::Epilogue ep;
                        ep.accumulate = acc != 0;
                        ep.bias = withBias ? &bias : nullptr;
                        ep.act = withGelu ? Gemm::Epilogue::Act::Gelu
                                          : Gemm::Epilogue::Act::None;
                        for (Gemm::Backend backend :
                             {Gemm::Backend::Scalar,
                              Gemm::Backend::Avx2}) {
                            if (backend == Gemm::Backend::Avx2 &&
                                !avx2Here())
                                continue;
                            fused.copyFrom(init);
                            Gemm::multiply(fused, a, b, trans, ep,
                                           backend);
                            ref.copyFrom(init);
                            unfusedReference(ref, a, b, trans, ep,
                                             backend);
                            if (fused != ref) {
                                std::printf(
                                    "  %s %s m=%zu n=%zu k=%zu "
                                    "acc=%d bias=%d gelu=%d: fused != "
                                    "unfused (max diff %g)\n",
                                    Gemm::backendName(backend),
                                    transName(trans), s.m, s.n, s.k,
                                    acc, withBias, withGelu,
                                    static_cast<double>(
                                        maxAbsDiff(fused, ref)));
                                T_CHECK(fused == ref);
                            }
                            // The unfused *mode* (the VITALITY_EPILOGUE
                            // fallback) is bitwise-identical too.
                            Gemm::setEpilogueMode(
                                Gemm::EpilogueMode::Unfused);
                            fusedViaMode.copyFrom(init);
                            Gemm::multiply(fusedViaMode, a, b, trans,
                                           ep, backend);
                            Gemm::setEpilogueMode(
                                Gemm::EpilogueMode::Fused);
                            T_CHECK(fusedViaMode == fused);
                            ++combos;
                        }
                    }
                }
            }
        }
    }
    Gemm::setEpilogueMode(modeBefore);
    std::printf("  %zu fused-epilogue combos checked (avx2 %s)\n", combos,
                avx2Here() ? "on" : "absent, scalar only");
}

/**
 * The GELU epilogue (Act::Gelu, the one GELU program): bitwise-equal to
 * applying geluScalar per element after the bias — on both backends,
 * across full 8-lane tiles and ragged edges (the AVX2 write-back runs
 * the geluApprox8 lanes on full tiles and falls back to the scalar
 * helper on edges; the contract is that nobody can tell), and whether
 * requested through withBiasGelu or under the legacy "fast" mode name,
 * which now parses to the same fused program.
 */
void
testGeluEpilogueProgram()
{
    struct Shape
    {
        size_t m, n, k;
    };
    // n = 16 exercises pure full tiles, the others ragged columns; the
    // last is the MLP hidden shape.
    const std::vector<Shape> shapes = {
        {1, 1, 1}, {6, 16, 8}, {7, 19, 5}, {12, 32, 64}, {29, 61, 197}};

    Rng rng(0x6e88);
    const Gemm::EpilogueMode modeBefore = Gemm::epilogueMode();
    const std::optional<Gemm::EpilogueMode> fastName =
        Gemm::parseEpilogueMode("fast");
    T_CHECK(fastName == Gemm::EpilogueMode::Fused);
    Matrix a, b, product, fused, viaMode, expect;
    for (const Shape &s : shapes) {
        makeOperands(a, b, Gemm::Trans::None, s.m, s.n, s.k, rng);
        const Matrix bias = Matrix::randn(1, s.n, rng);
        for (Gemm::Backend backend :
             {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
            if (backend == Gemm::Backend::Avx2 && !avx2Here())
                continue;
            Gemm::setEpilogueMode(Gemm::EpilogueMode::Fused);
            Gemm::multiply(product, a, b, Gemm::Trans::None, backend);

            // The documented element order.
            expect.resize(s.m, s.n);
            for (size_t i = 0; i < s.m; ++i)
                for (size_t j = 0; j < s.n; ++j)
                    expect(i, j) = geluScalar(product(i, j) + bias(0, j));

            Gemm::multiply(fused, a, b, Gemm::Trans::None,
                           Gemm::Epilogue::withBiasGelu(bias), backend);
            T_CHECK(fused == expect);

            // Mode knob: the legacy "fast" name runs the same program.
            Gemm::setEpilogueMode(*fastName);
            Gemm::multiply(viaMode, a, b, Gemm::Trans::None,
                           Gemm::Epilogue::withBiasGelu(bias), backend);
            T_CHECK(viaMode == expect);
            Gemm::setEpilogueMode(Gemm::EpilogueMode::Fused);
        }
    }

    // "fast" is a synonym, not a mode of its own: it reports as fused.
    Gemm::setEpilogueMode(*fastName);
    T_CHECK(std::string(Gemm::epilogueModeName(Gemm::epilogueMode())) ==
            "fused");
    Gemm::setEpilogueMode(modeBefore);
}

/**
 * Special values through the 8-lane GELU: a k = 1 product of a ones
 * column and a value row is exact on both backends (1 * v + 0), so the
 * write-back sees v itself. Columns 0..15 run the AVX2 full-tile lanes,
 * 16..19 the scalar ragged edge; every lane must equal geluScalar(v)
 * (NaN as NaN), i.e. +0 stays +0, NaN propagates, +inf stays +inf and
 * x <= -10 is zero. (-0 cannot reach the activation through a product:
 * the accumulator's +0 absorbs it; test_ops pins geluScalar(-0).)
 * Checked builds reject non-finite operands at dispatch by contract,
 * so there only the finite values run.
 */
void
testGeluEpilogueSpecialValues()
{
    // Each part (full tile, ragged edge) carries every special value.
    const float nan = checkedBuild() ? 1.0f : NAN;
    const float inf = checkedBuild() ? 3.5f : INFINITY;
    const std::vector<float> values = {
        0.0f,  -10.0f, -10.5f, -37.0f,  -1e4f,  -1e30f, -FLT_MAX,
        nan,   -1.0f,  inf,    -4.25f,  1e30f,  FLT_MAX, 0.125f,
        -6.0f, 2.0f,   nan,    inf,     -10.0f, 0.0f};
    const size_t n = values.size();
    const Matrix ones = Matrix::ones(6, 1);
    Matrix row(1, n);
    for (size_t j = 0; j < n; ++j)
        row(0, j) = values[j];
    const Gemm::EpilogueMode modeBefore = Gemm::epilogueMode();
    Gemm::setEpilogueMode(Gemm::EpilogueMode::Fused);
    Gemm::Epilogue gelu;
    gelu.act = Gemm::Epilogue::Act::Gelu;
    Matrix out;
    for (Gemm::Backend backend :
         {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
        if (backend == Gemm::Backend::Avx2 && !avx2Here())
            continue;
        Gemm::multiply(out, ones, row, Gemm::Trans::None, gelu, backend);
        for (size_t i = 0; i < out.rows(); ++i) {
            for (size_t j = 0; j < n; ++j) {
                const float want = geluScalar(values[j]);
                const float got = out(i, j);
                T_CHECK(std::isnan(want) ? std::isnan(got) : got == want);
                if (std::isnan(values[j]))
                    T_CHECK(std::isnan(got));
                if (values[j] == INFINITY)
                    T_CHECK(got == INFINITY);
                if (values[j] <= -10.0f)
                    T_CHECK(got == 0.0f);
                if (values[j] == 0.0f)
                    T_CHECK(got == 0.0f && !std::signbit(got));
            }
        }
    }
    Gemm::setEpilogueMode(modeBefore);
}

void
testEpilogueValidation()
{
    Rng rng(0x6e77);
    const Matrix a = Matrix::randn(5, 3, rng);
    const Matrix b = Matrix::randn(3, 7, rng);
    Matrix d;

    // Bias must be a 1 x n row vector.
    const Matrix badBias = Matrix::randn(1, 6, rng);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::None,
                                  Gemm::Epilogue::withBias(badBias)),
                   std::invalid_argument);
    const Matrix colBias = Matrix::randn(7, 1, rng);
    T_CHECK_THROWS(Gemm::multiply(d, a, b, Gemm::Trans::None,
                                  Gemm::Epilogue::withBias(colBias)),
                   std::invalid_argument);

    // Accumulate requires a preshaped destination: its contents are
    // inputs, so a silently resized dst would accumulate garbage.
    Matrix wrongShape = Matrix::randn(5, 6, rng);
    const Matrix goodBias = Matrix::randn(1, 7, rng);
    T_CHECK_THROWS(
        Gemm::multiply(wrongShape, a, b, Gemm::Trans::None,
                       Gemm::Epilogue::accumulateWithBias(goodBias)),
        std::invalid_argument);

    // Bias aliasing dst would be read while being overwritten.
    Matrix aliased = Matrix::randn(1, 7, rng);
    const Matrix arow = Matrix::randn(1, 3, rng);
    T_CHECK_THROWS(Gemm::multiply(aliased, arow, b, Gemm::Trans::None,
                                  Gemm::Epilogue::withBias(aliased)),
                   std::invalid_argument);

    // k = 0 with an epilogue: the product is all zeros, the epilogue
    // still applies (bias lands, accumulate preserves dst).
    const Matrix a0(4, 0);
    const Matrix b0(0, 7);
    Matrix acc0 = Matrix::randn(4, 7, rng);
    const Matrix before = acc0;
    Gemm::multiply(acc0, a0, b0, Gemm::Trans::None,
                   Gemm::Epilogue::accumulateWithBias(goodBias));
    T_CHECK(acc0 == add(before, broadcastAddRow(Matrix::zeros(4, 7),
                                                goodBias)));
}

/**
 * The acceptance-level check: the whole batched multi-head forward
 * agrees across backends. Each backend is deterministic; across
 * backends the attention outputs (convex combinations of V after
 * normalization) agree to 1e-3 max-abs-diff — far looser than observed,
 * far tighter than any real kernel bug.
 */
void
testBatchedMhaCrossBackendParity()
{
    if (!avx2Here()) {
        std::printf("  avx2 unavailable; cross-backend batch parity "
                    "skipped\n");
        return;
    }
    const Gemm::Backend before = Gemm::active();
    ThreadPool pool;
    Rng rng(0x77);
    const size_t tokens = 197, heads = 6, dModel = 6 * 64, batchN = 3;
    const size_t lens[batchN] = {tokens, tokens, tokens};
    RaggedBatch q, k, v;
    for (RaggedBatch *rb : {&q, &k, &v})
        rb->resize(lens, batchN, dModel);
    q.buffer().copyFrom(
        Matrix::randn(batchN * tokens, dModel, rng, 0.0f, 0.5f));
    k.buffer().copyFrom(
        Matrix::randn(batchN * tokens, dModel, rng, 0.0f, 0.5f));
    v.buffer().copyFrom(Matrix::randn(batchN * tokens, dModel, rng));

    for (AttentionType type : {AttentionType::Taylor,
                               AttentionType::Softmax,
                               AttentionType::Unified}) {
        MultiHeadAttention mha(makeAttention(type), heads);
        Gemm::setActive(Gemm::Backend::Scalar);
        RaggedBatch outScalar = mha.forwardRagged(pool, q, k, v);
        Gemm::setActive(Gemm::Backend::Avx2);
        RaggedBatch outAvx2 = mha.forwardRagged(pool, q, k, v);
        Matrix imgScalar, imgAvx2;
        for (size_t i = 0; i < batchN; ++i) {
            outScalar.unpackImage(i, imgScalar);
            outAvx2.unpackImage(i, imgAvx2);
            const float diff = maxAbsDiff(imgScalar, imgAvx2);
            if (!(diff <= 1e-3f)) {
                std::printf("  %s image %zu: cross-backend diff %g\n",
                            attentionTypeName(type).c_str(), i,
                            static_cast<double>(diff));
                T_CHECK(diff <= 1e-3f);
            }
        }
        // Same backend twice is bitwise-identical (determinism).
        T_CHECK(outAvx2 == mha.forwardRagged(pool, q, k, v));
    }
    Gemm::setActive(before);
}

/**
 * Force the zmm tile for a test, or print the explicit SKIP line and
 * return false where the host (or build) has no 6x32 tile.
 */
bool
forceZmmOrSkip(const char *what)
{
    if (avx2Here()) {
        try {
            detail::setFp32TileCols(2 * detail::kNr);
            return true;
        } catch (const std::invalid_argument &) {
        }
    }
    std::printf("  SKIP zmm: no avx512f 6x32 tile on this host/build; "
                "%s not run\n",
                what);
    return false;
}

/**
 * The 6x32 zmm tile is bitwise-equal to the 6x16 ymm tile: every
 * float compared with ==. Shapes cover odd panel counts and ragged
 * columns (n), ragged and multi-panel rows (m), and single- and
 * multi-chunk depths around kc = 256 (k). Each (m, n, k) triple with
 * m*n*k <= 2^18 runs every epilogue x transpose x {per-call,
 * PackedMatrix} B x band cap {1, 3}; larger triples up to 2^27 each
 * run one of those 48 combos, rotating so every combo recurs among
 * them. Triples beyond 2^27 (three large dimensions at once, e.g.
 * 1576 x 1152 x 3072) are left out: every listed value still meets
 * multi-chunk depths, odd panel counts and three bands in the others,
 * and the full cross product would take minutes under the sanitizers.
 */
void
testZmmTileMatchesYmmTile()
{
    if (!forceZmmOrSkip("zmm vs ymm tile sweep"))
        return;
    const std::vector<size_t> ms = {1, 5, 6, 7, 13, 197, 1576};
    const std::vector<size_t> ns = {16, 32, 48, 197, 384, 1152};
    const std::vector<size_t> ks = {1, 255, 256, 257, 1536, 3072};
    const Gemm::Trans modes[] = {Gemm::Trans::None, Gemm::Trans::A,
                                 Gemm::Trans::B};
    const char *epiNames[] = {"none", "bias", "bias+gelu", "acc+bias"};
    constexpr size_t kCombos = 4 * 3 * 2 * 2;
    constexpr uint64_t kFullSweepMuls = uint64_t(1) << 18;
    constexpr uint64_t kMaxMuls = uint64_t(1) << 27;

    const Gemm::EpilogueMode modeBefore = Gemm::epilogueMode();
    const size_t capBefore = Gemm::maxThreads();
    Gemm::setEpilogueMode(Gemm::EpilogueMode::Fused);
    ThreadPool pool(3);
    Rng rng(0x2e32);
    Matrix a, b, init, ymm, zmm;
    size_t checked = 0, rotation = 0;
    for (size_t m : ms) {
        for (size_t n : ns) {
            for (size_t k : ks) {
                const uint64_t muls = uint64_t(m) * n * k;
                if (muls > kMaxMuls)
                    continue;
                const Matrix bias = Matrix::randn(1, n, rng);
                init = Matrix::randn(m, n, rng);
                const bool full = muls <= kFullSweepMuls;
                // A coprime stride walks all 48 combos across triples.
                const size_t first = full ? 0 : (rotation++ * 7) % kCombos;
                const size_t count = full ? kCombos : 1;
                Gemm::Trans lastTrans = Gemm::Trans::None;
                bool haveOperands = false;
                std::optional<PackedMatrix> packed;
                for (size_t c = first; c < first + count; ++c) {
                    const size_t epi = c % 4;
                    const Gemm::Trans trans = modes[(c / 4) % 3];
                    const bool prepacked = (c / 12) % 2 != 0;
                    const size_t bands = (c / 24) % 2 ? 3 : 1;
                    if (!haveOperands || trans != lastTrans) {
                        makeOperands(a, b, trans, m, n, k, rng);
                        packed.emplace();
                        packed->packFp32(b, trans == Gemm::Trans::B
                                                ? Gemm::Trans::B
                                                : Gemm::Trans::None);
                        lastTrans = trans;
                        haveOperands = true;
                    }
                    Gemm::Epilogue ep;
                    if (epi == 1)
                        ep = Gemm::Epilogue::withBias(bias);
                    else if (epi == 2)
                        ep = Gemm::Epilogue::withBiasGelu(bias);
                    else if (epi == 3)
                        ep = Gemm::Epilogue::accumulateWithBias(bias);
                    Gemm::setMaxThreads(bands);
                    const auto run = [&](Matrix &dst, size_t cols) {
                        detail::setFp32TileCols(cols);
                        dst.copyFrom(init);
                        if (prepacked)
                            Gemm::multiply(dst, a, *packed,
                                           trans == Gemm::Trans::A
                                               ? Gemm::Trans::A
                                               : Gemm::Trans::None,
                                           ep, Gemm::Backend::Avx2);
                        else
                            Gemm::multiply(dst, a, b, trans, ep,
                                           Gemm::Backend::Avx2);
                    };
                    run(ymm, detail::kNr);
                    run(zmm, 2 * detail::kNr);
                    if (!(zmm == ymm)) {
                        std::printf("  zmm != ymm: %s m=%zu n=%zu k=%zu "
                                    "epilogue=%s %s bands=%zu (max diff "
                                    "%g)\n",
                                    transName(trans), m, n, k,
                                    epiNames[epi],
                                    prepacked ? "packed" : "per-call",
                                    bands,
                                    static_cast<double>(
                                        maxAbsDiff(zmm, ymm)));
                        T_CHECK(zmm == ymm);
                    }
                    ++checked;
                }
            }
        }
    }
    detail::setFp32TileCols(0);
    Gemm::setMaxThreads(capBefore);
    Gemm::setEpilogueMode(modeBefore);
    std::printf("  %zu zmm-vs-ymm combos bitwise-equal\n", checked);
}

/**
 * Whole-model: a DeiT-Tiny ragged forward (eager weights and a
 * compiled plan's prepacked panels) gives the same output bits on the
 * zmm tile as on the ymm tile.
 */
void
testZmmTileEncoderParity()
{
    if (!forceZmmOrSkip("zmm vs ymm encoder parity"))
        return;
    const Gemm::Backend backendBefore = Gemm::active();
    const Gemm::QuantMode quantBefore = Gemm::quantMode();
    Gemm::setActive(Gemm::Backend::Avx2);
    Gemm::setQuantMode(Gemm::QuantMode::Off);
    ThreadPool pool(3);
    const VitConfig cfg = VitConfig::deitTiny();
    Rng rng(0x7e32);
    const Matrix x0 = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    const Matrix x1 = Matrix::randn(98, cfg.dModel, rng);
    const Matrix x2 = Matrix::randn(1, cfg.dModel, rng);
    const Matrix *images[] = {&x0, &x1, &x2};
    const RaggedBatch x = RaggedBatch::fromMatrices(images, 3);

    VitEncoder eager(cfg, makeAttention(AttentionType::Taylor), 0xd317);
    VitEncoder planned(cfg, makeAttention(AttentionType::Taylor), 0xd317);
    planned.compilePlan();
    for (VitEncoder *enc : {&eager, &planned}) {
        detail::setFp32TileCols(detail::kNr);
        const RaggedBatch ymm = enc->forwardRagged(x, pool);
        detail::setFp32TileCols(2 * detail::kNr);
        const RaggedBatch zmm = enc->forwardRagged(x, pool);
        T_CHECK(zmm == ymm);
    }
    detail::setFp32TileCols(0);
    Gemm::setQuantMode(quantBefore);
    Gemm::setActive(backendBefore);
}

} // namespace

int
main()
{
    testExhaustiveShapeParity();
    testDispatcherPlumbing();
    testAliasingAndShapeRules();
    testZeroDimsAndRecycling();
    testDeepKCacheBlocking();
    testDeepNCacheBlocking();
    testFusedEpilogueParity();
    testGeluEpilogueProgram();
    testGeluEpilogueSpecialValues();
    testEpilogueValidation();
    testBatchedMhaCrossBackendParity();
    testZmmTileMatchesYmmTile();
    testZmmTileEncoderParity();
    return vitality::testing::finish("test_gemm");
}
