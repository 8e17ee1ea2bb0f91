/**
 * @file
 * Tensor-layer tests: the matmul family against a naive reference,
 * broadcast/reduce shape behaviour, softmax numerical stability, and the
 * *Into variants against their value-returning twins (including slot
 * recycling through a Workspace).
 */

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>

#include "base/rng.h"
#include "tensor/gemm.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "testing.h"

using namespace vitality;

namespace {

/** Textbook triple loop, the reference all matmul variants must match. */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (size_t k = 0; k < a.cols(); ++k)
                acc += a(i, k) * b(k, j);
            c(i, j) = acc;
        }
    return c;
}

void
testMatmulFamily()
{
    Rng rng(0xabc1);
    // Odd sizes straddle the scalar block boundary (64) and the AVX2
    // microkernel panels (6 x 16); whichever backend the dispatcher
    // picked must match the naive reference. test_gemm drives both
    // backends explicitly over a full ragged-shape sweep.
    const Matrix a = Matrix::randn(67, 33, rng);
    const Matrix b = Matrix::randn(33, 71, rng);

    T_CHECK(maxAbsDiff(matmul(a, b), naiveMatmul(a, b)) < 1e-4f);
    T_CHECK(maxAbsDiff(matmulBT(a, transpose(b)), naiveMatmul(a, b)) <
            1e-4f);
    T_CHECK(maxAbsDiff(matmulAT(transpose(a), b), naiveMatmul(a, b)) <
            1e-4f);

    T_CHECK_THROWS(matmul(a, a), std::invalid_argument);
    T_CHECK_THROWS(matmulBT(a, b), std::invalid_argument);
    T_CHECK_THROWS(matmulAT(a, b), std::invalid_argument);

    // dst must not alias an input.
    Matrix c = a;
    T_CHECK_THROWS(matmulInto(c, c, b), std::invalid_argument);
}

void
testBroadcastAndReduceShapes()
{
    const Matrix a = {{1, 2, 3}, {4, 5, 6}};
    const Matrix rowv = {{10, 20, 30}};
    const Matrix colv = {{100}, {200}};

    const Matrix rs = rowSum(a);
    T_CHECK(rs.rows() == 2 && rs.cols() == 1);
    T_CHECK(rs(0, 0) == 6.0f && rs(1, 0) == 15.0f);

    const Matrix cs = colSum(a);
    T_CHECK(cs.rows() == 1 && cs.cols() == 3);
    T_CHECK(cs(0, 0) == 5.0f && cs(0, 2) == 9.0f);

    T_CHECK(rowMean(a)(1, 0) == 5.0f);
    T_CHECK(colMean(a)(0, 1) == 3.5f);

    const Matrix ar = broadcastAddRow(a, rowv);
    T_CHECK(ar(0, 0) == 11.0f && ar(1, 2) == 36.0f);
    const Matrix sr = broadcastSubRow(a, rowv);
    T_CHECK(sr(0, 0) == -9.0f && sr(1, 2) == -24.0f);
    const Matrix ac = broadcastAddCol(a, colv);
    T_CHECK(ac(0, 0) == 101.0f && ac(1, 0) == 204.0f);
    const Matrix dr = divRows(a, colv);
    T_CHECK_CLOSE(dr(1, 2), 0.03f, 1e-7f);

    // Vector-shape mismatches throw.
    T_CHECK_THROWS(broadcastAddRow(a, colv), std::invalid_argument);
    T_CHECK_THROWS(broadcastAddCol(a, rowv), std::invalid_argument);
    T_CHECK_THROWS(divRows(a, rowv), std::invalid_argument);
}

void
testSoftmaxStability()
{
    // Logits far outside float exp range must not overflow to inf/nan.
    const Matrix logits = {{10000.0f, 9999.0f, 0.0f},
                           {-10000.0f, -10000.0f, -10000.0f}};
    const Matrix s = softmaxRows(logits);
    for (size_t r = 0; r < s.rows(); ++r) {
        float sum_r = 0.0f;
        for (size_t c = 0; c < s.cols(); ++c) {
            T_CHECK(std::isfinite(s(r, c)));
            sum_r += s(r, c);
        }
        T_CHECK_CLOSE(sum_r, 1.0f, 1e-5f);
    }
    // Uniform logits give the uniform distribution.
    T_CHECK_CLOSE(s(1, 0), 1.0f / 3.0f, 1e-6f);
    // In-place form matches.
    Matrix t = logits;
    softmaxRowsInto(t, t);
    T_CHECK(t == s);
}

void
testLayerNorm()
{
    Rng rng(0xabc2);
    const Matrix x = Matrix::randn(5, 16, rng, 3.0f, 2.0f);
    const Matrix gamma = Matrix::ones(1, 16);
    const Matrix beta = Matrix::zeros(1, 16);
    const Matrix y = layerNormRows(x, gamma, beta);
    // Every row is standardized.
    for (size_t r = 0; r < y.rows(); ++r) {
        float m = 0.0f, var = 0.0f;
        for (size_t c = 0; c < y.cols(); ++c)
            m += y(r, c);
        m /= 16.0f;
        for (size_t c = 0; c < y.cols(); ++c)
            var += (y(r, c) - m) * (y(r, c) - m);
        var /= 16.0f;
        T_CHECK_CLOSE(m, 0.0f, 1e-5f);
        T_CHECK_CLOSE(var, 1.0f, 1e-3f);
    }
}

/**
 * The LayerNorm row kernel: the AVX2 backend's 8-lane kernel and the
 * scalar loop run one lane-grouped sum order, so they agree bit for bit
 * at every width — below one lane group, exactly one, one plus a tail,
 * and the DeiT model widths — in place too, and both track a float64
 * reference.
 */
void
testLayerNormBackendParity()
{
    const Gemm::Backend before = Gemm::active();
    Rng rng(0xabc9);
    for (size_t n : {1ul, 7ul, 8ul, 9ul, 192ul, 384ul, 768ul}) {
        const Matrix x = Matrix::randn(5, n, rng, 0.5f, 2.0f);
        const Matrix gamma = Matrix::randn(1, n, rng, 1.0f, 0.2f);
        const Matrix beta = Matrix::randn(1, n, rng, 0.0f, 0.2f);
        Gemm::setActive(Gemm::Backend::Scalar);
        const Matrix scalar = layerNormRows(x, gamma, beta);

        double worst = 0.0;
        for (size_t r = 0; r < x.rows(); ++r) {
            double m = 0.0, v = 0.0;
            for (size_t c = 0; c < n; ++c)
                m += x(r, c);
            m /= static_cast<double>(n);
            for (size_t c = 0; c < n; ++c)
                v += (x(r, c) - m) * (x(r, c) - m);
            v /= static_cast<double>(n);
            for (size_t c = 0; c < n; ++c) {
                const double ref =
                    (x(r, c) - m) / std::sqrt(v + 1e-5) * gamma(0, c) +
                    beta(0, c);
                worst = std::max(worst, std::fabs(scalar(r, c) - ref));
            }
        }
        T_CHECK(worst <= 1e-4);

        if (Gemm::available(Gemm::Backend::Avx2)) {
            Gemm::setActive(Gemm::Backend::Avx2);
            const Matrix vec = layerNormRows(x, gamma, beta);
            T_CHECK(vec == scalar);
            Matrix inplace = x;
            layerNormRowsInto(inplace, inplace, gamma, beta);
            T_CHECK(inplace == scalar);
        }
    }
    Gemm::setActive(before);
}

/**
 * Row-banded LayerNorm: above the size threshold layerNormRowsInto
 * fans row bands over the installed parallel runner, and the bands
 * give the same bits as one sequential sweep (rows are independent) on
 * both backends, in place too. Below the threshold (a single serve
 * image) it never touches the runner.
 */
void
testLayerNormRowBands()
{
    const Gemm::Backend before = Gemm::active();
    const size_t capBefore = Gemm::maxThreads();
    const std::shared_ptr<const Gemm::ParallelRunner> runnerBefore =
        Gemm::parallelRunner();
    Gemm::setMaxThreads(0);
    size_t runs = 0, tasks = 0;
    auto counting = std::make_shared<Gemm::ParallelRunner>();
    counting->width = [] { return size_t(3); };
    counting->run = [&](size_t n, const std::function<void(size_t)> &fn) {
        ++runs;
        tasks += n;
        for (size_t i = n; i-- > 0;) // reverse: order must not matter
            fn(i);
    };

    struct Shape
    {
        size_t rows, cols, bands;
    };
    // DeiT-Small's offline batch (8 x 197 tokens) splits three ways;
    // one DeiT-Tiny image stays on the calling thread.
    const Shape shapes[] = {{1576, 384, 3}, {197, 192, 1}, {2, 65536, 2}};
    Rng rng(0xabd1);
    for (const Shape &sh : shapes) {
        const Matrix x = Matrix::randn(sh.rows, sh.cols, rng, 0.5f, 2.0f);
        const Matrix gamma = Matrix::randn(1, sh.cols, rng, 1.0f, 0.2f);
        const Matrix beta = Matrix::randn(1, sh.cols, rng, 0.0f, 0.2f);
        for (Gemm::Backend backend :
             {Gemm::Backend::Scalar, Gemm::Backend::Avx2}) {
            if (!Gemm::available(backend))
                continue;
            Gemm::setActive(backend);
            Gemm::setParallelRunner(nullptr);
            const Matrix seq = layerNormRows(x, gamma, beta);

            Gemm::setParallelRunner(counting);
            runs = tasks = 0;
            const Matrix banded = layerNormRows(x, gamma, beta);
            T_CHECK(banded == seq);
            T_CHECK(tasks == (sh.bands > 1 ? sh.bands : 0));
            T_CHECK(runs == (sh.bands > 1 ? 1u : 0u));
            Matrix inplace = x;
            layerNormRowsInto(inplace, inplace, gamma, beta);
            T_CHECK(inplace == seq);
            // The thread cap bounds the bands like the GEMM's.
            Gemm::setMaxThreads(1);
            runs = 0;
            T_CHECK(layerNormRows(x, gamma, beta) == seq);
            T_CHECK(runs == 0);
            Gemm::setMaxThreads(0);
        }
    }
    Gemm::setParallelRunner(runnerBefore);
    Gemm::setMaxThreads(capBefore);
    Gemm::setActive(before);
}

void
testIntoVariantsMatchValueTwins()
{
    Rng rng(0xabc3);
    const Matrix a = Matrix::randn(23, 17, rng);
    const Matrix b = Matrix::randn(17, 29, rng);
    const Matrix c = Matrix::randn(23, 17, rng);
    const Matrix rowv = Matrix::randn(1, 17, rng);
    const Matrix colv = Matrix::uniform(23, 1, rng, 0.5f, 2.0f);

    Workspace ws;
    // Two passes through the same workspace: the second recycles every
    // slot, which is exactly the steady state the kernels run in.
    for (int pass = 0; pass < 2; ++pass) {
        Workspace::Frame frame(ws);
        auto &d1 = ws.acquire(1, 1);
        matmulInto(d1, a, b);
        T_CHECK(d1 == matmul(a, b));
        auto &d2 = ws.acquire(1, 1);
        matmulBTInto(d2, a, c);
        T_CHECK(d2 == matmulBT(a, c));
        auto &d3 = ws.acquire(1, 1);
        matmulATInto(d3, a, c);
        T_CHECK(d3 == matmulAT(a, c));
        auto &d4 = ws.acquire(1, 1);
        transposeInto(d4, a);
        T_CHECK(d4 == transpose(a));
        auto &d5 = ws.acquire(1, 1);
        addInto(d5, a, c);
        T_CHECK(d5 == add(a, c));
        subInto(d5, a, c);
        T_CHECK(d5 == sub(a, c));
        hadamardInto(d5, a, c);
        T_CHECK(d5 == hadamard(a, c));
        scaleInto(d5, a, 1.75f);
        T_CHECK(d5 == scale(a, 1.75f));
        addScalarInto(d5, a, -0.25f);
        T_CHECK(d5 == addScalar(a, -0.25f));
        auto &d6 = ws.acquire(1, 1);
        rowSumInto(d6, a);
        T_CHECK(d6 == rowSum(a));
        colSumInto(d6, a);
        T_CHECK(d6 == colSum(a));
        rowMeanInto(d6, a);
        T_CHECK(d6 == rowMean(a));
        colMeanInto(d6, a);
        T_CHECK(d6 == colMean(a));
        broadcastAddRowInto(d5, a, rowv);
        T_CHECK(d5 == broadcastAddRow(a, rowv));
        broadcastSubRowInto(d5, a, rowv);
        T_CHECK(d5 == broadcastSubRow(a, rowv));
        broadcastAddColInto(d5, a, colv);
        T_CHECK(d5 == broadcastAddCol(a, colv));
        scaleRowsInto(d5, a, colv);
        T_CHECK(d5 == scaleRows(a, colv));
        divRowsInto(d5, a, colv);
        T_CHECK(d5 == divRows(a, colv));
        softmaxRowsInto(d5, a);
        T_CHECK(d5 == softmaxRows(a));
        expElemInto(d5, a);
        T_CHECK(d5 == expElem(a));
    }
    // Aliasing the primary input is supported for element-wise forms.
    Matrix inplace = a;
    addInto(inplace, inplace, c);
    T_CHECK(inplace == add(a, c));
}

void
testWorkspaceRecycling()
{
    Workspace ws;
    Matrix *first = nullptr;
    {
        Workspace::Frame frame(ws);
        Matrix &m = ws.acquire(8, 8);
        first = &m;
        T_CHECK(ws.slotsInUse() == 1);
        Matrix &m2 = ws.acquire(4, 4);
        T_CHECK(&m2 != &m);
        T_CHECK(ws.slotsInUse() == 2);
    }
    // Frame rewound: the same slot object comes back, storage retained.
    T_CHECK(ws.slotsInUse() == 0);
    Matrix &again = ws.acquire(6, 6);
    T_CHECK(&again == first);
    T_CHECK(again.rows() == 6 && again.cols() == 6);
    T_CHECK(ws.slotCount() == 2);

    // acquireZeroed really zeroes recycled storage.
    ws.reset();
    ws.acquire(3, 3).fill(7.0f);
    ws.reset();
    const Matrix &z = ws.acquireZeroed(3, 3);
    T_CHECK(maxAbs(z) == 0.0f);
}

/** The float64 tanh-GELU geluScalar is anchored to. */
double
gelu64(double x)
{
    const double pi = 3.14159265358979323846;
    const double inner = std::sqrt(2.0 / pi) * (x + 0.044715 * x * x * x);
    return 0.5 * x * (1.0 + std::tanh(inner));
}

/** The documented geluScalar bound against gelu64 (tensor/ops.h). */
double
geluBound(double x)
{
    return 4e-7 * (1.0 + std::fabs(x) / 2.0);
}

void
testGelu()
{
    // geluScalar is the one GELU program every path runs bitwise (the
    // AVX2 write-backs replicate it lane by lane), so pin it against
    // the float64 tanh-GELU at the documented bound.
    T_CHECK(geluScalar(0.0f) == 0.0f);
    T_CHECK_CLOSE(geluScalar(10.0f), gelu64(10.0), geluBound(10.0));
    T_CHECK_CLOSE(geluScalar(-10.0f), gelu64(-10.0), geluBound(-10.0));
    // Published value of tanh-GELU at 1.0 (the reference agrees), and
    // the reflection identity gelu(x) - gelu(-x) == x (since
    // gelu(x) = x * sigmoid-like(x)).
    T_CHECK_CLOSE(gelu64(1.0), 0.841192, 1e-6);
    T_CHECK_CLOSE(geluScalar(1.0f), 0.841192f, 1e-5);
    T_CHECK_CLOSE(geluScalar(1.0f), gelu64(1.0), geluBound(1.0));
    for (float x : {-3.0f, -0.7f, 0.3f, 2.5f})
        T_CHECK_CLOSE(geluScalar(x) - geluScalar(-x), x, 1e-5);
    // Against the float64 formula on a coarse grid (the dense sweep is
    // in testTranscendentalApprox).
    for (float x = -4.0f; x <= 4.0f; x += 0.37f)
        T_CHECK_CLOSE(geluScalar(x), gelu64(x), geluBound(x));

    // Special values: signed zeros map to themselves, NaN propagates,
    // +inf stays +inf, and the whole x <= -10 tail is an exact zero.
    T_CHECK(geluScalar(0.0f) == 0.0f && !std::signbit(geluScalar(0.0f)));
    T_CHECK(geluScalar(-0.0f) == 0.0f && std::signbit(geluScalar(-0.0f)));
    T_CHECK(std::isnan(geluScalar(NAN)));
    T_CHECK(geluScalar(INFINITY) == INFINITY);
    for (float x : {-10.0f, -10.5f, -37.0f, -1e4f, -1e30f, -FLT_MAX})
        T_CHECK(geluScalar(x) == 0.0f);

    Rng rng(0x6e1a);
    const Matrix a = Matrix::randn(7, 13, rng);
    const Matrix g = gelu(a);
    T_CHECK(g.rows() == a.rows() && g.cols() == a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        T_CHECK(g.data()[i] == geluScalar(a.data()[i]));

    // The Into form matches its value twin and supports dst == a.
    Matrix into;
    geluInto(into, a);
    T_CHECK(into == g);
    Matrix inplace = a;
    geluInto(inplace, inplace);
    T_CHECK(inplace == g);
}

void
testWorkspaceAlignedAcquire()
{
    Workspace ws;
    Workspace::Frame frame(ws);
    // Packed GEMM panels ride this: every returned pointer must be
    // 32-byte aligned regardless of the requested count, and the whole
    // requested extent must be writable (ASan in CI verifies the
    // latter for real).
    for (size_t count : {1ul, 5ul, 96ul, 197ul * 16, 6ul * 3072}) {
        float *p = ws.acquireAligned(count);
        T_CHECK(reinterpret_cast<uintptr_t>(p) % 32 == 0);
        for (size_t i = 0; i < count; ++i)
            p[i] = static_cast<float>(i);
        T_CHECK(p[0] == 0.0f && p[count - 1] == float(count - 1));
    }
    // Other power-of-two alignments hold too; bad alignments throw.
    T_CHECK(reinterpret_cast<uintptr_t>(ws.acquireAligned(8, 64)) % 64 ==
            0);
    T_CHECK_THROWS(ws.acquireAligned(8, 0), std::invalid_argument);
    T_CHECK_THROWS(ws.acquireAligned(8, 48), std::invalid_argument);
    T_CHECK_THROWS(ws.acquireAligned(8, 2), std::invalid_argument);
}

void
testTranscendentalApprox()
{
    // The documented error bounds (ops.h): tanhApprox <= 4e-7 absolute
    // everywhere; expApprox <= 1e-5 relative on [-87, 87] and <= 6e-7
    // on [-5, 5] (the softmax regime). Dense sweeps against
    // double-precision references.
    double worst_tanh = 0.0;
    for (double x = -12.0; x <= 12.0; x += 1.1e-4) {
        const double err =
            std::fabs((double)tanhApprox((float)x) - std::tanh(x));
        worst_tanh = std::max(worst_tanh, err);
    }
    T_CHECK(worst_tanh <= 4e-7);

    double worst_exp = 0.0, worst_exp_small = 0.0;
    for (double x = -87.0; x <= 87.0; x += 7.9e-4) {
        const double ref = std::exp(x);
        const double err =
            std::fabs((double)expApprox((float)x) - ref) / ref;
        worst_exp = std::max(worst_exp, err);
        if (std::fabs(x) <= 5.0)
            worst_exp_small = std::max(worst_exp_small, err);
    }
    T_CHECK(worst_exp <= 1e-5);
    T_CHECK(worst_exp_small <= 6e-7);

    // Saturation, symmetry-ish edges, and the documented clamp
    // semantics (no NaN propagation, no Inf from overflow).
    T_CHECK(tanhApprox(10.0f) == 1.0f);
    T_CHECK(tanhApprox(-10.0f) == -1.0f);
    T_CHECK(tanhApprox(1e30f) == 1.0f);
    T_CHECK(tanhApprox(-1e30f) == -1.0f);
    T_CHECK(tanhApprox(0.0f) == 0.0f);
    T_CHECK(std::isfinite(expApprox(1e30f)));
    T_CHECK(expApprox(-1e30f) >= 0.0f);
    T_CHECK(std::isfinite(tanhApprox(NAN)));
    T_CHECK(std::isfinite(expApprox(NAN)));

    // geluScalar tracks the float64 tanh-GELU within the tanh bound
    // scaled by |x| / 2 (the derivative of the outer form).
    for (double x = -8.0; x <= 8.0; x += 3.3e-4) {
        const float xf = static_cast<float>(x);
        const double err = std::fabs((double)geluScalar(xf) - gelu64(xf));
        T_CHECK(err <= geluBound(xf));
    }

    // The approx softmax is a softmax: rows sum to 1, entries positive,
    // and it tracks the exact softmax closely.
    Rng rng(0x7a94);
    const Matrix a = Matrix::randn(13, 37, rng, 0.0f, 3.0f);
    Matrix approx, exact;
    softmaxRowsApproxInto(approx, a);
    softmaxRowsInto(exact, a);
    for (size_t r = 0; r < a.rows(); ++r) {
        float sum = 0.0f;
        for (size_t c = 0; c < a.cols(); ++c) {
            T_CHECK(approx(r, c) >= 0.0f);
            sum += approx(r, c);
        }
        T_CHECK_CLOSE(sum, 1.0f, 1e-5);
    }
    T_CHECK(maxAbsDiff(approx, exact) <= 1e-5f);

    // Backend independence: when the AVX2 backend is available, the
    // 8-lane row kernel must produce bitwise-identical results to the
    // scalar core (this is what makes predicted masks
    // backend-independent). Ragged widths cover the vector tails.
    if (Gemm::available(Gemm::Backend::Avx2)) {
        const Gemm::Backend before = Gemm::active();
        for (size_t cols : {1ul, 3ul, 7ul, 8ul, 9ul, 31ul, 197ul}) {
            const Matrix m = Matrix::randn(5, cols, rng, 0.0f, 2.0f);
            Matrix va, vs;
            Gemm::setActive(Gemm::Backend::Avx2);
            softmaxRowsApproxInto(va, m);
            const float maxabs_avx2 = maxAbs(m);
            Gemm::setActive(Gemm::Backend::Scalar);
            softmaxRowsApproxInto(vs, m);
            T_CHECK(va == vs);
            T_CHECK(maxabs_avx2 == maxAbs(m));
        }
        Gemm::setActive(before);
    }
}

} // namespace

int
main()
{
    testMatmulFamily();
    testBroadcastAndReduceShapes();
    testSoftmaxStability();
    testLayerNorm();
    testLayerNormBackendParity();
    testLayerNormRowBands();
    testIntoVariantsMatchValueTwins();
    testWorkspaceRecycling();
    testGelu();
    testTranscendentalApprox();
    testWorkspaceAlignedAcquire();
    return vitality::testing::finish("test_ops");
}
