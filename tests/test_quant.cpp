/**
 * @file
 * INT8 quantized-path tests: quantize/dequantize round-trip bounds,
 * the per-element int8-vs-fp32 GEMM error bound from tensor/gemm.h,
 * bitwise scalar-vs-AVX2 parity of the int8 backends, fused-vs-unfused
 * epilogue parity on the quantized path, operand validation, the
 * VITALITY_QUANT mode plumbing, and whole-encoder fp32-vs-int8
 * deviation at DeiT shapes (including batched-vs-single bitwise
 * parity in int8 mode).
 */

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quantized_matrix.h"
#include "tensor/ragged_batch.h"
#include "testing.h"

using namespace vitality;

namespace {

bool
avx2Here()
{
    return Gemm::available(Gemm::Backend::Avx2);
}

/** Restores every Gemm execution knob on scope exit. */
struct ModeGuard
{
    Gemm::Backend backend = Gemm::active();
    Gemm::EpilogueMode epilogue = Gemm::epilogueMode();
    Gemm::QuantMode quant = Gemm::quantMode();
    ~ModeGuard()
    {
        Gemm::setActive(backend);
        Gemm::setEpilogueMode(epilogue);
        Gemm::setQuantMode(quant);
    }
};

/**
 * Stored float operands for C = op(A) * op(B) with op(A) m x k and
 * op(B) k x n. The activation operand gets a positive shift so the
 * affine zero point is exercised away from zero.
 */
void
makeOperands(Matrix &a, Matrix &b, Gemm::Trans trans, size_t m, size_t n,
             size_t k, Rng &rng)
{
    const size_t ar = trans == Gemm::Trans::A ? k : m;
    const size_t ac = trans == Gemm::Trans::A ? m : k;
    const size_t br = trans == Gemm::Trans::B ? n : k;
    const size_t bc = trans == Gemm::Trans::B ? k : n;
    a = Matrix::randn(ar, ac, rng, 0.7f, 1.3f);
    b = Matrix::randn(br, bc, rng, 0.0f, 0.8f);
}

float
opAElem(const Matrix &a, Gemm::Trans trans, size_t i, size_t kk)
{
    return trans == Gemm::Trans::A ? a(kk, i) : a(i, kk);
}

float
opBElem(const Matrix &b, Gemm::Trans trans, size_t kk, size_t j)
{
    return trans == Gemm::Trans::B ? b(j, kk) : b(kk, j);
}

const char *
transName(Gemm::Trans t)
{
    switch (t) {
    case Gemm::Trans::None:
        return "none";
    case Gemm::Trans::A:
        return "transA";
    default:
        return "transB";
    }
}

/** Quantize the pair as the model layer does (per-row unless transA). */
void
quantizePair(QuantizedMatrix &qa, QuantizedMatrix &qb, const Matrix &a,
             const Matrix &b, Gemm::Trans trans)
{
    const QuantizedMatrix::Granularity g =
        trans == Gemm::Trans::A ? QuantizedMatrix::Granularity::PerTensor
                                : QuantizedMatrix::Granularity::PerRow;
    qa.assignActivations(a, g);
    qb.assignWeights(b);
}

void
testQuantizeDequantRoundTrip()
{
    Rng rng(0xABC1);

    // Weights: symmetric per-tensor, |x - dequant(x)| <= scale / 2.
    const Matrix w = Matrix::randn(17, 33, rng, 0.0f, 0.5f);
    const QuantizedMatrix qw = QuantizedMatrix::weights(w);
    T_CHECK(qw.kind() == QuantizedMatrix::Kind::WeightS8);
    T_CHECK(qw.rows() == 17 && qw.cols() == 33);
    T_CHECK(qw.zeroPoint(0) == 0);
    T_CHECK_CLOSE(qw.scale(0), maxAbs(w) / 127.0f, 1e-9);
    const Matrix wd = qw.dequantize();
    const double wtol = 0.5 * qw.scale(0) * (1.0 + 1e-6);
    for (size_t i = 0; i < w.size(); ++i)
        T_CHECK(std::fabs(wd.data()[i] - w.data()[i]) <= wtol);

    // Activations: affine per-row codes in [0, 127], error <= step / 2.
    Matrix act = Matrix::randn(9, 40, rng, 1.2f, 0.9f);
    const QuantizedMatrix qa = QuantizedMatrix::activations(act);
    T_CHECK(qa.kind() == QuantizedMatrix::Kind::ActivationU7);
    T_CHECK(qa.granularity() == QuantizedMatrix::Granularity::PerRow);
    const Matrix ad = qa.dequantize();
    for (size_t r = 0; r < act.rows(); ++r) {
        T_CHECK(qa.zeroPoint(r) >= 0 && qa.zeroPoint(r) <= 127);
        const double tol = 0.5 * qa.scale(r) * (1.0 + 1e-6);
        for (size_t c = 0; c < act.cols(); ++c) {
            T_CHECK(qa.rowPtr(r)[c] >= 0);
            T_CHECK(std::fabs(ad(r, c) - act(r, c)) <= tol);
        }
    }

    // Per-tensor granularity: one scale, same bound.
    const QuantizedMatrix qt = QuantizedMatrix::activations(
        act, QuantizedMatrix::Granularity::PerTensor);
    const Matrix td = qt.dequantize();
    const double ttol = 0.5 * qt.scale(0) * (1.0 + 1e-6);
    for (size_t i = 0; i < act.size(); ++i)
        T_CHECK(std::fabs(td.data()[i] - act.data()[i]) <= ttol);
    // Per-tensor scale covers the global range, so it cannot be tighter
    // than the widest per-row scale.
    float maxRowScale = 0.0f;
    for (size_t r = 0; r < act.rows(); ++r)
        maxRowScale = std::max(maxRowScale, qa.scale(r));
    T_CHECK(qt.scale(0) >= maxRowScale * (1.0f - 1e-6f));

    // Degenerate all-zero inputs quantize to exact zeros.
    const Matrix z = Matrix::zeros(3, 5);
    T_CHECK(maxAbs(QuantizedMatrix::weights(z).dequantize()) == 0.0f);
    T_CHECK(maxAbs(QuantizedMatrix::activations(z).dequantize()) == 0.0f);
}

/** Activation quantization rides the active GEMM backend (the AVX2
 * build vectorizes the range scan and round/clamp/cast sweep); the
 * codes, scales, and zero points must not depend on that choice. */
void
testQuantizeBackendParity()
{
    if (!avx2Here())
        return;
    ModeGuard guard;
    Rng rng(0xABC9);
    // Odd widths exercise the vector tail; the all-zero row the
    // degenerate group path.
    for (size_t cols : {1u, 7u, 8u, 40u, 197u}) {
        Matrix act = Matrix::randn(5, cols, rng, 0.7f, 1.3f);
        for (size_t c = 0; c < cols; ++c)
            act(2, c) = 0.0f;
        for (auto g : {QuantizedMatrix::Granularity::PerRow,
                       QuantizedMatrix::Granularity::PerTensor}) {
            Gemm::setActive(Gemm::Backend::Scalar);
            const QuantizedMatrix qs =
                QuantizedMatrix::activations(act, g);
            Gemm::setActive(Gemm::Backend::Avx2);
            const QuantizedMatrix qv =
                QuantizedMatrix::activations(act, g);
            for (size_t r = 0; r < act.rows(); ++r) {
                T_CHECK(qs.scale(r) == qv.scale(r));
                T_CHECK(qs.zeroPoint(r) == qv.zeroPoint(r));
                for (size_t c = 0; c < cols; ++c)
                    T_CHECK(qs.rowPtr(r)[c] == qv.rowPtr(r)[c]);
            }
        }
    }
}

void
testOperandValidation()
{
    Rng rng(0xABC2);
    Matrix a, b, dst;
    makeOperands(a, b, Gemm::Trans::None, 4, 8, 16, rng);
    const QuantizedMatrix qa = QuantizedMatrix::activations(a);
    const QuantizedMatrix qb = QuantizedMatrix::weights(b);

    // Kinds are enforced: activations first, weights second.
    T_CHECK_THROWS(Gemm::multiply(dst, qb, qb), std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(dst, qa, qa), std::invalid_argument);

    // Per-row activation scales are incompatible with Trans::A (the
    // rows of the stored matrix are op(A) columns there).
    Matrix at, bt;
    makeOperands(at, bt, Gemm::Trans::A, 4, 8, 16, rng);
    const QuantizedMatrix qat = QuantizedMatrix::activations(at);
    const QuantizedMatrix qbt = QuantizedMatrix::weights(bt);
    T_CHECK_THROWS(Gemm::multiply(dst, qat, qbt, Gemm::Trans::A),
                   std::invalid_argument);
    const QuantizedMatrix qpt = QuantizedMatrix::activations(
        at, QuantizedMatrix::Granularity::PerTensor);
    Gemm::multiply(dst, qpt, qbt, Gemm::Trans::A);
    T_CHECK(dst.rows() == 4 && dst.cols() == 8);

    // Shape mismatch surfaces like the fp32 path.
    const QuantizedMatrix qbad =
        QuantizedMatrix::weights(Matrix::zeros(3, 8));
    T_CHECK_THROWS(Gemm::multiply(dst, qa, qbad), std::invalid_argument);
}

/**
 * Per-element error bound from tensor/gemm.h: with a-hat/w-hat the
 * dequantized operands, sa the activation row scale and sw the weight
 * scale,
 *
 *   |c_int8 - c_fp32| <= sa/2 * sum_k |w_hat_kj| + sw/2 * sum_k |a_ik|
 *
 * plus float rounding slack. The reference product is computed in
 * double so the slack term stays tiny.
 */
void
testErrorBoundVsFp64()
{
    Rng rng(0xABC3);
    const size_t shapes[][3] = {
        {8, 33, 64}, {17, 5, 197}, {64, 64, 64}, {3, 16, 384}};
    for (const auto &s : shapes) {
        const size_t m = s[0], n = s[1], k = s[2];
        for (Gemm::Trans trans :
             {Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B}) {
            Matrix a, b;
            makeOperands(a, b, trans, m, n, k, rng);
            QuantizedMatrix qa, qb;
            quantizePair(qa, qb, a, b, trans);
            const Matrix wd = qb.dequantize();
            Matrix c;
            Gemm::multiply(c, qa, qb, trans);

            const float sw = qb.scale(0);
            for (size_t i = 0; i < m; ++i) {
                const float sa =
                    qa.granularity() ==
                            QuantizedMatrix::Granularity::PerRow
                        ? qa.scale(i)
                        : qa.scale(0);
                for (size_t j = 0; j < n; ++j) {
                    double ref = 0.0, sumW = 0.0, sumA = 0.0;
                    for (size_t kk = 0; kk < k; ++kk) {
                        const double av = opAElem(a, trans, i, kk);
                        const double wv = opBElem(b, trans, kk, j);
                        ref += av * wv;
                        sumW += std::fabs(opBElem(wd, trans, kk, j));
                        sumA += std::fabs(av);
                    }
                    const double bound =
                        (0.5 * sa * sumW + 0.5 * sw * sumA) * 1.001 +
                        1e-4;
                    if (!(std::fabs(c(i, j) - ref) <= bound)) {
                        T_CHECK(false);
                        std::printf(
                            "  %s m=%zu n=%zu k=%zu (%zu,%zu): "
                            "got=%.6g ref=%.6g bound=%.3g\n",
                            transName(trans), m, n, k, i, j,
                            static_cast<double>(c(i, j)), ref,
                            bound);
                        return;
                    }
                }
            }
        }
    }
}

/**
 * The scalar and AVX2 int8 backends must agree bitwise on every shape
 * and transpose mode: the integer accumulation is exact in any order
 * and both run the same dequant float program (gemm_int8.h).
 */
void
testScalarAvx2BitwiseParity()
{
    if (!avx2Here()) {
        std::printf("  (AVX2 unavailable; parity test skipped)\n");
        return;
    }
    Rng rng(0xABC4);
    const size_t sizes[] = {1, 2, 3, 5, 8, 17, 64, 197};
    for (Gemm::Trans trans :
         {Gemm::Trans::None, Gemm::Trans::A, Gemm::Trans::B}) {
        for (size_t m : sizes) {
            for (size_t n : sizes) {
                for (size_t k : sizes) {
                    Matrix a, b;
                    makeOperands(a, b, trans, m, n, k, rng);
                    QuantizedMatrix qa, qb;
                    quantizePair(qa, qb, a, b, trans);
                    Matrix cs, cv;
                    Gemm::multiply(cs, qa, qb, trans, Gemm::Epilogue{},
                                   Gemm::Backend::Scalar);
                    Gemm::multiply(cv, qa, qb, trans, Gemm::Epilogue{},
                                   Gemm::Backend::Avx2);
                    if (!(cs == cv)) {
                        T_CHECK(false);
                        std::printf("  mismatch %s m=%zu n=%zu k=%zu "
                                    "maxdiff=%.3g\n",
                                    transName(trans), m, n, k,
                                    static_cast<double>(
                                        maxAbsDiff(cs, cv)));
                        return;
                    }
                }
            }
        }
    }
}

/** Epilogues on the quantized path: fused == unfused bitwise, and the
 * backends agree bitwise under every epilogue combination. */
void
testEpilogueParity()
{
    ModeGuard guard;
    Rng rng(0xABC5);
    const size_t m = 17, n = 64, k = 33;
    Matrix a, b;
    makeOperands(a, b, Gemm::Trans::None, m, n, k, rng);
    QuantizedMatrix qa, qb;
    quantizePair(qa, qb, a, b, Gemm::Trans::None);
    const Matrix bias = Matrix::randn(1, n, rng, 0.0f, 0.3f);
    const Matrix seed = Matrix::randn(m, n, rng, 0.0f, 0.5f);

    // The GELU act runs the geluApprox8 vector program on the AVX2
    // path in every epilogue mode — the parity loop below pins it
    // bitwise against the scalar backend's geluScalar, with and
    // without a residual accumulate after it.
    const Gemm::Epilogue accumulateBiasGelu{true, &bias,
                                            Gemm::Epilogue::Act::Gelu};

    const Gemm::Epilogue epilogues[] = {
        Gemm::Epilogue{},
        Gemm::Epilogue::withBias(bias),
        Gemm::Epilogue::withBiasGelu(bias),
        accumulateBiasGelu,
        Gemm::Epilogue::accumulateWithBias(bias),
    };
    std::vector<Gemm::Backend> backends{Gemm::Backend::Scalar};
    if (avx2Here())
        backends.push_back(Gemm::Backend::Avx2);

    for (const Gemm::Epilogue &ep : epilogues) {
        Matrix ref;
        bool haveRef = false;
        for (Gemm::Backend backend : backends) {
            for (Gemm::EpilogueMode mode :
                 {Gemm::EpilogueMode::Fused,
                  Gemm::EpilogueMode::Unfused}) {
                Gemm::setEpilogueMode(mode);
                Matrix c = seed; // accumulate needs a seeded dst
                Gemm::multiply(c, qa, qb, Gemm::Trans::None, ep,
                               backend);
                if (!haveRef) {
                    ref = c;
                    haveRef = true;
                } else {
                    T_CHECK(c == ref);
                }
            }
        }
        Gemm::setEpilogueMode(guard.epilogue);
    }
}

void
testModePlumbing()
{
    ModeGuard guard;
    T_CHECK(Gemm::parseQuantMode("off") == Gemm::QuantMode::Off);
    T_CHECK(Gemm::parseQuantMode("int8") == Gemm::QuantMode::Int8);
    T_CHECK(!Gemm::parseQuantMode("int4").has_value());
    T_CHECK(std::string(Gemm::quantModeName(Gemm::QuantMode::Off)) ==
            "off");
    T_CHECK(std::string(Gemm::quantModeName(Gemm::QuantMode::Int8)) ==
            "int8");
    // Setter round-trips (the process default depends on VITALITY_QUANT,
    // which CI sets on some legs, so no assertion on the initial value).
    Gemm::setQuantMode(Gemm::QuantMode::Int8);
    T_CHECK(Gemm::quantMode() == Gemm::QuantMode::Int8);
    Gemm::setQuantMode(Gemm::QuantMode::Off);
    T_CHECK(Gemm::quantMode() == Gemm::QuantMode::Off);
}

/**
 * Whole-encoder deviation: at DeiT shapes the int8 dense path tracks
 * fp32 to well under the residual-stream scale. The asserted ceilings
 * (max |y_int8 - y_fp32| <= 0.25 absolute at DeiT-Small, <= 0.35 at
 * the Base-shaped config; README "Execution knobs") were chosen as
 * ~4x the measured deviation so they catch regressions, not noise.
 */
void
testEncoderInt8Deviation()
{
    ModeGuard guard;
    ThreadPool pool(2);

    // Pinned all-1.0 schedules: fp32 and int8 must compare the same
    // token rows even under a VITALITY_TOKENS pruning sweep.
    VitConfig small = VitConfig::deitSmall();
    small.tokenKeep.assign(small.layers, 1.0f);
    VitConfig baseish = VitConfig::deitBase();
    baseish.layers = 2; // full Base is bench territory; keep tests fast
    baseish.tokens = 64;
    baseish.tokenKeep.assign(baseish.layers, 1.0f);
    const struct
    {
        const VitConfig &cfg;
        double bound;
    } cases[] = {{small, 0.25}, {baseish, 0.35}};

    for (const auto &tc : cases) {
        Rng rng(0x9e1);
        const Matrix x =
            Matrix::randn(tc.cfg.tokens, tc.cfg.dModel, rng, 0.0f, 1.0f);
        VitEncoder encoder(tc.cfg, makeAttention(AttentionType::Softmax),
                           0x77);

        Gemm::setQuantMode(Gemm::QuantMode::Off);
        const Matrix yFp = encoder.forward(x, pool);
        Gemm::setQuantMode(Gemm::QuantMode::Int8);
        const Matrix yQ = encoder.forward(x, pool);

        const float diff = maxAbsDiff(yFp, yQ);
        T_CHECK(diff > 0.0f); // int8 path actually engaged
        if (!(diff <= tc.bound)) {
            T_CHECK(false);
            std::printf("  %s: maxAbsDiff=%.4g bound=%.3g\n",
                        tc.cfg.name.c_str(), static_cast<double>(diff),
                        tc.bound);
        }

        // Int8 mode is deterministic and a batched ragged forward stays
        // bitwise-identical to per-image forward.
        T_CHECK(encoder.forward(x, pool) == yQ);
        const Matrix *ptrs[] = {&x, &x};
        const RaggedBatch by =
            encoder.forwardRagged(RaggedBatch::fromMatrices(ptrs, 2), pool);
        Matrix img0, img1;
        by.unpackImage(0, img0);
        by.unpackImage(1, img1);
        T_CHECK(img0 == yQ && img1 == yQ);
    }
}

/** VITALITY_QUANT=off leaves every fp32 code path untouched: toggling
 * the knob off reproduces the fp32 result bitwise. */
void
testOffModeUnchanged()
{
    ModeGuard guard;
    ThreadPool pool(2);
    VitConfig cfg = VitConfig::deitTiny();
    cfg.layers = 2;
    Rng rng(0x9e2);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0x88);

    Gemm::setQuantMode(Gemm::QuantMode::Off);
    const Matrix y1 = encoder.forward(x, pool);
    Gemm::setQuantMode(Gemm::QuantMode::Int8);
    (void)encoder.forward(x, pool);
    Gemm::setQuantMode(Gemm::QuantMode::Off);
    T_CHECK(encoder.forward(x, pool) == y1);
}

} // namespace

int
main()
{
    testQuantizeDequantRoundTrip();
    testQuantizeBackendParity();
    testOperandValidation();
    testErrorBoundVsFp64();
    testScalarAvx2BitwiseParity();
    testEpilogueParity();
    testModePlumbing();
    testEncoderInt8Deviation();
    testOffModeUnchanged();
    return vitality::testing::finish("test_quant");
}
