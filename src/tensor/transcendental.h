/**
 * @file
 * Shared constants of the polynomial transcendental core.
 *
 * The scalar programs live in tensor/ops.cpp (exp2CoreScalar and
 * friends, baseline ISA, single out-of-line definitions) and the AVX2
 * lane programs in tensor/avx2_math.h; both must execute the exact same
 * operation sequence over the exact same constants for the documented
 * scalar == vector bitwise contract to hold, so the constants live
 * here, once. Only constexpr values — no functions — so including
 * this from the -mavx2 -mfma translation unit can never emit a
 * VEX-encoded body the linker might pick for baseline callers (the
 * geluScalar rationale in tensor/ops.h).
 *
 * Internal to the library; not part of the public ops surface (the
 * sparse layer's quantizer borrows kRoundMagic for the same
 * vectorizable nearest-even rounding).
 */

#ifndef VITALITY_TENSOR_TRANSCENDENTAL_H
#define VITALITY_TENSOR_TRANSCENDENTAL_H

namespace vitality {
namespace detail {

/** 2^f on [-0.5, 0.5]: truncated Taylor, c_i = ln(2)^i / i!. The
 * degree-7 remainder is < 6e-9 relative — below float round-off. */
constexpr float kExp2C1 = 0.69314718055994531f;
constexpr float kExp2C2 = 0.24022650695910072f;
constexpr float kExp2C3 = 0.055504108664821580f;
constexpr float kExp2C4 = 0.0096181291076284772f;
constexpr float kExp2C5 = 0.0013333558146428443f;
constexpr float kExp2C6 = 0.00015403530393381609f;
constexpr float kExp2C7 = 0.000015252733804059841f;

/** 1.5 * 2^23: adding and subtracting rounds to nearest-even without
 * roundps/nearbyint, valid for |z| < 2^22 (the core clamps far below
 * that), so the loops auto-vectorize under baseline SSE2 too. */
constexpr float kRoundMagic = 12582912.0f;

constexpr float kLog2e = 1.4426950408889634f;
constexpr float kTwoLog2e = 2.8853900817779268f;

/** Beyond |x| = 10, (e^2x - 1) / (e^2x + 1) rounds to +/-1 in float. */
constexpr float kTanhClamp = 10.0f;

/** The exp2 core's argument clamp: the normal-exponent range, so the
 * 2^n exponent-bit scale never overflows or denormalizes. */
constexpr float kExp2Clamp = 126.0f;

/** sqrt(2/pi) and the cubic coefficient of the tanh-approximation
 * GELU, exactly as geluScalar spells them. */
constexpr float kGeluSqrt2OverPi = 0.7978845608f;
constexpr float kGeluCubic = 0.044715f;

/**
 * The scalar exp2 core, defined once in ops.cpp (baseline ISA — a
 * declaration here emits nothing, so the no-VEX-bodies rule above
 * still holds): 2^z with z clamped to +/-kExp2Clamp. The AVX2 TU
 * calls it for sub-vector-width tails so every element, vector or
 * scalar, runs the identical program.
 */
float exp2CoreScalar(float z);

} // namespace detail
} // namespace vitality

#endif // VITALITY_TENSOR_TRANSCENDENTAL_H
