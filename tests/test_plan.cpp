/**
 * @file
 * Compiled-plan suite: PackedMatrix / prepacked-GEMM parity, the
 * EncoderPlan compile step, and planned VitEncoder execution.
 *
 * The acceptance-grade assertion lives here: a planned encoder with a
 * uniform schedule is BITWISE-identical to the eager encoder — for
 * every kernel in the zoo, under fp32 and int8 dense stages, with
 * pruning off (keep 1.0) and on (keep 0.5), through the single-image
 * view and the ragged path; every ragged image also equals that image
 * alone and, unpruned, the per-image reference (reference_encoder.h).
 * The prepacked weight panels are the same bytes the per-call pack
 * loop would have produced and the scalar backend runs an unpack-free
 * reference path, so "prepacked" must never mean "different floats".
 *
 * Heterogeneous schedules are cross-checked against ground truth:
 * kernel construction is deterministic, so a Taylor encoder planned
 * with an all-Softmax schedule must match a Softmax encoder built
 * from the same seed exactly.
 */

#include <stdexcept>
#include <vector>

#include "alloc_tracker.h"
#include "attention/zoo.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "runtime/runtime_options.h"
#include "runtime/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/packed_weights.h"
#include "tensor/quantized_matrix.h"
#include "tensor/ragged_batch.h"
#include "reference_encoder.h"
#include "testing.h"

using namespace vitality;

namespace {

/** Restores the quant mode on scope exit. */
struct QuantGuard
{
    Gemm::QuantMode prev = Gemm::quantMode();
    ~QuantGuard() { Gemm::setQuantMode(prev); }
};

VitConfig
planConfig()
{
    VitConfig cfg;
    cfg.name = "plan-tiny";
    cfg.layers = 4;
    cfg.heads = 2;
    cfg.dModel = 32;
    cfg.tokens = 24;
    cfg.mlpHidden = 64;
    return cfg;
}

std::vector<Gemm::Backend>
availableBackends()
{
    std::vector<Gemm::Backend> out{Gemm::Backend::Scalar};
    if (Gemm::available(Gemm::Backend::Avx2))
        out.push_back(Gemm::Backend::Avx2);
    return out;
}

/** Prepacked fp32 GEMM is bitwise-identical to eager on every
 * backend, across epilogues and both bakeable trans forms. */
void
testPackedGemmFp32Parity()
{
    Rng rng(7);
    const size_t m = 13, k = 37, n = 25;
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    const Matrix bt = Matrix::randn(n, k, rng); // op(B) via Trans::B
    const Matrix at = Matrix::randn(k, m, rng); // op(A) via Trans::A
    const Matrix bias = Matrix::randn(1, n, rng);
    const Matrix seed = Matrix::randn(m, n, rng);

    PackedMatrix pb;
    pb.packFp32(b);
    PackedMatrix pbt;
    pbt.packFp32(bt, Gemm::Trans::B);
    T_CHECK(pb.hasFp32() && !pb.hasInt8());
    T_CHECK(pb.kDim() == k && pb.nDim() == n);
    T_CHECK(pb.packedBytes() > 0);

    const std::vector<Gemm::Epilogue> epilogues{
        Gemm::Epilogue{}, Gemm::Epilogue::withBias(bias),
        Gemm::Epilogue::withBiasGelu(bias),
        Gemm::Epilogue::accumulateWithBias(bias)};

    for (Gemm::Backend backend : availableBackends()) {
        for (const Gemm::Epilogue &epi : epilogues) {
            Matrix eager = seed, packed = seed;
            Gemm::multiply(eager, a, b, Gemm::Trans::None, epi, backend);
            Gemm::multiply(packed, a, pb, Gemm::Trans::None, epi,
                           backend);
            T_CHECK(eager == packed);
        }
        // op(B) baked at pack time.
        Matrix eager, packed;
        Gemm::multiply(eager, a, bt, Gemm::Trans::B, Gemm::Epilogue{},
                       backend);
        Gemm::multiply(packed, a, pbt, Gemm::Trans::None,
                       Gemm::Epilogue{}, backend);
        T_CHECK(eager == packed);
        // transA against an unbaked pack.
        Gemm::multiply(eager, at, b, Gemm::Trans::A, Gemm::Epilogue{},
                       backend);
        Gemm::multiply(packed, at, pb, Gemm::Trans::A, Gemm::Epilogue{},
                       backend);
        T_CHECK(eager == packed);
    }

    // Inexpressible trans combinations and kind mismatches throw.
    Matrix dst;
    T_CHECK_THROWS(Gemm::multiply(dst, a, pb, Gemm::Trans::B,
                                  Gemm::Epilogue{}),
                   std::invalid_argument);
    T_CHECK_THROWS(Gemm::multiply(dst, at, pbt, Gemm::Trans::A,
                                  Gemm::Epilogue{}),
                   std::invalid_argument);
    PackedMatrix empty;
    T_CHECK_THROWS(Gemm::multiply(dst, a, empty, Gemm::Trans::None,
                                  Gemm::Epilogue{}),
                   std::invalid_argument);
}

/** Prepacked int8 GEMM (panels + pack-time weight sums) is
 * bitwise-identical to the eager quantized multiply. */
void
testPackedGemmInt8Parity()
{
    Rng rng(11);
    const size_t m = 9, k = 40, n = 21;
    const Matrix a = Matrix::randn(m, k, rng);
    const Matrix b = Matrix::randn(k, n, rng);
    const Matrix bias = Matrix::randn(1, n, rng);

    QuantizedMatrix qa;
    qa.assignActivations(a);
    QuantizedMatrix qb;
    qb.assignWeights(b);

    PackedMatrix pb;
    pb.packInt8(qb);
    T_CHECK(pb.hasInt8() && !pb.hasFp32());

    for (Gemm::Backend backend : availableBackends()) {
        Matrix eager, packed;
        Gemm::multiply(eager, qa, qb, Gemm::Trans::None,
                       Gemm::Epilogue::withBias(bias), backend);
        Gemm::multiply(packed, qa, pb, Gemm::Trans::None,
                       Gemm::Epilogue::withBias(bias), backend);
        T_CHECK(eager == packed);
    }

    // A dual-precision pack must agree on op(B)'s shape, and int8
    // packing is weights-only.
    PackedMatrix dual;
    dual.packFp32(b);
    dual.packInt8(qb);
    T_CHECK(dual.hasFp32() && dual.hasInt8());
    Rng rng2(3);
    const Matrix other = Matrix::randn(k + 1, n, rng2);
    PackedMatrix mismatch;
    mismatch.packFp32(other);
    T_CHECK_THROWS(mismatch.packInt8(qb), std::invalid_argument);
    T_CHECK_THROWS(PackedMatrix().packInt8(qa), std::invalid_argument);
}

/** Run every forward path of an encoder pair and assert bitwise
 * parity between them, and of each ragged image against that image
 * alone and (unpruned) the per-image reference. */
void
checkEncoderParity(VitEncoder &ref, VitEncoder &planned,
                   ThreadPool &pool)
{
    const VitConfig &cfg = ref.config();
    Rng rng(0xabc);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    T_CHECK(ref.forward(x, pool) == planned.forward(x, pool));

    RaggedBatch rx;
    const size_t rows[2] = {cfg.tokens, cfg.tokens - 5};
    rx.resize(rows, 2, cfg.dModel);
    rx.buffer().copyFrom(
        Matrix::randn(rx.totalRows(), cfg.dModel, rng, 0.0f, 1.0f));
    const RaggedBatch want = ref.forwardRagged(rx, pool);
    T_CHECK(want == planned.forwardRagged(rx, pool));

    Matrix in, img;
    for (size_t i = 0; i < rx.size(); ++i) {
        rx.unpackImage(i, in);
        want.unpackImage(i, img);
        T_CHECK(img == testing::forwardAlone(ref, in, pool));
        T_CHECK(img == testing::forwardAlone(planned, in, pool));
        if (!testing::prunesTokens(ref)) {
            T_CHECK(img == testing::referenceForward(ref, in));
            T_CHECK(img == testing::referenceForward(planned, in));
        }
    }
}

/** Uniform-schedule planned execution is bitwise-identical to eager
 * for every zoo kernel x {fp32, int8} x keep {1.0, 0.5} x path. */
void
testPlannedEncoderParity()
{
    ThreadPool pool(2);
    for (AttentionType type : allAttentionTypes()) {
        for (const bool int8 : {false, true}) {
            QuantGuard guard;
            Gemm::setQuantMode(int8 ? Gemm::QuantMode::Int8
                                    : Gemm::QuantMode::Off);
            for (const float keep : {1.0f, 0.5f}) {
                const VitConfig cfg = keep < 1.0f
                                          ? planConfig().withTokenKeep(
                                                keep)
                                          : planConfig();
                VitEncoder ref(cfg, makeAttention(type), 42);
                VitEncoder planned(cfg, makeAttention(type), 42);
                PlanOptions opts;
                opts.maxBatch = 2;
                opts.packInt8 = int8;
                planned.compilePlan(opts);
                T_CHECK(planned.plan() != nullptr);
                T_CHECK(planned.plan()->uniform());
                T_CHECK(planned.plan()->hasInt8() == int8);
                checkEncoderParity(ref, planned, pool);
            }
        }
    }
}

/** An all-Softmax schedule over a Taylor encoder computes exactly
 * what a Softmax encoder from the same seed computes. */
void
testHeteroScheduleExecution()
{
    ThreadPool pool(2);
    const VitConfig cfg = planConfig();
    VitEncoder softmax(cfg, makeAttention(AttentionType::Softmax), 42);
    VitEncoder planned(cfg, makeAttention(AttentionType::Taylor), 42);
    PlanOptions opts;
    opts.layerKernels = "softmax:0-3";
    opts.maxBatch = 2;
    planned.compilePlan(opts);
    T_CHECK(!planned.plan()->uniform());
    checkEncoderParity(softmax, planned, pool);

    // A genuinely mixed schedule runs end to end and respects the
    // per-layer specs.
    VitEncoder mixed(cfg, makeAttention(AttentionType::Taylor), 42);
    VitConfig mixedCfg = cfg;
    mixedCfg.layerKernels = "softmax:2-3";
    VitEncoder mixed2(mixedCfg, makeAttention(AttentionType::Taylor),
                      42);
    PlanOptions mixedOpts;
    mixedOpts.layerKernels = "softmax:2-3";
    mixed.compilePlan(mixedOpts);
    mixed2.compilePlan(); // schedule from its config
    T_CHECK(mixed.plan()->spec(0).kernel == AttentionType::Taylor);
    T_CHECK(mixed.plan()->spec(2).kernel == AttentionType::Softmax);
    Rng rng(5);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    T_CHECK(mixed.forward(x, pool) == mixed2.forward(x, pool));

    // clearPlan() returns to eager execution.
    VitEncoder eager(cfg, makeAttention(AttentionType::Taylor), 42);
    mixed.clearPlan();
    T_CHECK(mixed.plan() == nullptr);
    T_CHECK(mixed.forward(x, pool) == eager.forward(x, pool));
}

/** Malformed schedules are rejected everywhere they can enter, and a
 * throwing compile leaves the previous plan attached. */
void
testScheduleValidation()
{
    T_CHECK_THROWS(parseLayerSchedule("taylor"), std::invalid_argument);
    T_CHECK_THROWS(parseLayerSchedule("nope:0-3"),
                   std::invalid_argument);
    T_CHECK_THROWS(parseLayerSchedule("taylor:3-1"),
                   std::invalid_argument);
    T_CHECK_THROWS(parseLayerSchedule("taylor:x"),
                   std::invalid_argument);
    T_CHECK_THROWS(
        expandLayerSchedule("taylor:0-12", 12, AttentionType::Taylor),
        std::invalid_argument);
    T_CHECK_THROWS(expandLayerSchedule("taylor:0-3,softmax:3-5", 12,
                                       AttentionType::Taylor),
                   std::invalid_argument);
    const std::vector<AttentionType> sched = expandLayerSchedule(
        "SOFTMAX:1,linformer:3-4", 6, AttentionType::Taylor);
    T_CHECK(sched[0] == AttentionType::Taylor);
    T_CHECK(sched[1] == AttentionType::Softmax);
    T_CHECK(sched[3] == AttentionType::Linformer);
    T_CHECK(sched[5] == AttentionType::Taylor);

    VitConfig bad = planConfig();
    bad.layerKernels = "softmax:0-99";
    T_CHECK_THROWS(bad.validate(), std::invalid_argument);
    T_CHECK_THROWS(setLayerKernelSchedule("bogus"),
                   std::invalid_argument);
    T_CHECK(!parseLayerKernels("also bogus"));
    T_CHECK(parseLayerKernels("taylor:0-3").has_value());

    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    enc.compilePlan();
    const EncoderPlan *before = enc.plan();
    PlanOptions badOpts;
    badOpts.layerKernels = "softmax:0-99";
    T_CHECK_THROWS(enc.compilePlan(badOpts), std::invalid_argument);
    T_CHECK(enc.plan() == before);
    PlanOptions smallTokens;
    smallTokens.maxTokens = cfg.tokens - 1;
    T_CHECK_THROWS(enc.compilePlan(smallTokens), std::invalid_argument);

    // The ambient knob must not veto models shallower than it was
    // written for: a process-global schedule naming layers this config
    // does not have compiles a uniform plan (with a warning) instead
    // of throwing. An engaged-but-empty PlanOptions schedule pins
    // uniform explicitly, shutting the knob out entirely.
    setLayerKernelSchedule("softmax:0-11"); // planConfig has 4 layers
    enc.compilePlan();
    T_CHECK(enc.plan() != nullptr && enc.plan()->uniform());
    setLayerKernelSchedule("softmax:0-3"); // fits: knob applies...
    enc.compilePlan();
    T_CHECK(!enc.plan()->uniform());
    PlanOptions pinned; // ...unless the options pin uniform
    pinned.layerKernels = std::string();
    enc.compilePlan(pinned);
    T_CHECK(enc.plan()->uniform());
    setLayerKernelSchedule("");
}

/** Planned forwardRagged allocates nothing once warm: the activation
 * buffers were pre-grown at compile time and no per-call packing
 * remains. */
void
testPlannedRaggedZeroAlloc()
{
    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    PlanOptions opts;
    opts.maxBatch = 2;
    enc.compilePlan(opts);

    ThreadPool pool(1);
    Rng rng(9);
    RaggedBatch x, out;
    const size_t rows[2] = {cfg.tokens, cfg.tokens - 7};
    x.resize(rows, 2, cfg.dModel);
    x.buffer().copyFrom(
        Matrix::randn(x.totalRows(), cfg.dModel, rng, 0.0f, 1.0f));

    enc.forwardRaggedInto(x, pool, out);
    enc.forwardRaggedInto(x, pool, out);
    testing::AllocationProbe probe;
    enc.forwardRaggedInto(x, pool, out);
    T_CHECK(probe.allocations() == 0);
}

/** Plan introspection: packed byte counts and the summary line. */
void
testPlanIntrospection()
{
    const VitConfig cfg = planConfig();
    VitEncoder enc(cfg, makeAttention(AttentionType::Taylor));
    PlanOptions opts;
    opts.maxBatch = 4;
    opts.packInt8 = true;
    enc.compilePlan(opts);
    const EncoderPlan &plan = *enc.plan();
    T_CHECK(plan.layers() == cfg.layers);
    T_CHECK(plan.maxTokens() == cfg.tokens);
    T_CHECK(plan.maxBatch() == 4);
    // fp32 panels alone hold >= one float per weight element
    // (column-padded to the panel width), per layer: 4 d^2 + 2 d h.
    const size_t weightFloats =
        cfg.layers *
        (4 * cfg.dModel * cfg.dModel + 2 * cfg.dModel * cfg.mlpHidden);
    T_CHECK(plan.packedBytes() >= weightFloats * sizeof(float));
    T_CHECK(plan.workspaceFloats() ==
            4 * cfg.tokens * (6 * cfg.dModel + cfg.mlpHidden));
    T_CHECK(!plan.summary().empty());
}

} // namespace

int
main()
{
    testPackedGemmFp32Parity();
    testPackedGemmInt8Parity();
    testPlannedEncoderParity();
    testHeteroScheduleExecution();
    testScheduleValidation();
    testPlannedRaggedZeroAlloc();
    testPlanIntrospection();
    return vitality::testing::finish("test_plan");
}
