/**
 * @file
 * Model-layer tests: DeiT presets, the DeiT-Tiny encoder end-to-end with
 * both the Taylor and softmax kernels, determinism, ragged batches
 * against the single-image view and the per-image reference
 * (reference_encoder.h), and the model-level OpCounts rollup against the
 * per-head counts scaled by heads x layers.
 */

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attention/zoo.h"
#include "base/rng.h"
#include "model/vit_config.h"
#include "model/vit_encoder.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/ragged_batch.h"
#include "reference_encoder.h"
#include "testing.h"

using namespace vitality;
using testing::referenceForward;

namespace {

void
testPresets()
{
    const VitConfig tiny = VitConfig::deitTiny();
    T_CHECK(tiny.layers == 12 && tiny.heads == 3 && tiny.dModel == 192);
    T_CHECK(tiny.tokens == 197 && tiny.headDim() == 64);
    T_CHECK(VitConfig::deitSmall().headDim() == 64);
    T_CHECK(VitConfig::deitBase().headDim() == 64);
    T_CHECK(VitConfig::deitBase().mlpHidden == 4 * 768);
    tiny.validate();
}

bool
allFinite(const Matrix &m)
{
    for (size_t i = 0; i < m.size(); ++i) {
        if (!std::isfinite(m.data()[i]))
            return false;
    }
    return true;
}

void
testDeitTinyEndToEnd()
{
    VitConfig cfg = VitConfig::deitTiny();
    cfg.tokenKeep.assign(cfg.layers, 1.0f); // pin: shape checks below
    Rng rng(0x3311);
    const Matrix x =
        Matrix::randn(cfg.tokens, cfg.dModel, rng, 0.0f, 1.0f);
    ThreadPool pool(3);

    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax}) {
        VitEncoder encoder(cfg, makeAttention(type), 0x1234);
        const Matrix y = encoder.forward(x, pool);
        T_CHECK(y.rows() == cfg.tokens && y.cols() == cfg.dModel);
        T_CHECK(allFinite(y));
        // Residual stream: output moves away from the input but is not
        // blown up by 12 layers of randomly initialized blocks.
        T_CHECK(maxAbsDiff(y, x) > 0.0f);
        T_CHECK(maxAbs(y) < 1e3f);

        // Determinism: same seed, same result, including recycled reruns.
        const Matrix y2 = encoder.forward(x, pool);
        T_CHECK(y == y2);
        VitEncoder twin(cfg, makeAttention(type), 0x1234);
        T_CHECK(twin.forward(x, pool) == y);
    }
}

void
testOpCountRollup()
{
    const VitConfig cfg = VitConfig::deitTiny();
    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax,
          AttentionType::Unified}) {
        AttentionKernelPtr kernel = makeAttention(type);
        VitEncoder encoder(cfg, kernel, 0x5678);

        // The attention rollup is exactly per-head counts x H x L.
        const OpCounts per_head =
            kernel->opCounts(cfg.tokens, cfg.headDim());
        const uint64_t hl = cfg.heads * cfg.layers;
        const OpCounts rolled = encoder.attentionOpCounts();
        T_CHECK(rolled.mul == per_head.mul * hl);
        T_CHECK(rolled.add == per_head.add * hl);
        T_CHECK(rolled.div == per_head.div * hl);
        T_CHECK(rolled.exp == per_head.exp * hl);

        // Total = attention + dense, and dense is kernel-independent.
        const OpCounts total = encoder.opCounts();
        T_CHECK(total.mul ==
                rolled.mul + encoder.denseOpCounts().mul);
        T_CHECK(total.flops() > rolled.flops());
    }

    // Paper-scale sanity: Taylor attention at DeiT-Tiny is ~0.09 GFLOPs
    // model-wide vs ~0.36 GFLOPs for softmax (the 4x gap behind the
    // Table I linear-vs-quadratic accounting at n=197, d=64).
    VitEncoder taylor(cfg, makeAttention(AttentionType::Taylor), 1);
    VitEncoder softmax(cfg, makeAttention(AttentionType::Softmax), 1);
    const double t = static_cast<double>(
        taylor.attentionOpCounts().flops());
    const double s = static_cast<double>(
        softmax.attentionOpCounts().flops());
    T_CHECK(s / t > 2.5 && s / t < 6.0);
}

void
testEncoderRaggedMatchesPerImage()
{
    // A small config keeps the three-kernel sweep fast while exercising
    // the same code paths as the DeiT presets.
    VitConfig cfg{"Test-Small", 2, 3, 48, 19, 96, {}, {}};
    cfg.tokenKeep.assign(cfg.layers, 1.0f); // pin: reference is unpruned
    cfg.validate();
    Rng rng(0x3422);
    std::vector<Matrix> imgs;
    std::vector<const Matrix *> ptrs;
    for (int b = 0; b < 3; ++b)
        imgs.push_back(Matrix::randn(cfg.tokens, cfg.dModel, rng));
    for (const Matrix &m : imgs)
        ptrs.push_back(&m);
    const RaggedBatch x = RaggedBatch::fromMatrices(ptrs.data(), 3);
    ThreadPool pool(4);

    for (AttentionType type :
         {AttentionType::Taylor, AttentionType::Softmax,
          AttentionType::Unified}) {
        VitEncoder encoder(cfg, makeAttention(type), 0x7777);
        const RaggedBatch y = encoder.forwardRagged(x, pool);
        T_CHECK(y.offsets() == x.offsets() && y.cols() == cfg.dModel);
        // Bitwise parity with the single-image view and the per-image
        // reference built from the public stages.
        Matrix img;
        for (size_t b = 0; b < imgs.size(); ++b) {
            y.unpackImage(b, img);
            T_CHECK(img == encoder.forward(imgs[b], pool));
            T_CHECK(img == referenceForward(encoder, imgs[b]));
        }
        // Recycled rerun stays identical.
        T_CHECK(encoder.forwardRagged(x, pool) == y);
    }

    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0x7777);
    const RaggedBatch empty;
    T_CHECK_THROWS(encoder.forwardRagged(empty, pool),
                   std::invalid_argument);
    const Matrix wrong = Matrix::randn(cfg.tokens + 1, cfg.dModel, rng);
    T_CHECK_THROWS(encoder.forward(wrong, pool), std::invalid_argument);
}

/**
 * A kernel whose forwardInto blocks until released, so the test can hold
 * one encoder forward in flight while probing the concurrent-call guard.
 */
class BlockingKernel : public AttentionKernel
{
  public:
    AttentionType type() const override { return AttentionType::Softmax; }
    std::string name() const override { return "Blocking"; }

    Matrix forward(const Matrix &, const Matrix &,
                   const Matrix &v) const override
    {
        return v;
    }

    void forwardInto(AttentionContext &, const Matrix &, const Matrix &,
                     const Matrix &v, Matrix &out) const override
    {
        std::unique_lock<std::mutex> lock(m);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
        out.copyFrom(v);
    }

    OpCounts opCounts(size_t, size_t) const override { return {}; }
    std::vector<ProcessorKind> processors() const override { return {}; }

    void waitEntered() const
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [this] { return entered; });
    }

    void release() const
    {
        {
            std::lock_guard<std::mutex> lock(m);
            released = true;
        }
        cv.notify_all();
    }

  private:
    mutable std::mutex m;
    mutable std::condition_variable cv;
    mutable bool entered = false;
    mutable bool released = false;
};

void
testEncoderRejectsConcurrentCalls()
{
    // The encoder's activation buffers are per instance: a second
    // forward while one is in flight must be refused, not silently
    // corrupt them. The blocking kernel parks the first call inside the
    // attention phase of layer 0.
    const VitConfig cfg{"Test-Tiny", 1, 1, 8, 5, 16, {}, {}};
    auto kernel = std::make_shared<BlockingKernel>();
    VitEncoder encoder(cfg, kernel, 0x2222);
    ThreadPool pool(2);
    Rng rng(0x3455);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    const RaggedBatch xr = testing::oneImage(x);

    std::thread first([&] { (void)encoder.forward(x, pool); });
    kernel->waitEntered();

    Matrix out;
    T_CHECK_THROWS(encoder.forwardInto(x, pool, out), std::logic_error);
    RaggedBatch rout;
    T_CHECK_THROWS(encoder.forwardRaggedInto(xr, pool, rout),
                   std::logic_error);

    kernel->release();
    first.join();

    // Once the first call drains, the instance is usable again.
    encoder.forwardInto(x, pool, out);
    T_CHECK(out.rows() == cfg.tokens && out.cols() == cfg.dModel);
}

void
testEncoderMatchesUnfusedReference()
{
    // The encoder's dense stages are single fused GEMM calls (bias,
    // GELU, and residual in the write-back). The fused epilogue is
    // documented to be bitwise-identical to the separate op passes, so
    // a hand-rolled one-layer reference built from the value ops must
    // match the encoder output exactly.
    const VitConfig cfg{"Test-1L", 1, 2, 16, 9, 32, {}, {}};
    cfg.validate();
    Rng rng(0x34aa);
    const Matrix x = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    ThreadPool pool(2);

    // The bitwise contract below is between the fused write-back and
    // the exact-GELU op sequence; the fast mode swaps the GELU and
    // the int8 mode swaps the whole dense arithmetic by design, so
    // pin both modes for the duration of this test.
    const Gemm::EpilogueMode modeBefore = Gemm::epilogueMode();
    Gemm::setEpilogueMode(Gemm::EpilogueMode::Fused);
    const Gemm::QuantMode quantBefore = Gemm::quantMode();
    Gemm::setQuantMode(Gemm::QuantMode::Off);

    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0xabc);
    const Matrix y = encoder.forward(x, pool);

    const VitEncoder::LayerWeights &w = encoder.layer(0);
    MultiHeadAttention mha(makeAttention(AttentionType::Taylor),
                           cfg.heads);
    const Matrix normed1 = layerNormRows(x, w.ln1Gamma, w.ln1Beta);
    const Matrix q = broadcastAddRow(matmul(normed1, w.wq), w.bq);
    const Matrix k = broadcastAddRow(matmul(normed1, w.wk), w.bk);
    const Matrix v = broadcastAddRow(matmul(normed1, w.wv), w.bv);
    const Matrix attn = mha.forwardSequential(q, k, v);
    const Matrix xr =
        add(x, broadcastAddRow(matmul(attn, w.wo), w.bo));
    const Matrix normed2 = layerNormRows(xr, w.ln2Gamma, w.ln2Beta);
    const Matrix hidden =
        gelu(broadcastAddRow(matmul(normed2, w.w1), w.b1));
    const Matrix ref =
        add(xr, broadcastAddRow(matmul(hidden, w.w2), w.b2));
    T_CHECK(y == ref);
    Gemm::setEpilogueMode(modeBefore);
    Gemm::setQuantMode(quantBefore);
}

void
testDeitTinyRaggedParity()
{
    // One real-preset spot check: DeiT-Tiny, Taylor, B=2.
    VitConfig cfg = VitConfig::deitTiny();
    cfg.tokenKeep.assign(cfg.layers, 1.0f); // pin: reference is unpruned
    Rng rng(0x3433);
    const Matrix x0 = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    const Matrix x1 = Matrix::randn(cfg.tokens, cfg.dModel, rng);
    const Matrix *ptrs[] = {&x0, &x1};
    ThreadPool pool(4);
    VitEncoder encoder(cfg, makeAttention(AttentionType::Taylor), 0x1234);
    const RaggedBatch y =
        encoder.forwardRagged(RaggedBatch::fromMatrices(ptrs, 2), pool);
    Matrix img;
    for (size_t b = 0; b < 2; ++b) {
        y.unpackImage(b, img);
        T_CHECK(img == encoder.forward(*ptrs[b], pool));
        T_CHECK(img == referenceForward(encoder, *ptrs[b]));
    }
}

} // namespace

int
main()
{
    testPresets();
    testDeitTinyEndToEnd();
    testOpCountRollup();
    testEncoderRaggedMatchesPerImage();
    testEncoderRejectsConcurrentCalls();
    testEncoderMatchesUnfusedReference();
    testDeitTinyRaggedParity();
    return vitality::testing::finish("test_model");
}
