#include "model/vit_encoder.h"

#include <stdexcept>

#include "attention/zoo.h"
#include "base/check.h"
#include "base/logging.h"
#include "base/rng.h"
#include "model/encoder_plan.h"
#include "runtime/call_guard.h"
#include "runtime/runtime_options.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace vitality {

namespace {

const char *const kConcurrentCall =
    "VitEncoder: concurrent forward on one instance (activation "
    "buffers are not shareable; use one instance per caller)";

// One float program serves every entry point: forwardInto is a
// one-image view over the same ragged core forwardRaggedInto runs, and
// the helpers below run each dense stage over the whole concatenated
// token buffer. Every dense stage rides the fused GEMM epilogue
// (tensor/gemm.h): bias adds, the GELU, and the residual adds happen
// in the GEMM write-back instead of as extra full passes over the
// activations — and fused epilogues are bitwise-identical to the
// unfused op sequence, so the parity guarantees survive the fusion.
//
// Each helper takes an optional QuantizedLayerWeights pointer: when
// non-null (VITALITY_QUANT=int8) the dense GEMM is replaced by its
// quantized twin — the fp32 activation is quantized per-row into a
// thread-local scratch and multiplied against the cached int8 weights
// with the very same epilogue descriptor, so bias/GELU/residual
// semantics are unchanged. Quantization is a deterministic per-row
// function of the activation floats, so an image's result stays
// bitwise-independent of its batch-mates in int8 mode too.

// Per-worker activation-quantization scratch. Each dense stage
// re-quantizes into it, so at most one lives per pool worker.
QuantizedMatrix &
quantScratch(const Matrix &src)
{
    static thread_local QuantizedMatrix t_qact;
    t_qact.assignActivations(src);
    return t_qact;
}

// One dense-stage projection, prepacked when the layer carries a plan
// pack (results are bitwise-identical either way — the prepacked
// panels ARE the per-call pack output, and the scalar backend runs an
// unpack-free reference path against the borrowed source).
void
projectFp32(Matrix &dst, const Matrix &a, const Matrix &w,
            const PackedMatrix *p, const Gemm::Epilogue &epi)
{
    if (p)
        Gemm::multiply(dst, a, *p, Gemm::Trans::None, epi);
    else
        Gemm::multiply(dst, a, w, Gemm::Trans::None, epi);
}

// Int8 twin: prepacked panels only when the plan packed them
// (PlanOptions::packInt8); otherwise the eager quantized multiply
// against the cached int8 weights.
void
projectInt8(Matrix &dst, const QuantizedMatrix &a,
            const QuantizedMatrix &w, const PackedMatrix *p,
            const Gemm::Epilogue &epi)
{
    if (p && p->hasInt8())
        Gemm::multiply(dst, a, *p, Gemm::Trans::None, epi);
    else
        Gemm::multiply(dst, a, w, Gemm::Trans::None, epi);
}

// LN1 and the QKV projections: normed, q, k, v <- LN1(x), packed QKV.
// The three projections share one quantization of `normed`.
void
attentionPre(const VitEncoder::LayerWeights &w,
             const VitEncoder::QuantizedLayerWeights *qw,
             const EncoderPlan::LayerPack *pk, const Matrix &x,
             Matrix &normed, Matrix &q, Matrix &k, Matrix &v)
{
    layerNormRowsInto(normed, x, w.ln1Gamma, w.ln1Beta);
    if (qw) {
        const QuantizedMatrix &qa = quantScratch(normed);
        projectInt8(q, qa, qw->wq, pk ? &pk->wq : nullptr,
                    Gemm::Epilogue::withBias(w.bq));
        projectInt8(k, qa, qw->wk, pk ? &pk->wk : nullptr,
                    Gemm::Epilogue::withBias(w.bk));
        projectInt8(v, qa, qw->wv, pk ? &pk->wv : nullptr,
                    Gemm::Epilogue::withBias(w.bv));
        return;
    }
    projectFp32(q, normed, w.wq, pk ? &pk->wq : nullptr,
                Gemm::Epilogue::withBias(w.bq));
    projectFp32(k, normed, w.wk, pk ? &pk->wk : nullptr,
                Gemm::Epilogue::withBias(w.bk));
    projectFp32(v, normed, w.wv, pk ? &pk->wv : nullptr,
                Gemm::Epilogue::withBias(w.bv));
}

// Output projection and residual, one fused call: x += W_O attn + b_O.
void
attentionPost(const VitEncoder::LayerWeights &w,
              const VitEncoder::QuantizedLayerWeights *qw,
              const EncoderPlan::LayerPack *pk, Matrix &x,
              const Matrix &attn)
{
    if (qw) {
        projectInt8(x, quantScratch(attn), qw->wo,
                    pk ? &pk->wo : nullptr,
                    Gemm::Epilogue::accumulateWithBias(w.bo));
        return;
    }
    projectFp32(x, attn, w.wo, pk ? &pk->wo : nullptr,
                Gemm::Epilogue::accumulateWithBias(w.bo));
}

// MLP block: x += W_2 GELU(W_1 LN2(x)). The GELU rides the first
// GEMM's write-back, the bias + residual the second's — no separate
// pass over the model's largest activation matrix remains.
void
mlpBlock(const VitEncoder::LayerWeights &w,
         const VitEncoder::QuantizedLayerWeights *qw,
         const EncoderPlan::LayerPack *pk, Matrix &x, Matrix &normed,
         Matrix &hidden)
{
    layerNormRowsInto(normed, x, w.ln2Gamma, w.ln2Beta);
    if (qw) {
        projectInt8(hidden, quantScratch(normed), qw->w1,
                    pk ? &pk->w1 : nullptr,
                    Gemm::Epilogue::withBiasGelu(w.b1));
        projectInt8(x, quantScratch(hidden), qw->w2,
                    pk ? &pk->w2 : nullptr,
                    Gemm::Epilogue::accumulateWithBias(w.b2));
        return;
    }
    projectFp32(hidden, normed, w.w1, pk ? &pk->w1 : nullptr,
                Gemm::Epilogue::withBiasGelu(w.b1));
    projectFp32(x, hidden, w.w2, pk ? &pk->w2 : nullptr,
                Gemm::Epilogue::accumulateWithBias(w.b2));
}

} // namespace

VitEncoder::VitEncoder(VitConfig config, AttentionKernelPtr kernel,
                       uint64_t seed)
    : cfg_(std::move(config)), mha_(std::move(kernel), cfg_.heads)
{
    cfg_.validate();

    const size_t d = cfg_.dModel;
    const size_t h = cfg_.mlpHidden;
    // DeiT's trunc-normal(0.02) init, without the truncation (the tails
    // are irrelevant to compute structure).
    const float w_std = 0.02f;

    Rng rng(seed);
    layers_.reserve(cfg_.layers);
    for (size_t l = 0; l < cfg_.layers; ++l) {
        LayerWeights w;
        w.ln1Gamma = Matrix::ones(1, d);
        w.ln1Beta = Matrix::zeros(1, d);
        w.wq = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.wk = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.wv = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.bq = Matrix::zeros(1, d);
        w.bk = Matrix::zeros(1, d);
        w.bv = Matrix::zeros(1, d);
        w.wo = Matrix::randn(d, d, rng, 0.0f, w_std);
        w.bo = Matrix::zeros(1, d);
        w.ln2Gamma = Matrix::ones(1, d);
        w.ln2Beta = Matrix::zeros(1, d);
        w.w1 = Matrix::randn(d, h, rng, 0.0f, w_std);
        w.b1 = Matrix::zeros(1, h);
        w.w2 = Matrix::randn(h, d, rng, 0.0f, w_std);
        w.b2 = Matrix::zeros(1, d);
        layers_.push_back(std::move(w));
    }
}

VitEncoder::~VitEncoder() = default;

const VitEncoder::QuantizedLayerWeights &
VitEncoder::quantizedLayer(size_t i)
{
    ensureQuantizedWeights();
    return qlayers_.at(i);
}

void
VitEncoder::compilePlan()
{
    compilePlan(PlanOptions{});
}

void
VitEncoder::compilePlan(const PlanOptions &opts)
{
    CallGuard guard(inFlight_, kConcurrentCall);

    // Compile before detaching the old plan, so a throwing compile
    // leaves the encoder in its previous state.
    std::unique_ptr<const EncoderPlan> plan =
        EncoderPlan::compile(*this, opts);

    std::vector<std::unique_ptr<MultiHeadAttention>> mhas;
    if (!plan->uniform()) {
        // Heterogeneous schedule: one dispatch instance per layer.
        // Kernel construction is deterministic (attention/zoo.h), so a
        // layer whose spec names the encoder's own kernel type still
        // computes bitwise-identically to eager execution.
        mhas.reserve(cfg_.layers);
        for (size_t l = 0; l < cfg_.layers; ++l)
            mhas.push_back(std::make_unique<MultiHeadAttention>(
                makeAttention(plan->spec(l).kernel), cfg_.heads));
    }

    // Pre-grow every activation buffer to the plan's high-water
    // footprint, so steady-state forwards recycle already-sized storage
    // instead of growing it mid-request.
    const size_t n = plan->maxTokens();
    const size_t batch = plan->maxBatch();
    const size_t d = cfg_.dModel;
    const std::vector<size_t> rows(batch, n);
    rx_.resize(rows.data(), batch, d);
    rq_.resize(rows.data(), batch, d);
    rk_.resize(rows.data(), batch, d);
    rv_.resize(rows.data(), batch, d);
    rattn_.resize(rows.data(), batch, d);
    rnormed_.resize(batch * n, d);
    rhidden_.resize(batch * n, cfg_.mlpHidden);

    plan_ = std::move(plan);
    planMha_ = std::move(mhas);
}

void
VitEncoder::clearPlan()
{
    CallGuard guard(inFlight_, kConcurrentCall);
    plan_.reset();
    planMha_.clear();
}

MultiHeadAttention &
VitEncoder::mhaAt(size_t l)
{
    return planMha_.empty() ? mha_ : *planMha_[l];
}

void
VitEncoder::forwardInto(const Matrix &x, ThreadPool &pool, Matrix &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    if (x.rows() != cfg_.tokens || x.cols() != cfg_.dModel) {
        throw std::invalid_argument(
            strfmt("VitEncoder: input %s, expected [%zu x %zu]",
                   x.shapeStr().c_str(), cfg_.tokens, cfg_.dModel));
    }
    const Matrix *image = &x;
    rx_.packFrom(&image, 1);
    runLayers(pool);
    rx_.unpackImage(0, out);
}

Matrix
VitEncoder::forward(const Matrix &x, ThreadPool &pool)
{
    Matrix out;
    forwardInto(x, pool, out);
    return out;
}

void
VitEncoder::forwardRaggedInto(const RaggedBatch &x, ThreadPool &pool,
                              RaggedBatch &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    if (x.empty())
        throw std::invalid_argument("VitEncoder: empty ragged batch");
    if (x.cols() != cfg_.dModel) {
        throw std::invalid_argument(
            strfmt("VitEncoder: ragged batch %s, expected %zu columns",
                   x.shapeStr().c_str(), cfg_.dModel));
    }
    VITALITY_CHECK(&out != &x, "VitEncoder: ragged out aliases the input");
    rx_.copyFrom(x);
    runLayers(pool);
    out.copyFrom(rx_);
}

RaggedBatch
VitEncoder::forwardRagged(const RaggedBatch &x, ThreadPool &pool)
{
    RaggedBatch out;
    forwardRaggedInto(x, pool, out);
    return out;
}

void
VitEncoder::runLayers(ThreadPool &pool)
{
    VITALITY_DCHECK(
        check::allFinite(rx_.buffer().data(), rx_.totalRows() * rx_.cols()),
        "VitEncoder: non-finite input");

    const size_t d = cfg_.dModel;
    const size_t h = cfg_.mlpHidden;

    // Effective keep schedule: a compiled plan froze its per-layer
    // schedule at compile time; otherwise the config's explicit
    // per-layer vector wins, then the global VITALITY_TOKENS knob
    // expanded over the default staged schedule (all 1.0 when the
    // knob is 1.0).
    if (plan_) {
        keepSched_.resize(cfg_.layers);
        for (size_t l = 0; l < cfg_.layers; ++l)
            keepSched_[l] = plan_->spec(l).tokenKeep;
    } else if (!cfg_.tokenKeep.empty()) {
        keepSched_ = cfg_.tokenKeep;
    } else {
        TokenPruner::buildSchedule(keepSched_, cfg_.layers,
                                   tokenKeepRatio());
    }

    const bool int8 = Gemm::quantMode() == Gemm::QuantMode::Int8;
    if (int8)
        ensureQuantizedWeights();

    for (size_t l = 0; l < layers_.size(); ++l) {
        const LayerWeights &w = layers_[l];
        const QuantizedLayerWeights *qw = int8 ? &qlayers_[l] : nullptr;
        const EncoderPlan::LayerPack *pk =
            plan_ ? &plan_->pack(l) : nullptr;
        const size_t total = rx_.totalRows();
        rnormed_.resize(total, d);
        rhidden_.resize(total, h);
        rq_.resizeLike(rx_);
        rk_.resizeLike(rx_);
        rv_.resizeLike(rx_);
        // Dense stages run over the whole concatenated buffer as one
        // fused GEMM per stage: layer norm, the projections, the GELU
        // and the int8 per-row activation quantization are all
        // row-independent, and GEMM row results are bitwise-independent
        // of which other rows share the multiply — so each image's
        // floats match its standalone forward exactly. Issued from the
        // calling thread, the GEMM fans row bands across the pool.
        attentionPre(w, qw, pk, rx_.buffer(), rnormed_, rq_.buffer(),
                     rk_.buffer(), rv_.buffer());
        // Attention is the one stage that needs image boundaries:
        // B x heads ragged work items, each at its own token count.
        mhaAt(l).forwardRaggedInto(pool, rq_, rk_, rv_, rattn_);
        attentionPost(w, qw, pk, rx_.buffer(), rattn_.buffer());
        mlpBlock(w, qw, pk, rx_.buffer(), rnormed_, rhidden_);
        // Progressive pruning: rank by this layer's CLS-attention mass
        // (from the packed Q/K the layer just used) and compact the
        // survivors in place. keep=1.0 layers skip the pruner, so an
        // all-1.0 schedule leaves every token in place.
        if (keepSched_[l] < 1.0f)
            pruner_.prune(rx_, rq_, rk_, cfg_.heads, keepSched_[l]);
    }
}

void
VitEncoder::ensureQuantizedWeights()
{
    if (qlayers_.size() == layers_.size())
        return;
    qlayers_.clear();
    qlayers_.reserve(layers_.size());
    for (const LayerWeights &w : layers_) {
        QuantizedLayerWeights q;
        q.wq.assignWeights(w.wq);
        q.wk.assignWeights(w.wk);
        q.wv.assignWeights(w.wv);
        q.wo.assignWeights(w.wo);
        q.w1.assignWeights(w.w1);
        q.w2.assignWeights(w.w2);
        qlayers_.push_back(std::move(q));
    }
}

OpCounts
VitEncoder::attentionOpCounts() const
{
    return mha_.opCounts(cfg_.tokens, cfg_.dModel) * cfg_.layers;
}

OpCounts
VitEncoder::denseOpCounts() const
{
    const uint64_t n = cfg_.tokens;
    const uint64_t d = cfg_.dModel;
    const uint64_t h = cfg_.mlpHidden;

    OpCounts c;
    // QKV + output projections: 4 GEMMs of n x d by d x d, plus biases.
    c.mul = 4ULL * n * d * d;
    c.add = 4ULL * n * d * d + 4ULL * n * d;
    // MLP: n x d by d x h and n x h by h x d, plus biases.
    c.mul += 2ULL * n * d * h;
    c.add += 2ULL * n * d * h + n * h + n * d;
    // Two layer norms: mean + variance accumulations (2 n d adds each),
    // a scale and a shift per element, one divide per element.
    c.add += 2ULL * (2ULL * n * d + n * d);
    c.mul += 2ULL * (2ULL * n * d);
    c.div += 2ULL * n * d;
    // GELU on the hidden activations: one transcendental per element.
    c.exp += n * h;
    // Residual adds.
    c.add += 2ULL * n * d;
    return c * cfg_.layers;
}

OpCounts
VitEncoder::opCounts() const
{
    return attentionOpCounts() + denseOpCounts();
}

} // namespace vitality
