#include "replay.h"

#include <map>
#include <stdexcept>

#include "common.h"
#include "model/encoder_plan.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace perfbench {

using vitality::Gemm;
using vitality::RaggedBatch;

const char *const kStageNames[kStageCount] = {
    "ln1", "qkv", "mha", "proj", "ln2", "mlp1_gelu", "mlp2", "prune"};

StageReplay::StageReplay(const vitality::VitEncoder &encoder,
                         vitality::AttentionKernelPtr kernel)
    : enc_(encoder), mha_(std::move(kernel), encoder.config().heads)
{
}

void
StageReplay::run(const RaggedBatch &x, vitality::ThreadPool &pool,
                 RaggedBatch &out, Tracer *tracer, uint64_t call,
                 const LayerHook &hook)
{
    const vitality::EncoderPlan *plan = enc_.plan();
    if (!plan || !plan->uniform())
        throw std::logic_error("replay: encoder needs a uniform plan");
    if (Gemm::quantMode() != Gemm::QuantMode::Off)
        throw std::logic_error("replay: covers fp32 execution only");

    const vitality::VitConfig &cfg = enc_.config();
    const size_t d = cfg.dModel;
    const size_t h = cfg.mlpHidden;
    const auto none = Gemm::Trans::None;
    using Epi = Gemm::Epilogue;

    ScopedSpan forward(tracer, "forward", -1, call, -1, x.totalRows());
    x_.copyFrom(x);
    for (size_t l = 0; l < cfg.layers; ++l) {
        const vitality::VitEncoder::LayerWeights &w = enc_.layer(l);
        const vitality::EncoderPlan::LayerPack &pk = plan->pack(l);
        const size_t rows = x_.totalRows();
        const int li = static_cast<int>(l);
        {
            ScopedSpan layer(tracer, "layer", forward.id(), call, li, rows);
            const int64_t p = layer.id();
            normed_.resize(rows, d);
            hidden_.resize(rows, h);
            q_.resizeLike(x_);
            k_.resizeLike(x_);
            v_.resizeLike(x_);
            {
                ScopedSpan s(tracer, kStageNames[kLn1], p, call, li, rows);
                vitality::layerNormRowsInto(normed_, x_.buffer(),
                                            w.ln1Gamma, w.ln1Beta);
            }
            {
                ScopedSpan s(tracer, kStageNames[kQkv], p, call, li, rows);
                Gemm::multiply(q_.buffer(), normed_, pk.wq, none,
                               Epi::withBias(w.bq));
                Gemm::multiply(k_.buffer(), normed_, pk.wk, none,
                               Epi::withBias(w.bk));
                Gemm::multiply(v_.buffer(), normed_, pk.wv, none,
                               Epi::withBias(w.bv));
            }
            {
                ScopedSpan s(tracer, kStageNames[kMha], p, call, li, rows);
                mha_.forwardRaggedInto(pool, q_, k_, v_, attn_);
            }
            {
                ScopedSpan s(tracer, kStageNames[kProj], p, call, li, rows);
                Gemm::multiply(x_.buffer(), attn_.buffer(), pk.wo, none,
                               Epi::accumulateWithBias(w.bo));
            }
            {
                ScopedSpan s(tracer, kStageNames[kLn2], p, call, li, rows);
                vitality::layerNormRowsInto(normed_, x_.buffer(),
                                            w.ln2Gamma, w.ln2Beta);
            }
            {
                ScopedSpan s(tracer, kStageNames[kMlp1Gelu], p, call, li,
                             rows);
                Gemm::multiply(hidden_, normed_, pk.w1, none,
                               Epi::withBiasGelu(w.b1));
            }
            {
                ScopedSpan s(tracer, kStageNames[kMlp2], p, call, li, rows);
                Gemm::multiply(x_.buffer(), hidden_, pk.w2, none,
                               Epi::accumulateWithBias(w.b2));
            }
            const float keep = plan->spec(l).tokenKeep;
            if (keep < 1.0f) {
                ScopedSpan s(tracer, kStageNames[kPrune], p, call, li,
                             rows);
                pruner_.prune(x_, q_, k_, cfg.heads, keep);
            }
        }
        // Outside every span: the hook (mask-density probe) is not part
        // of the replayed program.
        if (hook)
            hook(l, q_, k_, v_);
    }
    out.copyFrom(x_);
}

std::vector<CallBreakdown>
breakdownByCall(const Tracer &tracer, size_t d, size_t h)
{
    std::map<uint64_t, CallBreakdown> byCall;
    const std::vector<Span> &spans = tracer.spans();
    const double dd = static_cast<double>(d);
    const double dh = static_cast<double>(d) * static_cast<double>(h);
    for (const Span &s : spans) {
        CallBreakdown &b = byCall[s.call];
        const double ms = msBetween(s.start, s.end);
        const double rows = static_cast<double>(s.rows);
        if (s.parent < 0) {
            b.forwardMs += ms;
            continue;
        }
        for (int st = 0; st < kStageCount; ++st) {
            if (std::string(s.name) != kStageNames[st])
                continue;
            b.stageMs[st] += ms;
            // The mul terms of VitEncoder::denseOpCounts, per stage.
            switch (st) {
              case kQkv: b.stageFlops[st] += 3.0 * rows * dd * dd; break;
              case kProj: b.stageFlops[st] += rows * dd * dd; break;
              case kMlp1Gelu: b.stageFlops[st] += rows * dh; break;
              case kMlp2: b.stageFlops[st] += rows * dh; break;
              default: break;
            }
        }
    }
    std::vector<CallBreakdown> out;
    out.reserve(byCall.size());
    for (auto &kv : byCall)
        out.push_back(kv.second);
    return out;
}

ReplayChecks
replayLoop(vitality::VitEncoder &encoder, vitality::AttentionKernelPtr kernel,
           const RaggedBatch &x, vitality::ThreadPool &pool, double seconds,
           bool corrupt, Tracer &tracer, Report &report)
{
    StageReplay replay(encoder, std::move(kernel));
    RaggedBatch forwardOut, replayOut;
    std::vector<double> overhead;
    ReplayChecks checks;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(seconds);
    while (checks.calls < 3 || Clock::now() < deadline) {
        const auto t0 = Clock::now();
        encoder.forwardRaggedInto(x, pool, forwardOut);
        const auto t1 = Clock::now();
        replay.run(x, pool, replayOut, &tracer, checks.calls);
        const auto t2 = Clock::now();
        if (corrupt && checks.calls == 0)
            flipFirstBit(replayOut.buffer());
        if (!bitwiseEqual(forwardOut, replayOut))
            ++checks.mismatches;
        checks.forwardMs.push_back(msBetween(t0, t1));
        overhead.push_back(msBetween(t1, t2) / msBetween(t0, t1) - 1.0);
        ++checks.calls;
    }

    const vitality::VitConfig &cfg = encoder.config();
    const std::vector<CallBreakdown> calls =
        breakdownByCall(tracer, cfg.dModel, cfg.mlpHidden);
    std::vector<double> ln, unattributed;
    std::vector<double> ms[kStageCount], gflops[kStageCount];
    for (const CallBreakdown &c : calls) {
        double staged = 0.0;
        for (int st = 0; st < kStageCount; ++st) {
            staged += c.stageMs[st];
            ms[st].push_back(c.stageMs[st]);
            gflops[st].push_back(c.stageMs[st] > 0.0
                                     ? c.stageFlops[st] / c.stageMs[st] * 1e-6
                                     : 0.0);
        }
        ln.push_back(c.stageMs[kLn1] + c.stageMs[kLn2]);
        unattributed.push_back(1.0 - staged / c.forwardMs);
    }
    report.add("tensor.ln_ms", summarize(ln));
    report.add("tensor.qkv_ms", summarize(ms[kQkv]));
    report.add("tensor.qkv_gflops", summarize(gflops[kQkv]));
    report.add("tensor.proj_ms", summarize(ms[kProj]));
    report.add("tensor.proj_gflops", summarize(gflops[kProj]));
    report.add("tensor.mlp1_gelu_ms", summarize(ms[kMlp1Gelu]));
    report.add("tensor.mlp1_gelu_gflops", summarize(gflops[kMlp1Gelu]));
    report.add("tensor.mlp2_ms", summarize(ms[kMlp2]));
    report.add("tensor.mlp2_gflops", summarize(gflops[kMlp2]));
    report.add("runtime.mha_ms", summarize(ms[kMha]));
    bool prunes = false;
    for (size_t l = 0; l < cfg.layers; ++l)
        prunes = prunes || encoder.plan()->spec(l).tokenKeep < 1.0f;
    report.add("model.prune_ms", summarize(ms[kPrune]),
               prunes ? "" : "keep 1.0: pruner not run");
    report.add("model.tokens_kept_frac",
               single(static_cast<double>(forwardOut.totalRows()) /
                      static_cast<double>(x.totalRows())));
    report.add("trace.unattributed_frac", summarize(unattributed));
    report.add("trace.overhead_frac", summarize(overhead),
               "replay vs forwardRaggedInto, paired");
    return checks;
}

} // namespace perfbench
