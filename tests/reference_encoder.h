/**
 * @file
 * Test-only per-image reference for the encoder's ragged core.
 *
 * referenceForward runs one image through an encoder's layers using
 * nothing but public stages: layerNormRowsInto, Gemm::multiply with the
 * encoder's fused epilogues against enc.layer(l) — or, under
 * VITALITY_QUANT=int8, against enc.quantizedLayer(l) with per-row
 * QuantizedMatrix activations — and a sequential MultiHeadAttention
 * over the layer's kernel (makeAttention(plan()->spec(l).kernel) for
 * heterogeneous plans). Prepacked plan panels are bitwise-identical to
 * these eager weights (test_plan), so one reference serves planned and
 * eager encoders. It covers unpruned execution only: callers check
 * prunesTokens() or pin an all-1.0 keep schedule.
 */

#ifndef VITALITY_TESTS_REFERENCE_ENCODER_H
#define VITALITY_TESTS_REFERENCE_ENCODER_H

#include <stdexcept>
#include <vector>

#include "attention/zoo.h"
#include "model/encoder_plan.h"
#include "model/token_pruner.h"
#include "model/vit_encoder.h"
#include "runtime/multi_head_attention.h"
#include "runtime/runtime_options.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/quantized_matrix.h"
#include "tensor/ragged_batch.h"

namespace vitality {
namespace testing {

/** A one-image ragged batch holding a copy of m. */
inline RaggedBatch
oneImage(const Matrix &m)
{
    const Matrix *ptr = &m;
    return RaggedBatch::fromMatrices(&ptr, 1);
}

/** forwardRagged of x alone (any row count), unpacked. */
inline Matrix
forwardAlone(VitEncoder &enc, const Matrix &x, ThreadPool &pool)
{
    Matrix out;
    enc.forwardRagged(oneImage(x), pool).unpackImage(0, out);
    return out;
}

/** True if the encoder's effective keep schedule prunes any layer
 * (resolved like the encoder: plan, then config, then the knob). */
inline bool
prunesTokens(const VitEncoder &enc)
{
    const VitConfig &cfg = enc.config();
    std::vector<float> sched = cfg.tokenKeep;
    if (enc.plan()) {
        sched.clear();
        for (size_t l = 0; l < cfg.layers; ++l)
            sched.push_back(enc.plan()->spec(l).tokenKeep);
    } else if (sched.empty()) {
        TokenPruner::buildSchedule(sched, cfg.layers, tokenKeepRatio());
    }
    for (float keep : sched)
        if (keep < 1.0f)
            return true;
    return false;
}

/** The encoder's unpruned float program over one image, stage by stage. */
inline Matrix
referenceForward(VitEncoder &enc, const Matrix &x)
{
    if (prunesTokens(enc))
        throw std::logic_error("referenceForward: schedule prunes");
    const VitConfig &cfg = enc.config();
    const EncoderPlan *plan = enc.plan();
    const bool int8 = Gemm::quantMode() == Gemm::QuantMode::Int8;
    // Non-owning handle on the encoder's own kernel; MultiHeadAttention
    // only calls its const forward.
    const AttentionKernelPtr own(
        AttentionKernelPtr(), const_cast<AttentionKernel *>(&enc.kernel()));

    Matrix y = x, normed, q, k, v, attn, hidden;
    QuantizedMatrix qa;
    for (size_t l = 0; l < cfg.layers; ++l) {
        const VitEncoder::LayerWeights &w = enc.layer(l);
        const VitEncoder::QuantizedLayerWeights *qw =
            int8 ? &enc.quantizedLayer(l) : nullptr;
        auto project = [&](Matrix &dst, const Matrix &a, const Matrix &wf,
                           const QuantizedMatrix *wi,
                           const Gemm::Epilogue &epi) {
            if (qw) {
                qa.assignActivations(a);
                Gemm::multiply(dst, qa, *wi, Gemm::Trans::None, epi);
            } else {
                Gemm::multiply(dst, a, wf, Gemm::Trans::None, epi);
            }
        };
        MultiHeadAttention mha(plan && !plan->uniform()
                                   ? makeAttention(plan->spec(l).kernel)
                                   : own,
                               cfg.heads);

        layerNormRowsInto(normed, y, w.ln1Gamma, w.ln1Beta);
        project(q, normed, w.wq, qw ? &qw->wq : nullptr,
                Gemm::Epilogue::withBias(w.bq));
        project(k, normed, w.wk, qw ? &qw->wk : nullptr,
                Gemm::Epilogue::withBias(w.bk));
        project(v, normed, w.wv, qw ? &qw->wv : nullptr,
                Gemm::Epilogue::withBias(w.bv));
        mha.forwardSequentialInto(q, k, v, attn);
        project(y, attn, w.wo, qw ? &qw->wo : nullptr,
                Gemm::Epilogue::accumulateWithBias(w.bo));
        layerNormRowsInto(normed, y, w.ln2Gamma, w.ln2Beta);
        project(hidden, normed, w.w1, qw ? &qw->w1 : nullptr,
                Gemm::Epilogue::withBiasGelu(w.b1));
        project(y, hidden, w.w2, qw ? &qw->w2 : nullptr,
                Gemm::Epilogue::accumulateWithBias(w.b2));
    }
    return y;
}

} // namespace testing
} // namespace vitality

#endif // VITALITY_TESTS_REFERENCE_ENCODER_H
