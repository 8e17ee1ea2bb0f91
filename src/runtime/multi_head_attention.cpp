#include "runtime/multi_head_attention.h"

#include <stdexcept>

#include "base/check.h"
#include "base/logging.h"

namespace vitality {

MultiHeadAttention::MultiHeadAttention(AttentionKernelPtr kernel,
                                       size_t heads)
    : kernel_(std::move(kernel)), heads_(heads)
{
    if (!kernel_)
        throw std::invalid_argument("MultiHeadAttention: null kernel");
    if (heads_ == 0)
        throw std::invalid_argument("MultiHeadAttention: zero heads");
}

namespace {

const char *const kConcurrentCall =
    "MultiHeadAttention: concurrent forward on one instance "
    "(per-worker contexts are not shareable; use one instance "
    "per caller)";

} // namespace

void
MultiHeadAttention::checkShapes(const Matrix &q, const Matrix &k,
                                const Matrix &v) const
{
    if (q.cols() != k.cols() || k.cols() != v.cols() ||
        k.rows() != v.rows()) {
        throw std::invalid_argument(
            strfmt("multi-head: packed shape mismatch Q=%s K=%s V=%s",
                   q.shapeStr().c_str(), k.shapeStr().c_str(),
                   v.shapeStr().c_str()));
    }
    if (q.rows() == 0 || k.rows() == 0) {
        throw std::invalid_argument(
            strfmt("multi-head: empty token dimension Q=%s K=%s",
                   q.shapeStr().c_str(), k.shapeStr().c_str()));
    }
    // cols % heads == 0 with cols > 0 guarantees d_h >= 1, so this is
    // the only way to reach a zero head dimension.
    if (q.cols() == 0) {
        throw std::invalid_argument(
            "multi-head: zero-width packed input (head dim would be 0)");
    }
    if (q.cols() % heads_ != 0) {
        throw std::invalid_argument(
            strfmt("multi-head: %zu columns not divisible by %zu heads",
                   q.cols(), heads_));
    }
}

void
MultiHeadAttention::checkRaggedShapes(const RaggedBatch &q,
                                      const RaggedBatch &k,
                                      const RaggedBatch &v) const
{
    if (q.empty())
        throw std::invalid_argument("multi-head: empty ragged batch");
    if (q.size() != k.size() || k.size() != v.size()) {
        throw std::invalid_argument(
            strfmt("multi-head: ragged size mismatch Q=%zu K=%zu V=%zu",
                   q.size(), k.size(), v.size()));
    }
    if (q.cols() != k.cols() || k.cols() != v.cols()) {
        throw std::invalid_argument(
            strfmt("multi-head: ragged width mismatch Q=%s K=%s V=%s",
                   q.shapeStr().c_str(), k.shapeStr().c_str(),
                   v.shapeStr().c_str()));
    }
    if (q.cols() == 0 || q.cols() % heads_ != 0) {
        throw std::invalid_argument(
            strfmt("multi-head: %zu columns not divisible by %zu heads",
                   q.cols(), heads_));
    }
    // RaggedBatch guarantees >= 1 rows per image; only the K/V row
    // agreement is left to check (q rows may differ, as in the
    // single-image reference). The offsets are re-derived per work item, so a caller
    // that reshaped a buffer behind the offsets fails here, not there.
    for (size_t b = 0; b < k.size(); ++b) {
        if (k.rowsOf(b) != v.rowsOf(b)) {
            throw std::invalid_argument(
                strfmt("multi-head: ragged K/V rows differ at image "
                       "%zu (%zu vs %zu)",
                       b, k.rowsOf(b), v.rowsOf(b)));
        }
    }
    if (q.buffer().rows() != q.totalRows() ||
        k.buffer().rows() != k.totalRows() ||
        v.buffer().rows() != v.totalRows()) {
        throw std::invalid_argument(
            "multi-head: ragged buffer reshaped behind its offsets");
    }
}

void
MultiHeadAttention::ensureContexts(size_t workers)
{
    std::lock_guard<std::mutex> lock(contextsMutex_);
    while (contexts_.size() < workers)
        contexts_.emplace_back(std::make_unique<AttentionContext>());
}

void
MultiHeadAttention::runHead(AttentionContext &ctx, size_t head,
                            const Matrix &q, const Matrix &k,
                            const Matrix &v, Matrix &out)
{
    runHeadRows(ctx, head, q.rowPtr(0), q.rows(), k.rowPtr(0),
                v.rowPtr(0), k.rows(), q.cols(), out.rowPtr(0));
}

void
MultiHeadAttention::runHeadRows(AttentionContext &ctx, size_t head,
                                const float *q, size_t qRows,
                                const float *k, const float *v,
                                size_t kvRows, size_t packedCols,
                                float *out)
{
    const size_t dh = packedCols / heads_;
    const size_t c0 = head * dh;

    Workspace &ws = ctx.workspace();
    Workspace::Frame frame(ws);

    // Gather the head's column slice into contiguous per-head operands.
    auto slice = [&](const float *src, size_t rows) -> Matrix & {
        Matrix &dst = ws.acquire(rows, dh);
        for (size_t r = 0; r < rows; ++r) {
            const float *in = src + r * packedCols + c0;
            float *o = dst.rowPtr(r);
            for (size_t c = 0; c < dh; ++c)
                o[c] = in[c];
        }
        return dst;
    };
    Matrix &qh = slice(q, qRows);
    Matrix &kh = slice(k, kvRows);
    Matrix &vh = slice(v, kvRows);
    Matrix &oh = ws.acquire(qRows, dh);

    kernel_->forwardInto(ctx, qh, kh, vh, oh);

    // Scatter back into the packed output; heads own disjoint column
    // ranges, so concurrent writers never touch the same floats.
    for (size_t r = 0; r < qRows; ++r) {
        const float *in = oh.rowPtr(r);
        float *o = out + r * packedCols + c0;
        for (size_t c = 0; c < dh; ++c)
            o[c] = in[c];
    }
}

void
MultiHeadAttention::runRaggedItem(AttentionContext &ctx, size_t item,
                                  const RaggedBatch &q,
                                  const RaggedBatch &k,
                                  const RaggedBatch &v, RaggedBatch &out)
{
    const size_t image = item / heads_;
    const size_t head = item % heads_;
    runHeadRows(ctx, head, q.rowPtr(image, 0), q.rowsOf(image),
                k.rowPtr(image, 0), v.rowPtr(image, 0), k.rowsOf(image),
                q.cols(), out.rowPtr(image, 0));
}

void
MultiHeadAttention::forwardRaggedInto(ThreadPool &pool,
                                      const RaggedBatch &q,
                                      const RaggedBatch &k,
                                      const RaggedBatch &v,
                                      RaggedBatch &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    checkRaggedShapes(q, k, v);
    VITALITY_CHECK(&out != &q && &out != &k && &out != &v,
                   "multi-head: out aliases a ragged input");
    ensureContexts(pool.size());

    out.resizeLike(q);
    // One work item per (image, head) pair: B x H items keep the pool
    // busy even when H alone is smaller than the worker count. A
    // single-worker pool runs them inline (no overlap to buy).
    if (pool.size() == 1) {
        for (size_t item = 0; item < q.size() * heads_; ++item)
            runRaggedItem(*contexts_[0], item, q, k, v, out);
        return;
    }
    pool.parallelFor(0, q.size() * heads_, [&](size_t item, size_t worker) {
        runRaggedItem(*contexts_[worker], item, q, k, v, out);
    });
}

RaggedBatch
MultiHeadAttention::forwardRagged(ThreadPool &pool, const RaggedBatch &q,
                                  const RaggedBatch &k,
                                  const RaggedBatch &v)
{
    RaggedBatch out;
    forwardRaggedInto(pool, q, k, v, out);
    return out;
}

void
MultiHeadAttention::forwardSequentialInto(const Matrix &q, const Matrix &k,
                                          const Matrix &v, Matrix &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    checkShapes(q, k, v);
    VITALITY_CHECK(&out != &q && &out != &k && &out != &v,
                   "multi-head: out aliases an input");
    out.resize(q.rows(), q.cols());
    for (size_t head = 0; head < heads_; ++head)
        runHead(seqContext_, head, q, k, v, out);
}

Matrix
MultiHeadAttention::forwardSequential(const Matrix &q, const Matrix &k,
                                      const Matrix &v)
{
    Matrix out;
    forwardSequentialInto(q, k, v, out);
    return out;
}

void
MultiHeadAttention::forwardRaggedSequentialInto(const RaggedBatch &q,
                                                const RaggedBatch &k,
                                                const RaggedBatch &v,
                                                RaggedBatch &out)
{
    CallGuard guard(inFlight_, kConcurrentCall);
    checkRaggedShapes(q, k, v);
    VITALITY_CHECK(&out != &q && &out != &k && &out != &v,
                   "multi-head: out aliases a ragged input");
    out.resizeLike(q);
    for (size_t item = 0; item < q.size() * heads_; ++item)
        runRaggedItem(seqContext_, item, q, k, v, out);
}

RaggedBatch
MultiHeadAttention::forwardRaggedSequential(const RaggedBatch &q,
                                            const RaggedBatch &k,
                                            const RaggedBatch &v)
{
    RaggedBatch out;
    forwardRaggedSequentialInto(q, k, v, out);
    return out;
}

OpCounts
MultiHeadAttention::opCounts(size_t n, size_t d_model) const
{
    if (d_model % heads_ != 0) {
        throw std::invalid_argument(
            "multi-head opCounts: d_model not divisible by heads");
    }
    return kernel_->opCounts(n, d_model / heads_) * heads_;
}

} // namespace vitality
