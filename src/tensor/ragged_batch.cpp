#include "tensor/ragged_batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "base/logging.h"

namespace vitality {

RaggedBatch
RaggedBatch::fromMatrices(const Matrix *const *inputs, size_t n)
{
    RaggedBatch out;
    out.packFrom(inputs, n);
    return out;
}

void
RaggedBatch::checkIndex(size_t i) const
{
    if (i >= size()) {
        throw std::out_of_range(
            strfmt("RaggedBatch: image %zu out of range (size %zu)", i,
                   size()));
    }
}

size_t
RaggedBatch::rowsOf(size_t i) const
{
    checkIndex(i);
    return offsets_[i + 1] - offsets_[i];
}

size_t
RaggedBatch::offset(size_t i) const
{
    checkIndex(i);
    return offsets_[i];
}

void
RaggedBatch::resize(const size_t *rows, size_t n, size_t cols)
{
    if (n == 0)
        throw std::invalid_argument("RaggedBatch: zero images");
    if (cols == 0)
        throw std::invalid_argument("RaggedBatch: zero columns");
    if (!rows)
        throw std::invalid_argument("RaggedBatch: null row counts");
    // Build the cu_lens offsets first so a bad count throws before any
    // storage is touched. offsets_ is assigned in place: same image
    // count means no reallocation, which keeps steady-state resizes
    // allocation-free.
    offsets_.resize(n + 1);
    offsets_[0] = 0;
    for (size_t i = 0; i < n; ++i) {
        if (rows[i] == 0) {
            offsets_.clear();
            buffer_.resize(0, 0);
            throw std::invalid_argument(
                strfmt("RaggedBatch: image %zu has zero rows (every "
                       "image carries at least its CLS token)",
                       i));
        }
        offsets_[i + 1] = offsets_[i] + rows[i];
    }
    buffer_.resize(offsets_[n], cols);
}

void
RaggedBatch::resizeLike(const RaggedBatch &other)
{
    if (other.empty())
        throw std::invalid_argument("RaggedBatch: resizeLike of empty");
    offsets_ = other.offsets_;
    buffer_.resize(other.totalRows(), other.cols());
}

void
RaggedBatch::packFrom(const Matrix *const *inputs, size_t n)
{
    if (n == 0)
        throw std::invalid_argument("RaggedBatch: empty request set");
    for (size_t i = 0; i < n; ++i) {
        if (!inputs[i])
            throw std::invalid_argument(
                strfmt("RaggedBatch: input %zu is null", i));
    }
    const size_t cols = inputs[0]->cols();
    if (cols == 0)
        throw std::invalid_argument(
            strfmt("RaggedBatch: empty input shape %s",
                   inputs[0]->shapeStr().c_str()));
    offsets_.resize(n + 1);
    offsets_[0] = 0;
    for (size_t i = 0; i < n; ++i) {
        if (inputs[i]->cols() != cols)
            throw std::invalid_argument(
                strfmt("RaggedBatch: input %zu is %s, expected %zu "
                       "columns",
                       i, inputs[i]->shapeStr().c_str(), cols));
        if (inputs[i]->rows() == 0)
            throw std::invalid_argument(
                strfmt("RaggedBatch: input %zu has zero rows", i));
        offsets_[i + 1] = offsets_[i] + inputs[i]->rows();
    }
    buffer_.resize(offsets_[n], cols);
    for (size_t i = 0; i < n; ++i) {
        std::memcpy(buffer_.rowPtr(offsets_[i]), inputs[i]->data(),
                    inputs[i]->size() * sizeof(float));
    }
}

void
RaggedBatch::unpackImage(size_t i, Matrix &dst) const
{
    checkIndex(i);
    const size_t rows = rowsOf(i);
    dst.resize(rows, cols());
    std::memcpy(dst.data(), buffer_.rowPtr(offsets_[i]),
                rows * cols() * sizeof(float));
}

void
RaggedBatch::copyFrom(const RaggedBatch &other)
{
    if (this == &other)
        return;
    if (other.empty())
        throw std::invalid_argument("RaggedBatch: copyFrom empty");
    resizeLike(other);
    // The buffer may hold slack past totalRows() after a shrink; copy
    // only the addressable region.
    std::memcpy(buffer_.data(), other.buffer_.data(),
                other.totalRows() * other.cols() * sizeof(float));
}

void
RaggedBatch::shrinkRows(const size_t *newRows)
{
    if (empty())
        throw std::invalid_argument("RaggedBatch: shrinkRows on empty");
    if (!newRows)
        throw std::invalid_argument("RaggedBatch: null row counts");
    const size_t n = size();
    // Validate the whole request first: offsets_ still holds the old
    // structure, so rowsOf() is meaningful until the rewrite below.
    for (size_t i = 0; i < n; ++i) {
        const size_t old = offsets_[i + 1] - offsets_[i];
        if (newRows[i] == 0 || newRows[i] > old)
            throw std::invalid_argument(
                strfmt("RaggedBatch: shrinkRows image %zu to %zu rows "
                       "(has %zu, must stay in [1, %zu])",
                       i, newRows[i], old, old));
    }
    for (size_t i = 0; i < n; ++i)
        offsets_[i + 1] = offsets_[i] + newRows[i];
    // Storage is untouched: the caller already compacted the kept rows
    // to the front, and Matrix::resize never reallocates on shrink.
    buffer_.resize(offsets_[n], cols());
}

bool
RaggedBatch::operator==(const RaggedBatch &other) const
{
    if (offsets_ != other.offsets_ || cols() != other.cols())
        return false;
    const size_t count = totalRows() * cols();
    const float *a = buffer_.data();
    const float *b = other.buffer_.data();
    for (size_t i = 0; i < count; ++i)
        if (a[i] != b[i])
            return false;
    return true;
}

bool
RaggedBatch::allClose(const RaggedBatch &other, float tol) const
{
    if (offsets_ != other.offsets_ || cols() != other.cols())
        return false;
    const size_t count = totalRows() * cols();
    const float *a = buffer_.data();
    const float *b = other.buffer_.data();
    for (size_t i = 0; i < count; ++i)
        if (!(std::fabs(a[i] - b[i]) <= tol))
            return false;
    return true;
}

std::string
RaggedBatch::shapeStr() const
{
    std::ostringstream os;
    os << "[" << size() << " x {";
    const size_t shown = std::min<size_t>(size(), 8);
    for (size_t i = 0; i < shown; ++i) {
        if (i)
            os << ",";
        os << (offsets_[i + 1] - offsets_[i]);
    }
    if (size() > shown)
        os << ",...";
    os << "} x " << cols() << "]";
    return os.str();
}

} // namespace vitality
