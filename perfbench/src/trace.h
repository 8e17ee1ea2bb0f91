/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is (name, start, end, parent, call id). Spans are appended to
 * a pre-reserved vector while the replay runs and written out once, at
 * the end, as Chrome trace-event JSON (load the file in
 * chrome://tracing or https://ui.perfetto.dev). Names must be string
 * literals: recording a span copies no string.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Span
{
    const char *name = "";
    Clock::time_point start;
    Clock::time_point end;
    /** Index of the enclosing span, or -1 for a root. */
    int64_t parent = -1;
    /** The replayed forward this span belongs to. */
    uint64_t call = 0;
    /** Layer index, or -1 for spans that cover no single layer. */
    int layer = -1;
    /** Token rows the span's work ran over (0 when not a row count). */
    uint64_t rows = 0;
};

class Tracer
{
  public:
    Tracer();

    /** Open a span; returns its index for close() and as a parent. */
    int64_t open(const char *name, int64_t parent, uint64_t call,
                 int layer = -1, uint64_t rows = 0);
    void close(int64_t span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name, int64_t parent, uint64_t call,
               int layer = -1, uint64_t rows = 0)
        : t_(t), id_(t ? t->open(name, parent, call, layer, rows) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer *t_;
    int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
