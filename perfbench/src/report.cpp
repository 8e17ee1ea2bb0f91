#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = samples.size();
    s.median = quantileSorted(samples, 0.5);
    s.q1 = quantileSorted(samples, 0.25);
    s.q3 = quantileSorted(samples, 0.75);
    return s;
}

Summary
single(double value, size_t n)
{
    return Summary{value, value, value, n};
}

bool
tailNameable(size_t n, double q)
{
    return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

const std::vector<MetricDef> &
metricDefs()
{
    static const std::vector<MetricDef> defs = {
        {"img_per_s", "1/s", Set::EndToEnd},
        {"tokens_per_s", "1/s", Set::EndToEnd},
        {"latency_ms_p50", "ms", Set::EndToEnd},
        {"goodput_img_per_s", "1/s", Set::EndToEnd},
        {"max_rate_img_per_s", "1/s", Set::EndToEnd},
        {"setup_s", "s", Set::EndToEnd},
        {"peak_rss_mb", "MiB", Set::EndToEnd},
        {"fail_frac", "frac", Set::PerLayer},
        {"latency_ms_p90", "ms", Set::PerLayer},
        {"tensor.ln_ms", "ms", Set::PerLayer},
        {"tensor.qkv_ms", "ms", Set::PerLayer},
        {"tensor.qkv_gflops", "GFLOP/s", Set::PerLayer},
        {"tensor.proj_ms", "ms", Set::PerLayer},
        {"tensor.proj_gflops", "GFLOP/s", Set::PerLayer},
        {"tensor.mlp1_gelu_ms", "ms", Set::PerLayer},
        {"tensor.mlp1_gelu_gflops", "GFLOP/s", Set::PerLayer},
        {"tensor.mlp2_ms", "ms", Set::PerLayer},
        {"tensor.mlp2_gflops", "GFLOP/s", Set::PerLayer},
        {"runtime.mha_ms", "ms", Set::PerLayer},
        {"sparse.mask_density", "frac", Set::PerLayer},
        {"model.prune_ms", "ms", Set::PerLayer},
        {"model.tokens_kept_frac", "frac", Set::PerLayer},
        {"model.compile_ms", "ms", Set::PerLayer},
        {"model.packed_mb", "MiB", Set::PerLayer},
        {"serve.queue_ms_p50", "ms", Set::PerLayer},
        {"serve.queue_ms_p90", "ms", Set::PerLayer},
        {"serve.compute_ms_p50", "ms", Set::PerLayer},
        {"serve.overhead_ms_p50", "ms", Set::PerLayer},
        {"serve.batch_size_mean", "count", Set::PerLayer},
        {"serve.rejected", "count", Set::PerLayer},
        {"serve.errors", "count", Set::PerLayer},
        {"gen.late_ms_p90", "ms", Set::PerLayer},
        {"trace.unattributed_frac", "frac", Set::PerLayer},
        {"trace.overhead_frac", "frac", Set::PerLayer},
    };
    return defs;
}

namespace {

const MetricDef &
defOf(const std::string &name)
{
    for (const MetricDef &d : metricDefs())
        if (name == d.name)
            return d;
    throw std::logic_error("unknown metric '" + name + "'");
}

} // namespace

void
Report::add(const std::string &name, const Summary &s,
            const std::string &note)
{
    defOf(name);
    Summary clean = s;
    std::string why = note;
    // JSON has no NaN/Inf; a non-finite reading is a benchmark bug,
    // surfaced in the table rather than silently printed as a number.
    for (double *v : {&clean.median, &clean.q1, &clean.q3}) {
        if (!std::isfinite(*v)) {
            *v = 0.0;
            why = "non-finite reading";
        }
    }
    for (Entry &e : entries_) {
        if (e.name == name) {
            e = Entry{name, clean, why};
            return;
        }
    }
    entries_.push_back(Entry{name, clean, why});
}

void
Report::notApplicable(const std::string &name)
{
    add(name, Summary{}, "n/a for this workload");
}

const Report::Entry *
Report::find(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return &e;
    return nullptr;
}

void
Report::printTable(std::ostream &os) const
{
    char line[256];
    std::snprintf(line, sizeof line, "%-26s %-8s %12s %12s %12s %6s  %s\n",
                  "metric", "unit", "median", "q1", "q3", "n", "note");
    os << line;
    for (const MetricDef &d : metricDefs()) {
        const Entry *e = find(d.name);
        if (!e)
            continue;
        std::snprintf(line, sizeof line,
                      "%-26s %-8s %12.4f %12.4f %12.4f %6zu  %s\n", d.name,
                      d.unit, e->s.median, e->s.q1, e->s.q3, e->s.n,
                      e->note.c_str());
        os << line;
    }
}

std::string
Report::resultJson(Set set, bool correct, uint64_t attempted,
                   uint64_t failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : metricDefs()) {
        if (d.set != set)
            continue;
        const Entry *e = find(d.name);
        if (!e)
            throw std::logic_error(std::string("metric never recorded: ") +
                                   d.name);
        os << (first ? "" : ", ") << jsonString(d.name)
           << ": {\"value\": " << jsonNumber(e->s.median)
           << ", \"unit\": " << jsonString(d.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace perfbench
