/**
 * @file
 * Sample summaries and the metric report the benchmark prints.
 *
 * Every metric is reported with its median, quartiles and sample
 * count. The last stdout line is the machine-readable result: the
 * end-to-end metrics of an untraced run, or the per-layer metrics of a
 * traced run (perfbench/README.md lists both sets).
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Median, quartiles and sample count of one metric. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 0;
};

/** Linearly interpolated quantile q of ascending samples (0 if empty). */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Summary of the samples (copied and sorted). */
Summary summarize(std::vector<double> samples);

/** One derived value (quartiles equal to it) from n samples. */
Summary single(double value, size_t n = 1);

/**
 * True when at least ten of n samples lie beyond quantile q — the
 * condition under which this benchmark names a tail percentile.
 */
bool tailNameable(size_t n, double q);

/** Which result set a metric belongs to. */
enum class Set { EndToEnd, PerLayer };

/** Canonical name and unit of every metric, in report order. */
struct MetricDef
{
    const char *name;
    const char *unit;
    Set set;
};

/** The fixed metric table; BENCHMARK.json must list the same names. */
const std::vector<MetricDef> &metricDefs();

class Report
{
  public:
    /** Record a metric; the name must be in metricDefs(). */
    void add(const std::string &name, const Summary &s,
             const std::string &note = "");

    /** Mark a per-layer metric as not exercised by this workload. */
    void notApplicable(const std::string &name);

    /** Fixed-width table: every recorded metric with unit and spread. */
    void printTable(std::ostream &os) const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"}
     * with every metric of the requested set. Throws std::logic_error
     * when one of that set was never recorded.
     */
    std::string resultJson(Set set, bool correct, uint64_t attempted,
                           uint64_t failed) const;

  private:
    struct Entry
    {
        std::string name;
        Summary s;
        std::string note;
    };
    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries_;
};

/** JSON string literal with the needed escapes. */
std::string jsonString(const std::string &s);

/** Shortest round-tripping decimal form of a finite double. */
std::string jsonNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
