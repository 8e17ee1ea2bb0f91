/**
 * @file
 * Shared pieces of the workloads: the pinned execution mode, host
 * facts, output checks and the run arguments/result.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "tensor/matrix.h"
#include "tensor/ragged_batch.h"

namespace perfbench {

/** Weight seed of every encoder the benchmark builds (inputs vary). */
constexpr uint64_t kWeightSeed = 0x5eedULL;

/** Setup repeats per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

struct RunArgs
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    /** Two-layer models and a short run, for the self-test. */
    bool tiny = false;
    /** Flip one output bit before the check, to prove the check fires. */
    bool corrupt = false;
    /** Directory the Chrome trace is written to (traced runs). */
    std::string traceDir;
};

struct RunResult
{
    Report report;
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** One-line JSON object recording the pinned configuration. */
    std::string configJson;
    /** Digest of the workload's reference outputs. */
    std::string digest;
};

/**
 * Names of set VITALITY_* environment variables. The benchmark pins
 * every knob itself and refuses to run beside an ambient one, so a
 * stray VITALITY_TOKENS=0.5 cannot pass for a 2x gain.
 */
std::vector<std::string> ambientKnobs();

/**
 * Pin all seven execution knobs through RuntimeOptions::apply(): the
 * best available GEMM backend, uncapped bands, fused epilogue, CSR
 * sparse path, fp32, keep 1.0, uniform layer schedule.
 */
void pinRuntime();

/** Hardware threads (at least 1). */
size_t hostThreads();

/** Space-separated ISA flags this CPU reports, from a fixed list. */
std::string cpuFlags();

/** Peak resident set of this process so far, MiB. */
double peakRssMiB();

/** FNV-1a over the row structure and the float bits of every row. */
uint64_t digest(const vitality::RaggedBatch &b);
uint64_t digest(const vitality::Matrix &m, uint64_t h = 1469598103934665603ULL);

std::string hex64(uint64_t v);

/** Bitwise equality of structure and every addressable float. */
bool bitwiseEqual(const vitality::RaggedBatch &a,
                  const vitality::RaggedBatch &b);
bool bitwiseEqual(const vitality::Matrix &a, const vitality::Matrix &b);

bool allFinite(const vitality::Matrix &m);

/** Flip the lowest bit of the first float (the --corrupt probe). */
void flipFirstBit(vitality::Matrix &m);

/** "a,b,c" form of a list of numbers, for the config line. */
template <class T>
std::string
listText(const std::vector<T> &values)
{
    std::string s;
    for (T v : values)
        s += (s.empty() ? "" : ",") + jsonNumber(static_cast<double>(v));
    return s;
}

/** Builds the one-line JSON object of a run's configuration. */
class ConfigJson
{
  public:
    ConfigJson &str(const char *key, const std::string &value);
    ConfigJson &num(const char *key, double value);
    std::string done() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/**
 * Write the traced run's spans to <traceDir>/trace-<workload>-seed<n>.json
 * and name the file in the config line. Throws std::runtime_error when
 * the file cannot be written.
 */
void writeTrace(const Tracer &tracer, const RunArgs &args, RunResult &res);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
