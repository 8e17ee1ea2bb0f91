/**
 * @file
 * The benchmark's workloads. Each one's configuration is fixed here,
 * through the library's public API, and echoed in the run's config
 * line; perfbench/README.md says why each was chosen.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Run one workload and fill result. Throws std::invalid_argument for
 * an unknown name.
 */
void runWorkload(const RunArgs &args, RunResult &result);

/** Closed-loop forwardRaggedInto calls on a compiled plan. */
void runOffline(const RunArgs &args, RunResult &result);

/** Open-loop traffic through ModelServer. */
void runServe(const RunArgs &args, RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
