/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-dir <dir>] [--tiny] [--corrupt]
 *
 * Prints the pinned configuration, a table of every metric with unit,
 * median, quartiles and sample count, the output digest, and — as the
 * last stdout line — the JSON result. Exits 0 when every output check
 * passed, 1 when one failed (after printing the result), 2 on bad
 * arguments or a refused environment (without a result).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-dir <dir>] "
                 "[--tiny] [--corrupt]\nworkloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    args.traceDir = ".";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        double v = 0.0;
        if (a == "--tiny") {
            args.tiny = true;
        } else if (a == "--corrupt") {
            args.corrupt = true;
        } else if (!hasValue) {
            return usage(("missing value after " + a).c_str());
        } else if (a == "--workload") {
            args.workload = argv[++i];
        } else if (a == "--trace-dir") {
            args.traceDir = argv[++i];
        } else if (a == "--seed") {
            // Exactly representable integers only (below 2^53).
            if (!parseNumber(argv[++i], v) || v < 0 ||
                v > 9007199254740992.0 || v != std::floor(v))
                return usage("--seed must be a non-negative integer");
            args.seed = static_cast<uint64_t>(v);
            haveSeed = true;
        } else if (a == "--seconds") {
            if (!parseNumber(argv[++i], v) || !(v > 0.0) || v > 3600.0)
                return usage("--seconds must be in (0, 3600]");
            args.seconds = v;
            haveSeconds = true;
        } else if (a == "--trace") {
            const std::string t = argv[++i];
            if (t != "0" && t != "1")
                return usage("--trace must be 0 or 1");
            args.trace = t == "1";
            haveTrace = true;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (args.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == args.workload;
    if (!known)
        return usage(("unknown workload " + args.workload).c_str());

    const std::vector<std::string> ambient = ambientKnobs();
    if (!ambient.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing to run with ambient knobs set "
                     "(they would change the workload):");
        for (const std::string &k : ambient)
            std::fprintf(stderr, " %s", k.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    RunResult res;
    std::string result;
    try {
        pinRuntime();
        runWorkload(args, res);
        result = res.report.resultJson(
            args.trace ? Set::PerLayer : Set::EndToEnd, res.correct,
            res.attempted, res.failed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    std::cout << "perfbench " << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << (args.tiny ? " tiny" : "") << "\n";
    std::cout << "config " << res.configJson << "\n";
    res.report.printTable(std::cout);
    std::cout << "digest " << res.digest << "\n";
    std::cout << result << std::endl;
    return res.correct ? 0 : 1;
}
