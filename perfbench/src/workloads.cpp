#include "workloads.h"

#include <stdexcept>

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "offline-small-b8", "hires-tiny-unified-prune", "serve-tiny-mixed"};
    return names;
}

void
runWorkload(const RunArgs &args, RunResult &result)
{
    if (args.workload == "serve-tiny-mixed")
        runServe(args, result);
    else if (args.workload == "offline-small-b8" ||
             args.workload == "hires-tiny-unified-prune")
        runOffline(args, result);
    else
        throw std::invalid_argument("unknown workload " + args.workload);
}

} // namespace perfbench
