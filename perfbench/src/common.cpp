#include "common.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "runtime/runtime_options.h"
#include "tensor/gemm.h"

extern char **environ;

namespace perfbench {

std::vector<std::string>
ambientKnobs()
{
    std::vector<std::string> found;
    for (char **e = environ; e && *e; ++e) {
        if (std::strncmp(*e, "VITALITY_", 9) == 0) {
            const char *eq = std::strchr(*e, '=');
            found.emplace_back(*e, eq ? static_cast<size_t>(eq - *e)
                                      : std::strlen(*e));
        }
    }
    return found;
}

void
pinRuntime()
{
    using vitality::Gemm;
    vitality::RuntimeOptions opts;
    opts.gemmBackend = Gemm::available(Gemm::Backend::Avx2)
                           ? Gemm::Backend::Avx2
                           : Gemm::Backend::Scalar;
    opts.threads = 0;
    opts.epilogueMode = Gemm::EpilogueMode::Fused;
    opts.sparseMode = vitality::SparseExec::Csr;
    opts.quantMode = Gemm::QuantMode::Off;
    opts.tokenKeep = 1.0f;
    opts.layerKernels = std::string();
    opts.apply();
}

size_t
hostThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

std::string
cpuFlags()
{
    std::string out;
    auto add = [&out](bool on, const char *name) {
        if (on)
            out += (out.empty() ? "" : " ") + std::string(name);
    };
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    add(__builtin_cpu_supports("sse4.2"), "sse4.2");
    add(__builtin_cpu_supports("avx"), "avx");
    add(__builtin_cpu_supports("avx2"), "avx2");
    add(__builtin_cpu_supports("fma"), "fma");
    add(__builtin_cpu_supports("avx512f"), "avx512f");
    add(__builtin_cpu_supports("avx512bw"), "avx512bw");
    add(__builtin_cpu_supports("avx512vl"), "avx512vl");
    add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
#endif
    return out.empty() ? "none" : out;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t
fnv(uint64_t h, const void *p, size_t bytes)
{
    const unsigned char *c = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= c[i];
        h *= kFnvPrime;
    }
    return h;
}

} // namespace

uint64_t
digest(const vitality::Matrix &m, uint64_t h)
{
    const uint64_t shape[2] = {m.rows(), m.cols()};
    h = fnv(h, shape, sizeof shape);
    return fnv(h, m.data(), m.size() * sizeof(float));
}

uint64_t
digest(const vitality::RaggedBatch &b)
{
    uint64_t h = 1469598103934665603ULL;
    for (size_t off : b.offsets()) {
        const uint64_t o = off;
        h = fnv(h, &o, sizeof o);
    }
    if (b.empty())
        return h;
    return fnv(h, b.buffer().data(),
               b.totalRows() * b.cols() * sizeof(float));
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
bitwiseEqual(const vitality::RaggedBatch &a, const vitality::RaggedBatch &b)
{
    if (a.offsets() != b.offsets() || a.cols() != b.cols())
        return false;
    if (a.empty())
        return true;
    return std::memcmp(a.buffer().data(), b.buffer().data(),
                       a.totalRows() * a.cols() * sizeof(float)) == 0;
}

bool
bitwiseEqual(const vitality::Matrix &a, const vitality::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
allFinite(const vitality::Matrix &m)
{
    for (size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(m.data()[i]))
            return false;
    return true;
}

void
flipFirstBit(vitality::Matrix &m)
{
    if (m.empty())
        return;
    uint32_t bits;
    std::memcpy(&bits, m.data(), sizeof bits);
    bits ^= 1u;
    std::memcpy(m.data(), &bits, sizeof bits);
}

ConfigJson &
ConfigJson::str(const char *key, const std::string &value)
{
    body_ += (body_.empty() ? "" : ", ") + jsonString(key) + ": " +
             jsonString(value);
    return *this;
}

ConfigJson &
ConfigJson::num(const char *key, double value)
{
    body_ += (body_.empty() ? "" : ", ") + jsonString(key) + ": " +
             jsonNumber(value);
    return *this;
}

void
writeTrace(const Tracer &tracer, const RunArgs &args, RunResult &res)
{
    const std::string path = args.traceDir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!tracer.writeChrome(path))
        throw std::runtime_error("cannot write trace " + path);
    res.configJson.insert(res.configJson.size() - 1,
                          ", " + jsonString("trace_file") + ": " +
                              jsonString(path));
}

} // namespace perfbench
