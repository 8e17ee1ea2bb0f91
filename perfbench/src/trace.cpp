#include "trace.h"

#include <fstream>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now())
{
    // Enough for a few hundred replayed 12-layer forwards without
    // growing the vector inside a timed span.
    spans_.reserve(1 << 16);
}

int64_t
Tracer::open(const char *name, int64_t parent, uint64_t call, int layer,
             uint64_t rows)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.call = call;
    s.layer = layer;
    s.rows = rows;
    s.start = Clock::now();
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
}

void
Tracer::close(int64_t span)
{
    spans_[static_cast<size_t>(span)].end = Clock::now();
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ts = msBetween(origin_, s.start) * 1e3;
        const double dur = msBetween(s.start, s.end) * 1e3;
        os << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
           << ", \"ts\": " << jsonNumber(ts)
           << ", \"dur\": " << jsonNumber(dur) << ", \"args\": {\"span\": "
           << i << ", \"parent\": " << s.parent << ", \"call\": " << s.call
           << ", \"layer\": " << s.layer << ", \"rows\": " << s.rows
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
