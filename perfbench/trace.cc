#include "trace.hh"

#include <cstdio>
#include <cstdlib>

namespace perfbench
{

SpanRecorder::SpanRecorder() : origin(std::chrono::steady_clock::now())
{
    all.reserve(1 << 16);
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::int32_t
SpanRecorder::begin(const char *name, std::int64_t batch)
{
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.batch = batch;
    s.startUs = nowUs();
    all.push_back(s);
    auto id = static_cast<std::int32_t>(all.size() - 1);
    open.push_back(id);
    return id;
}

void
SpanRecorder::end(std::int32_t id)
{
    if (open.empty() || open.back() != id) {
        std::fprintf(stderr, "SpanRecorder: spans closed out of order\n");
        std::abort();
    }
    all[static_cast<std::size_t>(id)].endUs = nowUs();
    open.pop_back();
}

std::map<std::string, LayerTime>
SpanRecorder::layerTimes() const
{
    std::vector<double> childUs(all.size(), 0.0);
    for (const Span &s : all) {
        if (s.parent >= 0)
            childUs[static_cast<std::size_t>(s.parent)] +=
                s.endUs - s.startUs;
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        double dur = all[i].endUs - all[i].startUs;
        LayerTime &lt = out[all[i].name];
        lt.totalUs += dur;
        lt.selfUs += dur - childUs[i];
        ++lt.count;
    }
    return out;
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"batch\": %lld}}%s\n",
                     s.name, s.startUs, s.endUs - s.startUs, i,
                     s.parent, static_cast<long long>(s.batch),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
