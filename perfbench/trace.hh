/**
 * @file
 * Span recorder for the benchmark's traced runs.
 *
 * Spans are opened and closed by the benchmark around its own calls
 * into each library layer (the library itself is not instrumented).
 * They are kept in memory, written out once at the end as Chrome
 * trace-event JSON (Perfetto and chrome://tracing open it), and
 * reduced to per-layer self times: a span's duration minus the time
 * its child spans cover.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    const char *name = "";
    double startUs = 0;
    double endUs = 0;
    /** Index of the enclosing span, or -1 at the top level. */
    std::int32_t parent = -1;
    /** Query batch the span served, or -1 outside the query loop. */
    std::int64_t batch = -1;
};

/** Sum and count of one span name's self and total times. */
struct LayerTime
{
    double selfUs = 0;
    double totalUs = 0;
    std::uint64_t count = 0;
};

/**
 * Single-threaded span stack. Spans must close in LIFO order; the
 * benchmark calls layers one at a time from its main thread, so
 * siblings never overlap and a parent's child time is the plain sum
 * of its children's durations.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one; returns its id. */
    std::int32_t begin(const char *name, std::int64_t batch = -1);
    /** Close span @p id, which must be the innermost open span. */
    void end(std::int32_t id);

    /** Self and total time per span name. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Write every span as a Chrome trace-event "X" record. */
    bool writeChromeJson(const std::string &path) const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin;
    std::vector<Span> all;
    std::vector<std::int32_t> open;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name,
               std::int64_t batch = -1)
        : recorder(rec), id(rec.begin(name, batch))
    {}
    ~ScopedSpan() { recorder.end(id); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder;
    std::int32_t id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
