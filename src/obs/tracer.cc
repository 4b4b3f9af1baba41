/**
 * @file
 * Tracer implementation: thread-local buffers, deterministic merge,
 * Chrome trace-event JSON emission.
 */

#include "obs/tracer.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/field.hh"
#include "common/golden.hh"
#include "isa/instruction.hh"

namespace ascend {
namespace obs {

namespace {

/**
 * Per-thread buffers compact (sort + dedup in place) past this size,
 * so repetitive workloads — benchmark iterations replaying one
 * program — stay bounded in memory. Compaction never changes the
 * final merged set: dedup is idempotent under union. The next
 * compaction waits until the buffer doubles, so a run with millions
 * of distinct events sorts O(log n) times, not once per event.
 */
constexpr std::size_t kCompactAt = std::size_t(1) << 20;

/** Compact @p events with @p compact once they reach @p at. */
template <typename T>
void
compactPast(std::vector<T> &events, std::size_t &at,
            void (*compact)(std::vector<T> &))
{
    if (events.size() < std::max(at, kCompactAt))
        return;
    compact(events);
    at = 2 * events.size();
}

int
cstrCompare(const char *a, const char *b)
{
    return std::strcmp(a ? a : "", b ? b : "");
}

bool
spanLess(const Span &a, const Span &b)
{
    if (a.pid != b.pid)
        return a.pid < b.pid;
    if (a.tid != b.tid)
        return a.tid < b.tid;
    if (a.start != b.start)
        return a.start < b.start;
    if (a.duration != b.duration)
        return a.duration < b.duration;
    const int c = cstrCompare(a.name, b.name);
    if (c != 0)
        return c < 0;
    return a.bytes < b.bytes;
}

bool
spanEq(const Span &a, const Span &b)
{
    return a.pid == b.pid && a.tid == b.tid && a.start == b.start &&
           a.duration == b.duration && a.bytes == b.bytes &&
           cstrCompare(a.name, b.name) == 0;
}

bool
counterLess(const CounterSample &a, const CounterSample &b)
{
    if (a.pid != b.pid)
        return a.pid < b.pid;
    const int c = cstrCompare(a.name, b.name);
    if (c != 0)
        return c < 0;
    if (a.ts != b.ts)
        return a.ts < b.ts;
    return a.value < b.value;
}

bool
counterEq(const CounterSample &a, const CounterSample &b)
{
    return a.pid == b.pid && a.ts == b.ts && a.value == b.value &&
           cstrCompare(a.name, b.name) == 0;
}

void
compactSpans(std::vector<Span> &spans)
{
    std::sort(spans.begin(), spans.end(), spanLess);
    spans.erase(std::unique(spans.begin(), spans.end(), spanEq),
                spans.end());
}

void
compactCounters(std::vector<CounterSample> &counters)
{
    std::sort(counters.begin(), counters.end(), counterLess);
    counters.erase(
        std::unique(counters.begin(), counters.end(), counterEq),
        counters.end());
}

const char *
processName(std::uint32_t pid)
{
    switch (static_cast<Domain>(pid)) {
      case Domain::Core:    return "core pipes (cycles)";
      case Domain::Chip:    return "chip sim (ns)";
      case Domain::Llc:     return "llc (ticks)";
      case Domain::Noc:     return "noc mesh (cycles)";
      case Domain::Cluster: return "cluster collectives (ns)";
      case Domain::Serving: return "serving fleet (ns)";
      case Domain::Surrogate: return "surrogate (cycles)";
      case Domain::Graph:   return "graph lowering (cycles)";
    }
    return "?";
}

std::string
trackName(std::uint32_t pid, std::uint32_t tid)
{
    switch (static_cast<Domain>(pid)) {
      case Domain::Core:
        if (tid >= 1 && tid <= isa::kNumPipes)
            return isa::toString(static_cast<isa::Pipe>(tid - 1));
        return "pipe?";
      case Domain::Chip:    return "core" + std::to_string(tid - 1);
      case Domain::Llc:     return "llc";
      case Domain::Noc:     return "mesh";
      case Domain::Cluster:
        return tid == 2 ? "elastic recovery" : "phases";
      case Domain::Serving:
        return tid == 1 ? "fleet"
                        : "replica" + std::to_string(tid - 2);
      case Domain::Surrogate: return "layers";
      case Domain::Graph:   return "nodes";
    }
    return "?";
}

void
appendEscaped(std::string &out, const char *s)
{
    for (; s && *s; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
}

/** Deterministic double formatting (round-trip precision). */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
atexitWriter()
{
    if (!Tracer::instance().stop())
        std::fprintf(stderr, "ASCEND_TRACE: cannot write %s\n",
                     Tracer::instance().path().c_str());
}

/**
 * Honor ASCEND_TRACE as soon as the library is loaded, so every
 * binary linking the simulator gets the knob with no code changes.
 */
const bool kEnvInit = [] {
    if (const auto path = envValue<std::string>("ASCEND_TRACE"))
        Tracer::instance().start(*path);
    return true;
}();

} // anonymous namespace

std::atomic<bool> &
Tracer::activeFlag()
{
    static std::atomic<bool> active{false};
    return active;
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::start(const std::string &path)
{
    if (!kTraceCompiledIn)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = path;
    if (!path_.empty() && !atexitRegistered_) {
        atexitRegistered_ = true;
        std::atexit(atexitWriter);
    }
    activeFlag().store(true, std::memory_order_relaxed);
}

bool
Tracer::stop()
{
    if (!enabled())
        return true;
    activeFlag().store(false, std::memory_order_relaxed);
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = path_;
    }
    const bool written = path.empty() || writeFileText(path, json());
    clear();
    return written;
}

Tracer::Buffer &
Tracer::localBuffer()
{
    // One buffer per (thread, tracer) for the process lifetime; the
    // tracer owns it, the thread keeps a raw pointer, so neither
    // thread exit nor clear() invalidates anything.
    thread_local Buffer *buf = nullptr;
    if (!buf) {
        auto owned = std::make_unique<Buffer>();
        buf = owned.get();
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::move(owned));
    }
    return *buf;
}

void
Tracer::span(Domain domain, std::uint32_t track, const char *name,
             std::uint64_t start, std::uint64_t duration,
             std::uint64_t bytes)
{
    if (!enabled())
        return;
    Buffer &buf = localBuffer();
    buf.spans.push_back(Span{static_cast<std::uint32_t>(domain), track,
                             start, duration, name, bytes});
    compactPast(buf.spans, buf.compactSpansAt, compactSpans);
}

void
Tracer::counter(Domain domain, const char *name, std::uint64_t ts,
                double value)
{
    if (!enabled())
        return;
    Buffer &buf = localBuffer();
    buf.counters.push_back(CounterSample{
        static_cast<std::uint32_t>(domain), ts, name, value});
    compactPast(buf.counters, buf.compactCountersAt, compactCounters);
}

void
Tracer::collect(std::vector<Span> &spans,
                std::vector<CounterSample> &counters)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buf : buffers_) {
        spans.insert(spans.end(), buf->spans.begin(),
                     buf->spans.end());
        counters.insert(counters.end(), buf->counters.begin(),
                        buf->counters.end());
    }
    compactSpans(spans);
    compactCounters(counters);
}

std::string
Tracer::json()
{
    std::vector<Span> spans;
    std::vector<CounterSample> counters;
    collect(spans, counters);

    // Metadata rows name the processes and tracks that appear.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> tracks;
    for (const Span &s : spans)
        tracks.emplace_back(s.pid, s.tid);
    for (const CounterSample &c : counters)
        tracks.emplace_back(c.pid, 0);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()),
                 tracks.end());

    std::string out;
    out.reserve(128 + spans.size() * 96 + counters.size() * 96 +
                tracks.size() * 192);
    out += "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ',';
        first = false;
        out += '\n';
    };

    std::uint32_t last_pid = 0;
    for (const auto &[pid, tid] : tracks) {
        if (pid != last_pid) {
            last_pid = pid;
            sep();
            out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
            out += std::to_string(pid);
            out += ",\"args\":{\"name\":\"";
            appendEscaped(out, processName(pid));
            out += "\"}}";
        }
        if (tid == 0)
            continue; // counter-only rows need no thread metadata
        sep();
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
        out += std::to_string(pid);
        out += ",\"tid\":";
        out += std::to_string(tid);
        out += ",\"args\":{\"name\":\"";
        appendEscaped(out, trackName(pid, tid).c_str());
        out += "\"}}";
    }

    for (const Span &s : spans) {
        sep();
        out += "{\"name\":\"";
        appendEscaped(out, s.name ? s.name : "span");
        out += "\",\"ph\":\"X\",\"pid\":";
        out += std::to_string(s.pid);
        out += ",\"tid\":";
        out += std::to_string(s.tid);
        out += ",\"ts\":";
        out += std::to_string(s.start);
        out += ",\"dur\":";
        out += std::to_string(s.duration);
        if (s.bytes) {
            out += ",\"args\":{\"bytes\":";
            out += std::to_string(s.bytes);
            out += '}';
        }
        out += '}';
    }

    for (const CounterSample &c : counters) {
        sep();
        out += "{\"name\":\"";
        appendEscaped(out, c.name ? c.name : "counter");
        out += "\",\"ph\":\"C\",\"pid\":";
        out += std::to_string(c.pid);
        out += ",\"ts\":";
        out += std::to_string(c.ts);
        out += ",\"args\":{\"value\":";
        out += formatDouble(c.value);
        out += "}}";
    }

    out += "\n]}\n";
    return out;
}

std::vector<Span>
Tracer::spans()
{
    std::vector<Span> spans;
    std::vector<CounterSample> counters;
    collect(spans, counters);
    return spans;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buf : buffers_) {
        buf->spans.clear();
        buf->counters.clear();
        buf->compactSpansAt = buf->compactCountersAt = 0;
    }
}

} // namespace obs
} // namespace ascend
