/**
 * @file
 * Digests, the benchmark-side span recorder and its Chrome-trace
 * writer.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>

#include "perf.hh"

namespace perf {

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    Rng r(seed ^ (a * 0xd1b54a32d192ed03ull) ^
          (b * 0xabc98388fb8fac03ull));
    r.next();
    return r.next();
}

void
Digest::simResult(const ascend::core::SimResult &r)
{
    u64(r.totalCycles);
    u64(r.totalFlops);
    u64(r.instrsExecuted);
    u64(r.barriers);
    for (const ascend::core::PipeStats &p : r.pipes) {
        u64(p.busyCycles);
        u64(p.finishCycle);
        u64(p.waitCycles);
        u64(p.instrs);
    }
    for (const ascend::Bytes b : r.busBytes)
        u64(b);
}

namespace {

std::atomic<Tracer *> gTracer{nullptr};
std::atomic<std::int64_t> gOp{-1};
std::atomic<unsigned> gNextTrack{0};
thread_local std::uint64_t tCurrentSpan = 0;

unsigned
threadTrack()
{
    thread_local const unsigned track = gNextTrack.fetch_add(1);
    return track;
}

} // namespace

std::uint64_t
Tracer::newId()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(const SpanRecord &span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

Tracer *
activeTracer()
{
    return gTracer.load(std::memory_order_acquire);
}

void
setActiveTracer(Tracer *tracer)
{
    gTracer.store(tracer, std::memory_order_release);
}

void
setCurrentOp(std::int64_t op)
{
    gOp.store(op, std::memory_order_relaxed);
}

std::uint64_t
currentSpan()
{
    return tCurrentSpan;
}

Span::Span(const char *name, std::uint64_t parent)
    : tracer_(activeTracer())
{
    if (!tracer_)
        return;
    rec_.name = name;
    rec_.id = tracer_->newId();
    rec_.parent = parent == ~0ull ? tCurrentSpan : parent;
    rec_.op = gOp.load(std::memory_order_relaxed);
    rec_.track = threadTrack();
    outer_ = tCurrentSpan;
    tCurrentSpan = rec_.id;
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!tracer_)
        return;
    rec_.endNs = nowNs();
    tCurrentSpan = outer_;
    tracer_->record(rec_);
}

namespace {
std::atomic<std::uint64_t> gCacheHits{0};
std::atomic<std::uint64_t> gCacheMisses{0};
} // namespace

void
tallyCache(const ascend::runtime::SimCache::Stats &before,
           const ascend::runtime::SimCache::Stats &after)
{
    if (!activeTracer())
        return;
    gCacheHits += after.hits - before.hits;
    gCacheMisses += after.misses - before.misses;
}

std::pair<std::uint64_t, std::uint64_t>
cacheTally()
{
    return {gCacheHits.load(), gCacheMisses.load()};
}

std::vector<std::pair<std::string, SpanTotals>>
aggregate(const std::vector<SpanRecord> &spans)
{
    // Children of each span, as [start, end) intervals.
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        kids;
    for (const SpanRecord &s : spans)
        if (s.parent)
            kids[s.parent].emplace_back(s.startNs, s.endNs);

    std::map<std::string, SpanTotals> by;
    for (const SpanRecord &s : spans) {
        SpanTotals &t = by[s.name];
        const std::int64_t dur = s.endNs - s.startNs;
        ++t.calls;
        t.work += s.work;
        t.seconds += double(dur) * 1e-9;

        // Children may run in parallel on pool threads: subtract the
        // union of their intervals, clipped to this span.
        std::int64_t covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = 0, hi = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.startNs);
                b = std::min(b, s.endNs);
                if (b <= a)
                    continue;
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                    continue;
                }
                if (open)
                    covered += hi - lo;
                lo = a;
                hi = b;
                open = true;
            }
            if (open)
                covered += hi - lo;
        }
        t.selfSeconds += double(dur - covered) * 1e-9;
    }
    return {by.begin(), by.end()};
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans,
                 std::size_t max_spans)
{
    std::vector<SpanRecord> sorted = spans;
    if (sorted.size() > max_spans) {
        std::nth_element(sorted.begin(), sorted.begin() + max_spans,
                         sorted.end(),
                         [](const SpanRecord &a, const SpanRecord &b) {
                             return a.startNs < b.startNs;
                         });
        sorted.resize(max_spans);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.track != b.track ? a.track < b.track
                         : a.startNs != b.startNs ? a.startNs < b.startNs
                                                  : a.id < b.id;
              });
    const std::int64_t t0 =
        sorted.empty()
            ? 0
            : std::min_element(sorted.begin(), sorted.end(),
                               [](const SpanRecord &a,
                                  const SpanRecord &b) {
                                   return a.startNs < b.startNs;
                               })
                  ->startNs;

    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[512];
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const SpanRecord &s = sorted[i];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
            "\"parent\": %llu, \"op\": %lld, \"work\": %llu}}%s\n",
            s.name, s.track, double(s.startNs - t0) * 1e-3,
            double(s.endNs - s.startNs) * 1e-3,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<long long>(s.op),
            static_cast<unsigned long long>(s.work),
            i + 1 < sorted.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
    return bool(out);
}

} // namespace perf
