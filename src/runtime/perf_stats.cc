/**
 * @file
 * Perf-scope and counter registry, and ASCEND_SIM_STATS report
 * formatting.
 */

#include "runtime/perf_stats.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/codec.hh"
#include "common/error.hh"
#include "isa/instruction.hh"

namespace ascend {
namespace runtime {

namespace {

struct Registry
{
    std::mutex mutex;
    // Ordered maps: snapshots come out sorted by name for free, and
    // unique_ptr keeps handed-out references stable across inserts.
    std::map<std::string, std::unique_ptr<PerfScope>> scopes;
    std::map<std::string, std::unique_ptr<Counter>> counters;
};

Registry &
registry()
{
    // Leaked on purpose: the ASCEND_SIM_STATS report runs from a
    // std::atexit handler, and atexit handlers and static destructors
    // unwind through one LIFO. If the first registration lands
    // after that handler registers (e.g. inside a bench body), a
    // function-local static Registry would be destroyed before the
    // handler snapshots it.
    static Registry *r = new Registry;
    return *r;
}

std::string
percent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * fraction);
    return buf;
}

std::string
secondsStr(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
    return buf;
}

} // anonymous namespace

PerfScope &
perfScope(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.scopes.find(name);
    if (it == r.scopes.end())
        it = r.scopes
                 .emplace(name, std::make_unique<PerfScope>(name))
                 .first;
    return *it->second;
}

std::vector<PerfEntry>
perfSnapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<PerfEntry> out;
    out.reserve(r.scopes.size());
    for (const auto &kv : r.scopes)
        out.push_back(
            {kv.first, kv.second->calls(), kv.second->seconds()});
    return out;
}

Counter &
counter(const std::string &name, CounterKind kind, Determinism det,
        CounterUnit unit)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    auto it = r.counters.find(name);
    if (it == r.counters.end())
        return *r.counters
                    .emplace(name, std::make_unique<Counter>(
                                       name, kind, det, unit))
                    .first->second;
    Counter &c = *it->second;
    if (c.kind() != kind || c.determinism() != det || c.unit() != unit)
        throwError(ErrorCode::CounterConflict,
                   "counter '%s' re-registered with a different "
                   "kind, determinism or unit",
                   name.c_str());
    return c;
}

std::vector<CounterEntry>
counterSnapshot()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<CounterEntry> out;
    out.reserve(r.counters.size());
    for (const auto &kv : r.counters) {
        const Counter &c = *kv.second;
        out.push_back(
            {c.name(), c.kind(), c.determinism(), c.unit(), c.value()});
    }
    return out;
}

std::uint64_t
counterValue(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0 : it->second->value();
}

void
resetCounters()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto &kv : r.counters)
        kv.second->reset();
}

std::string
simStatsReport(const SimCache::Stats &stats, unsigned threads)
{
    struct Row
    {
        std::string label, a, b;
        bool varies = false; ///< may differ between thread counts
    };
    const auto num = [](std::uint64_t v) { return std::to_string(v); };
    // Cache counters vary with the thread count: concurrent misses on
    // one key may both simulate.
    std::vector<Row> rows = {
        {"threads", num(threads), "", true},
        {"cache hits", num(stats.hits), "", true},
        {"cache misses", num(stats.misses), "", true},
        {"cache hit rate", percent(stats.hitRate()), "", true},
        {"cache entries", num(stats.entries), "", true},
        {"cache evictions", num(stats.evictions), "", true},
    };
    for (const PerfEntry &e : perfSnapshot())
        rows.push_back({"scope " + e.name, num(e.calls) + " calls",
                        secondsStr(e.seconds), true});
    for (const CounterEntry &c : counterSnapshot())
        rows.push_back({c.name,
                        c.unit == CounterUnit::Fraction
                            ? percent(bitsDouble(c.value))
                            : num(c.value),
                        "", c.determinism == Determinism::Racy});
    // Derived from the counters SimSession charges per result.
    if (const std::uint64_t cycles = counterValue("sim cycles")) {
        for (std::size_t p = 0; p < isa::kNumPipes; ++p) {
            const std::string pipe =
                std::string("pipe ") +
                isa::toString(static_cast<isa::Pipe>(p));
            rows.push_back(
                {pipe + " utilization",
                 percent(double(counterValue(pipe + " busy")) /
                         double(cycles)),
                 "", false});
        }
    }

    std::size_t w0 = 0, w1 = 0;
    for (const Row &r : rows) {
        w0 = std::max(w0, r.label.size());
        w1 = std::max(w1, r.a.size());
    }
    std::ostringstream os;
    os << "[sim stats]\n";
    for (const Row &r : rows) {
        os << "  " << r.label
           << std::string(w0 - r.label.size(), ' ') << "  "
           << std::string(w1 - r.a.size(), ' ') << r.a;
        if (!r.b.empty())
            os << "  " << r.b;
        if (r.varies)
            os << "  ~";
        os << "\n";
    }
    return os.str();
}

} // namespace runtime
} // namespace ascend
