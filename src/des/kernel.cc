/**
 * @file
 * Deterministic discrete-event kernel implementation.
 */

#include "des/kernel.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hh"
#include "obs/tracer.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

namespace ascend {
namespace des {

namespace {

/** Kernel sim time (client units, assumed seconds) to trace ns. */
std::uint64_t
traceNs(double seconds)
{
    return std::uint64_t(std::llround(seconds * 1e9));
}

} // anonymous namespace

Kernel::Kernel(const KernelOptions &options) : options_(options)
{
    options_.parallelGrain =
        std::max<std::size_t>(options_.parallelGrain, 1);
}

Kernel::~Kernel()
{
    // Sim-structure counters: deterministic at any thread count.
    using runtime::CounterKind;
    constexpr auto det = runtime::Determinism::Deterministic;
    static runtime::Counter &kernels =
        runtime::counter("des kernels", CounterKind::Sum, det);
    static runtime::Counter &highWater = runtime::counter(
        "des queue high-water", CounterKind::Max, det);
    static const runtime::FieldCounters<KernelStats> fields = {
        {"des events scheduled", &KernelStats::eventsScheduled},
        {"des events dispatched", &KernelStats::eventsDispatched},
        {"des phases", &KernelStats::phasesRun},
        {"des quiescent points", &KernelStats::quiescentPoints},
    };
    kernels.charge(1);
    highWater.charge(stats_.queueHighWater);
    fields.charge(stats_);
}

void
Kernel::advanceTo(double time)
{
    if (!(time >= now_) || !std::isfinite(time))
        throwError(ErrorCode::KernelMisuse,
                   "Kernel::advanceTo(%.17g): clock is monotonic "
                   "(now=%.17g)",
                   time, now_);
    now_ = time;
}

std::uint64_t
Kernel::push(double time, std::int32_t priority, const char *name,
             Handler fn)
{
    if (!(time >= now_) || !std::isfinite(time))
        throwError(ErrorCode::KernelMisuse,
                   "Kernel::schedule('%s', t=%.17g): events cannot be "
                   "scheduled into the past (now=%.17g)",
                   name ? name : "?", time, now_);
    Event e;
    e.time = time;
    e.priority = priority;
    e.seq = nextSeq_++;
    e.name = name;
    e.fn = std::move(fn);
    const std::uint64_t seq = e.seq;
    queue_.push_back(std::move(e));
    std::push_heap(queue_.begin(), queue_.end(), EventAfter{});
    ++stats_.eventsScheduled;
    stats_.queueHighWater =
        std::max<std::uint64_t>(stats_.queueHighWater, queue_.size());
    return seq;
}

std::uint64_t
Kernel::schedule(double time, std::int32_t priority, const char *name,
                 Handler fn)
{
    return push(time, priority, name, std::move(fn));
}

void
Kernel::onQuiescent(Handler hook)
{
    quiescentHooks_.push_back(std::move(hook));
}

std::uint64_t
Kernel::scheduleQuiescent(double time, std::int32_t priority)
{
    return push(time, priority, "quiescent", Handler());
}

void
Kernel::run()
{
    if (running_)
        throwError(ErrorCode::KernelMisuse,
                   "Kernel::run() is not re-entrant (called from "
                   "inside a handler)");
    static runtime::PerfScope &perf = runtime::perfScope("des-kernel");
    const runtime::PerfTimer timer(perf);
    running_ = true;
    stopped_ = false;
    // The flag must clear however the loop exits (handler throw
    // included) so the kernel stays reusable after an error.
    struct Running
    {
        bool &flag;
        ~Running() { flag = false; }
    } guard{running_};

    while (!queue_.empty() && !stopped_) {
        std::pop_heap(queue_.begin(), queue_.end(), EventAfter{});
        Event e = std::move(queue_.back());
        queue_.pop_back();
        // No rewind: an event behind an advanced clock runs "now".
        now_ = std::max(now_, e.time);
        ++stats_.eventsDispatched;
        if (options_.maxEvents &&
            stats_.eventsDispatched > options_.maxEvents)
            throwError(ErrorCode::GuardExceeded,
                       "des::Kernel: event guard exceeded after %llu "
                       "dispatches at t=%.9g (next event '%s')",
                       static_cast<unsigned long long>(
                           stats_.eventsDispatched),
                       now_, e.name ? e.name : "?");
        if (!e.fn) { // quiescent marker
            ++stats_.quiescentPoints;
            for (const Handler &hook : quiescentHooks_)
                hook(*this);
            continue;
        }
        e.fn(*this);
    }
}

double
Kernel::nextEventTime() const
{
    if (queue_.empty())
        return std::numeric_limits<double>::infinity();
    // queue_ is a heap under EventAfter, so the front is the earliest
    // (time, priority, seq) key.
    return queue_.front().time;
}

std::size_t
Kernel::phaseSlices(std::size_t n) const
{
    return (n + options_.parallelGrain - 1) / options_.parallelGrain;
}

void
Kernel::runPhase(
    const char *label, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &fn)
{
    if (inPhase_)
        throwError(ErrorCode::KernelMisuse,
                   "Kernel::phase('%s'): phases cannot nest (a phase "
                   "body scheduled another phase)",
                   label ? label : "?");
    inPhase_ = true;
    struct InPhase
    {
        bool &flag;
        ~InPhase() { flag = false; }
    } guard{inPhase_};

    ++stats_.phasesRun;
    if (obs::Tracer *tracer = obs::Tracer::current())
        tracer->span(obs::Domain::Kernel, 1, label, traceNs(now_), 0,
                     n);

    const std::size_t grain = options_.parallelGrain;
    const std::size_t slices = phaseSlices(n);
    if (slices < 2) {
        if (n)
            fn(std::size_t(0), n, std::size_t(0));
        return;
    }
    runtime::parallelFor(slices, [&](std::size_t s) {
        fn(s * grain, std::min(n, (s + 1) * grain), s);
    });
}

} // namespace des
} // namespace ascend
