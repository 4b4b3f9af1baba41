/**
 * @file
 * Unit and negative-path tests of the des::Kernel: canonical
 * (time, priority, seq) dispatch order, the monotonic-clock
 * "no rewind" rule, quiescent hooks, stats accounting and its charge
 * into the runtime counters, the handler-exception contract, and the
 * structured misuse errors (re-entrant run, scheduling into the past,
 * empty-queue drain, event guard).
 */

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "des/kernel.hh"
#include "runtime/perf_stats.hh"

using namespace ascend;

namespace {

/** Expect fn() to throw Error with @p code, message containing @p hint. */
template <typename Fn>
void
expectError(Fn &&fn, ErrorCode code, const std::string &hint)
{
    try {
        fn();
        FAIL() << "expected ascend::Error [" << toString(code) << "]";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), code) << e.what();
        EXPECT_NE(std::string(e.what()).find(hint), std::string::npos)
            << "message '" << e.what() << "' lacks '" << hint << "'";
    }
}

TEST(DesKernel, DispatchesInCanonicalOrder)
{
    des::Kernel k;
    std::string order;
    const auto mark = [&](const char *tag) {
        return [&order, tag](des::Kernel &) { order += tag; };
    };
    // Scheduled deliberately out of dispatch order: time wins, then
    // priority (lower first), then schedule order.
    k.schedule(2.0, 0, "late", mark("d"));
    k.schedule(1.0, 5, "low-pri", mark("c"));
    k.schedule(1.0, -1, "high-pri", mark("a"));
    k.schedule(1.0, 5, "low-pri-2", mark("c"));
    k.schedule(1.0, 0, "mid-pri", mark("b"));
    k.run();
    EXPECT_EQ(order, "abccd");
    EXPECT_EQ(k.now(), 2.0);
    EXPECT_EQ(k.stats().eventsDispatched, 5u);
    EXPECT_EQ(k.stats().eventsScheduled, 5u);
    EXPECT_EQ(k.stats().queueHighWater, 5u);
    EXPECT_EQ(k.pending(), 0u);
}

TEST(DesKernel, NoRewindRunsLateEventsAtCurrentTime)
{
    des::Kernel k;
    double seen = -1;
    k.schedule(1.0, 0, "advance",
               [](des::Kernel &kk) { kk.advanceTo(10.0); });
    // Key time 5.0 is behind the advanced clock at dispatch: the
    // handler must observe now()==10, never a rewind.
    k.schedule(5.0, 0, "late",
               [&](des::Kernel &kk) { seen = kk.now(); });
    k.run();
    EXPECT_EQ(seen, 10.0);
    EXPECT_EQ(k.now(), 10.0);
}

TEST(DesKernel, ScheduleIntoPastThrows)
{
    des::Kernel k;
    k.advanceTo(5.0);
    expectError(
        [&] {
            k.schedule(1.0, 0, "stale", [](des::Kernel &) {});
        },
        ErrorCode::KernelMisuse, "past");
    expectError(
        [&] {
            k.schedule(std::numeric_limits<double>::infinity(), 0,
                       "inf", [](des::Kernel &) {});
        },
        ErrorCode::KernelMisuse, "inf");
}

TEST(DesKernel, AdvanceToIsMonotonic)
{
    des::Kernel k;
    k.advanceTo(3.0);
    k.advanceTo(3.0); // equal time is a no-op, not a rewind
    EXPECT_EQ(k.now(), 3.0);
    expectError([&] { k.advanceTo(2.0); }, ErrorCode::KernelMisuse,
                "monotonic");
    expectError(
        [&] { k.advanceTo(std::numeric_limits<double>::quiet_NaN()); },
        ErrorCode::KernelMisuse, "monotonic");
}

TEST(DesKernel, ReentrantRunThrows)
{
    des::Kernel k;
    k.schedule(0.0, 0, "reenter",
               [](des::Kernel &kk) { kk.run(); });
    expectError([&] { k.run(); }, ErrorCode::KernelMisuse,
                "re-entrant");
    // The misuse error must leave the kernel reusable.
    std::string order;
    k.schedule(k.now(), 0, "after",
               [&](des::Kernel &) { order += "x"; });
    k.run();
    EXPECT_EQ(order, "x");
}

TEST(DesKernel, EmptyQueueRunIsCleanNoOp)
{
    des::Kernel k;
    k.run();
    k.run(); // drained twice: still a no-op
    EXPECT_EQ(k.now(), 0.0);
    EXPECT_EQ(k.stats().eventsDispatched, 0u);
    EXPECT_EQ(k.pending(), 0u);
}

TEST(DesKernel, QuiescentHooksRunInRegistrationOrder)
{
    des::Kernel k;
    std::string order;
    k.onQuiescent([&](des::Kernel &) { order += "1"; });
    k.onQuiescent([&](des::Kernel &) { order += "2"; });
    k.schedule(1.0, 1, "work", [&](des::Kernel &) { order += "w"; });
    // Same time as the work event; priority 0 dispatches first.
    k.scheduleQuiescent(1.0, 0);
    k.run();
    EXPECT_EQ(order, "12w");
    EXPECT_EQ(k.stats().quiescentPoints, 1u);
}

TEST(DesKernel, RetiredKernelChargesItsStatsIntoCounters)
{
    runtime::resetCounters();
    des::KernelStats stats;
    {
        des::Kernel k;
        k.onQuiescent([](des::Kernel &) {});
        for (int i = 0; i < 4; ++i)
            k.schedule(1.0 + i, 0, "work", [](des::Kernel &kk) {
                kk.schedule(kk.now() + 0.5, 0, "child",
                            [](des::Kernel &) {});
            });
        k.scheduleQuiescent(2.0, 0);
        k.run();
        stats = k.stats();
        // Nothing is charged until the kernel retires.
        EXPECT_EQ(runtime::counterValue("des kernels"), 0u);
    }
    EXPECT_EQ(stats.eventsScheduled, 9u);
    EXPECT_EQ(runtime::counterValue("des kernels"), 1u);
    EXPECT_EQ(runtime::counterValue("des events scheduled"),
              stats.eventsScheduled);
    EXPECT_EQ(runtime::counterValue("des events dispatched"),
              stats.eventsDispatched);
    EXPECT_EQ(runtime::counterValue("des quiescent points"),
              stats.quiescentPoints);
    EXPECT_EQ(runtime::counterValue("des queue high-water"),
              stats.queueHighWater);

    // High-water merges by max across kernels, the rest by sum.
    {
        des::Kernel shallow;
        shallow.schedule(1.0, 0, "one", [](des::Kernel &) {});
        shallow.run();
    }
    EXPECT_EQ(runtime::counterValue("des kernels"), 2u);
    EXPECT_EQ(runtime::counterValue("des events dispatched"),
              stats.eventsDispatched + 1);
    EXPECT_EQ(runtime::counterValue("des queue high-water"),
              stats.queueHighWater);
    runtime::resetCounters();
}

TEST(DesKernel, StopLeavesPendingEvents)
{
    des::Kernel k;
    int ran = 0;
    k.schedule(1.0, 0, "stopper", [&](des::Kernel &kk) {
        ++ran;
        kk.stop();
    });
    k.schedule(2.0, 0, "never", [&](des::Kernel &) { ++ran; });
    k.run();
    EXPECT_TRUE(k.stopped());
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(k.pending(), 1u);
    k.run(); // resuming drains the remainder
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(k.pending(), 0u);
}

TEST(DesKernel, HandlerExceptionPropagatesAndLeavesTheRestPending)
{
    des::Kernel k;
    std::string order;
    k.schedule(1.0, 0, "first", [&](des::Kernel &) { order += "a"; });
    k.schedule(2.0, 0, "thrower", [&](des::Kernel &) {
        order += "t";
        throw std::runtime_error("handler failed");
    });
    k.schedule(3.0, 0, "later", [&](des::Kernel &) { order += "b"; });
    k.schedule(4.0, 0, "last", [&](des::Kernel &) { order += "c"; });
    // The handler's own exception type escapes run(), not a wrapper.
    EXPECT_THROW(k.run(), std::runtime_error);
    EXPECT_EQ(order, "at");
    EXPECT_EQ(k.now(), 2.0);
    // The throwing event is consumed; the later ones stay queued, and
    // the kernel is not stopped: a plain second run() drains them.
    EXPECT_EQ(k.pending(), 2u);
    EXPECT_FALSE(k.stopped());
    k.run();
    EXPECT_EQ(order, "atbc");
    EXPECT_EQ(k.pending(), 0u);
    EXPECT_EQ(k.stats().eventsDispatched, 4u);
}

TEST(DesKernel, EventGuardThrowsGuardExceeded)
{
    des::KernelOptions options;
    options.maxEvents = 10;
    des::Kernel k(options);
    std::function<void(des::Kernel &)> spin =
        [&](des::Kernel &kk) {
            kk.schedule(kk.now() + 1.0, 0, "spin", spin);
        };
    k.schedule(0.0, 0, "spin", spin);
    expectError([&] { k.run(); }, ErrorCode::GuardExceeded, "guard");
}

TEST(DesKernel, NextEventTimeTracksTheQueueHead)
{
    des::Kernel k;
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(k.nextEventTime(), inf);

    k.schedule(3.0, 0, "late", [](des::Kernel &) {});
    EXPECT_EQ(k.nextEventTime(), 3.0);
    k.schedule(1.0, 5, "early", [&](des::Kernel &kk) {
        // Mid-run the head is the next pending event, not self.
        EXPECT_EQ(kk.nextEventTime(), 3.0);
        kk.stop();
    });
    EXPECT_EQ(k.nextEventTime(), 1.0);
    // A quiescent marker at the head is an event like any other.
    k.scheduleQuiescent(0.5, 0);
    EXPECT_EQ(k.nextEventTime(), 0.5);

    k.run(); // stops at t=1 with "late" still queued
    EXPECT_EQ(k.nextEventTime(), 3.0);
    k.run();
    EXPECT_EQ(k.nextEventTime(), inf);
}

TEST(DesKernel, SecondClientComposesAfterStopAndResume)
{
    // Client A runs until it stops the kernel mid-stream; client B is
    // registered only after that stop — its events and hooks must
    // interleave with A's preserved queue in canonical order.
    des::Kernel k;
    std::string order;
    k.onQuiescent([&](des::Kernel &) { order += "qA"; });
    k.schedule(1.0, 0, "A1", [&](des::Kernel &kk) {
        order += "A1.";
        kk.stop();
    });
    k.schedule(2.0, 1, "A2", [&](des::Kernel &) { order += "A2."; });
    k.scheduleQuiescent(2.0, 0);
    k.run();
    ASSERT_TRUE(k.stopped());
    ASSERT_EQ(order, "A1.");
    ASSERT_EQ(k.pending(), 2u);

    // B joins late: an earlier event than A's remainder, a same-time
    // higher-priority event, and its own quiescent hook. The hook
    // list is kernel-global, so A's hook runs first at B's marker too.
    k.onQuiescent([&](des::Kernel &) { order += "qB"; });
    k.schedule(1.5, 0, "B1", [&](des::Kernel &) { order += "B1."; });
    k.schedule(2.0, 2, "B2", [&](des::Kernel &) { order += "B2."; });
    k.scheduleQuiescent(1.5, -1);
    EXPECT_EQ(k.nextEventTime(), 1.5);

    k.run();
    EXPECT_EQ(order, "A1.qAqBB1.qAqBA2.B2.");
    EXPECT_EQ(k.pending(), 0u);
    EXPECT_EQ(k.now(), 2.0);
}

TEST(DesKernel, QuiescentHooksSeeOneOrderAcrossClientsAtEqualTime)
{
    // Two clients chain quiescent markers at the same sim time (the
    // elastic and serving engines' shared discipline). Hooks run in
    // registration order at every marker, and a marker never
    // reorders against same-time prioritized work.
    des::Kernel k;
    std::string order;
    k.onQuiescent([&](des::Kernel &) { order += "a"; });
    k.onQuiescent([&](des::Kernel &) { order += "b"; });

    k.scheduleQuiescent(1.0, 0); // client 1's marker
    k.schedule(1.0, 1, "poll1",
               [&](des::Kernel &) { order += "p1."; });
    k.scheduleQuiescent(1.0, 2); // client 2's marker, after the poll
    k.schedule(1.0, 3, "poll2",
               [&](des::Kernel &) { order += "p2."; });
    k.run();

    EXPECT_EQ(order, "abp1.abp2.");
    EXPECT_EQ(k.stats().quiescentPoints, 2u);
}

} // anonymous namespace
