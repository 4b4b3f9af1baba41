/**
 * @file
 * Graph engine implementation.
 */

#include "compiler/graph_engine.hh"

#include <algorithm>
#include <map>
#include <queue>

#include "common/logging.hh"

namespace ascend {
namespace compiler {

Stream
compileToStream(const runtime::SimSession &session,
                const model::Network &net, unsigned max_blocks)
{
    simAssert(max_blocks >= 1, "need at least one block per task");
    const auto runs = session.runInference(net);
    const auto groups = runtime::fusionGroups(runs);

    Stream stream;
    stream.name = net.name;
    stream.tasks.reserve(groups.size());
    for (const runtime::GroupProfile &g : groups) {
        Task task;
        task.name = g.name;
        task.cycles = g.totalCycles;
        // Block splitting follows available data parallelism: big
        // tasks split further, tiny tasks stay single-block (the
        // split is written explicitly by the programmer, per 5.2).
        task.blocks = std::clamp<unsigned>(
            static_cast<unsigned>(g.totalCycles / 20000), 1, max_blocks);
        stream.tasks.push_back(std::move(task));
    }
    return stream;
}

ScheduleResult
schedule(const std::vector<App> &apps, unsigned cores)
{
    simAssert(cores > 0, "need at least one core");

    // Min-heap of core free times.
    std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>>
        core_free;
    for (unsigned c = 0; c < cores; ++c)
        core_free.push(0);

    struct StreamCursor
    {
        const Stream *stream;
        std::size_t appIndex;
        std::size_t next = 0;
        Cycles readyAt = 0;
    };
    std::vector<StreamCursor> cursors;
    for (std::size_t a = 0; a < apps.size(); ++a)
        for (const Stream &s : apps[a].streams)
            cursors.push_back(StreamCursor{&s, a});

    ScheduleResult result;
    result.appFinish.assign(apps.size(), 0);
    // Event signal times; -1 index means "no event".
    std::map<int, Cycles> event_time;

    // Event-driven list scheduling: repeatedly pick the ready stream
    // cursor with the earliest ready time and place its next task.
    bool progress = true;
    while (progress) {
        progress = false;
        // Pick the cursor with work whose readyAt is smallest; skip
        // cursors blocked on an unsignalled event.
        StreamCursor *best = nullptr;
        bool any_blocked = false;
        for (StreamCursor &c : cursors) {
            if (c.next >= c.stream->tasks.size())
                continue;
            const Task &t = c.stream->tasks[c.next];
            if (t.waitsForEvent >= 0 &&
                event_time.find(t.waitsForEvent) == event_time.end()) {
                any_blocked = true;
                continue;
            }
            if (!best || c.readyAt < best->readyAt)
                best = &c;
        }
        if (!best) {
            if (any_blocked)
                panic("schedule: dependency cycle - streams blocked on "
                      "events nobody can signal");
            break;
        }

        const Task &task = best->stream->tasks[best->next];
        Cycles ready = best->readyAt;
        if (task.waitsForEvent >= 0)
            ready = std::max(ready, event_time[task.waitsForEvent]);
        best->readyAt = ready;
        const unsigned blocks = std::max(1u, task.blocks);
        const Cycles block_cycles =
            std::max<Cycles>(1, task.cycles / blocks);

        Cycles task_finish = 0;
        for (unsigned b = 0; b < blocks; ++b) {
            // Pop-and-push per block: when blocks exceed cores the
            // same core is legitimately reused for several blocks.
            const Cycles free_at = core_free.top();
            core_free.pop();
            const Cycles start = std::max(free_at, best->readyAt);
            const Cycles finish = start + block_cycles;
            core_free.push(finish);
            task_finish = std::max(task_finish, finish);
        }

        best->readyAt = task_finish;
        if (task.signalsEvent >= 0)
            event_time[task.signalsEvent] = task_finish;
        ++best->next;
        result.appFinish[best->appIndex] =
            std::max(result.appFinish[best->appIndex], task_finish);
        result.makespan = std::max(result.makespan, task_finish);
        progress = true;
    }

    // Utilization: total task work over cores * makespan.
    Cycles total_work = 0;
    for (const StreamCursor &c : cursors)
        for (const Task &t : c.stream->tasks)
            total_work += t.cycles;
    result.avgCoreUtilization = result.makespan
        ? double(total_work) / (double(result.makespan) * cores) : 0.0;
    return result;
}

} // namespace compiler
} // namespace ascend
