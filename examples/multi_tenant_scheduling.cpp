/**
 * @file
 * Multi-level scheduling demo (paper Section 5.2 / Fig. 17): two
 * applications compiled to streams of tasks, their blocks
 * list-scheduled across the cores of one SoC. Shows app-level
 * concurrency, stream ordering, and block-level parallelism — the
 * hierarchy the Ascend software stack exposes.
 */

#include <iostream>

#include "common/table.hh"
#include "compiler/graph_engine.hh"
#include "graph/lower.hh"
#include "graph/zoo_graphs.hh"

using namespace ascend;

int
main()
{
    runtime::SimSession session(
        arch::makeCoreConfig(arch::CoreVersion::Std));

    // App 1: a surveillance service running ResNet50 per camera.
    // App 2: a tracking service running MobileNetV2.
    compiler::App surveillance;
    surveillance.name = "surveillance";
    surveillance.streams.push_back(compiler::compileToStream(
        session, graph::toNetwork(graph::zoo::resnet50Graph(1)),
        /*max_blocks=*/4));

    compiler::App tracking;
    tracking.name = "tracking";
    tracking.streams.push_back(compiler::compileToStream(
        session, graph::toNetwork(graph::zoo::mobilenetV2Graph(1)),
        /*max_blocks=*/4));

    std::cout << "=== multi-level scheduling on an 8-core SoC ===\n";
    std::cout << "surveillance: "
              << surveillance.streams[0].tasks.size()
              << " tasks, tracking: "
              << tracking.streams[0].tasks.size() << " tasks\n\n";

    TextTable t("app placement strategies");
    t.header({"configuration", "makespan (kcycles)", "core util %",
              "surveillance finish", "tracking finish"});

    auto report = [&](const char *name,
                      const std::vector<compiler::App> &apps,
                      unsigned cores) {
        const auto r = compiler::schedule(apps, cores);
        std::vector<std::string> row = {
            name, TextTable::num(r.makespan / 1000.0, 0),
            TextTable::num(100 * r.avgCoreUtilization, 1)};
        for (std::size_t a = 0; a < 2; ++a)
            row.push_back(a < r.appFinish.size()
                              ? TextTable::num(r.appFinish[a] / 1000.0, 0)
                              : std::string("-"));
        t.row(row);
    };

    // Serial: one app at a time on the full SoC.
    {
        const auto r1 = compiler::schedule({surveillance}, 8);
        const auto r2 = compiler::schedule({tracking}, 8);
        t.row({"serial (one app at a time)",
               TextTable::num((r1.makespan + r2.makespan) / 1000.0, 0),
               "-", TextTable::num(r1.makespan / 1000.0, 0),
               TextTable::num((r1.makespan + r2.makespan) / 1000.0, 0)});
    }
    // Concurrent: both apps share the task scheduler.
    report("concurrent (shared scheduler)", {surveillance, tracking}, 8);

    t.print(std::cout);
    std::cout << "Running both apps through the task scheduler "
                 "overlaps their streams across cores\nand shortens the "
                 "combined makespan — the Section 5.2 hierarchy at "
                 "work.\n";
    return 0;
}
