/**
 * @file
 * perf_driver: runs one benchmark workload closed-loop (op i+1 starts
 * when op i returns) and reports its metrics.
 *
 *   perf_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *               [--out <dir>] [--golden <dir>]
 *   perf_driver --check  [--golden <dir>]   serial/wide/traced digest check
 *   perf_driver --freeze [--golden <dir>]   rewrite the golden digests
 *
 * A measured run sets up before every round (setup_s is the median)
 * and runs whole rounds until --seconds have passed. The last stdout
 * line is one JSON object: {correct, attempted, failed, metrics}, with
 * the end-to-end metrics untraced and the per-layer metrics traced.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "perf.hh"
#include "runtime/perf_stats.hh"
#include "runtime/thread_pool.hh"

using namespace perf;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kMinSetupReps = 3;
/** Ops per workload the golden digests and --check cover. */
constexpr std::size_t kGoldenOps = 24;
/** Ops in the fixed parallel-speedup sample. */
constexpr std::size_t kSpeedupOps = 20;
/** Spans written to the Chrome trace (all of them feed the metrics). */
constexpr std::size_t kTraceSpans = 200000;

double
seconds(std::int64_t ns)
{
    return double(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile of @p sorted (q in [0, 1]). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    const double pos = q * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Calls and seconds of the library scope @p name, looked up by name. */
std::pair<std::uint64_t, double>
scope(const std::string &name)
{
    for (const ascend::runtime::PerfEntry &e :
         ascend::runtime::perfSnapshot())
        if (e.name == name)
            return {e.calls, e.seconds};
    return {0, 0};
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** What the timed ops of a run produced. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> opMs;
    double opSeconds = 0;
    std::vector<std::uint64_t> round0; ///< digests of round 0
    std::vector<std::string> errors;

    /** Layer-scope deltas charged inside timed ops. */
    std::uint64_t layerSims = 0;
    double desSeconds = 0;
};

/**
 * Run ops [0, n) of the workload's current round, timing each one.
 * Failures are counted, never thrown.
 */
void
runOps(Workload &wl, std::size_t n, Tally &t, bool keep_digests)
{
    for (std::size_t i = 0; i < n; ++i) {
        setCurrentOp(std::int64_t(i));
        OpResult r;
        try {
            wl.prepare(i);
            // Library scopes are read only while tracing: the untraced
            // loop does nothing between ops but time them.
            const bool traced = activeTracer() != nullptr;
            const auto sims0 = traced ? scope("layer-sim").first : 0;
            const double des0 = traced ? scope("des-kernel").second : 0;
            const std::int64_t t0 = nowNs();
            {
                const Span span("op");
                r = wl.run(i);
            }
            const std::int64_t dt = nowNs() - t0;
            if (traced) {
                t.layerSims += scope("layer-sim").first - sims0;
                t.desSeconds += scope("des-kernel").second - des0;
            }
            wl.check(i, r);
            t.opMs.push_back(double(dt) * 1e-6);
            t.opSeconds += seconds(dt);
        } catch (const std::exception &e) {
            r.violation = std::string("threw: ") + e.what();
        }
        ++t.attempted;
        if (!r.violation.empty()) {
            ++t.failed;
            if (t.errors.size() < 5)
                t.errors.push_back("op " + std::to_string(i) + ": " +
                                   r.violation);
        }
        if (keep_digests)
            t.round0.push_back(r.digest);
    }
    setCurrentOp(-1);
}

std::string
goldenPath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".digest";
}

bool
readGolden(const std::string &path, std::vector<std::string> &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string word, value;
        std::size_t index = 0;
        if (fields >> word >> index >> value && word == "op" &&
            index == out.size())
            out.push_back(value);
    }
    return true;
}

/** Round-0 golden ops of @p workload at @p seed, at the current width. */
std::vector<std::uint64_t>
goldenDigests(const std::string &workload, std::uint64_t seed, Tally &t)
{
    auto wl = makeWorkload(workload, seed);
    wl->setup();
    wl->beginRound(0);
    runOps(*wl, std::min(kGoldenOps, wl->roundSize()), t, true);
    return t.round0;
}

int
freezeMain(const std::string &golden_dir)
{
    std::filesystem::create_directories(golden_dir);
    for (const std::string &w : workloadNames()) {
        Tally t;
        const auto digests = goldenDigests(w, kDefaultSeed, t);
        if (t.failed) {
            std::cerr << w << ": " << t.failed
                      << " ops failed; not freezing\n";
            return 1;
        }
        std::ofstream out(goldenPath(golden_dir, w));
        out << "# " << w << ": digests of the first " << digests.size()
            << " ops of round 0 at seed " << kDefaultSeed << "\n";
        for (std::size_t i = 0; i < digests.size(); ++i)
            out << "op " << i << " " << hex(digests[i]) << "\n";
        std::cout << "froze " << goldenPath(golden_dir, w) << "\n";
    }
    return 0;
}

/**
 * Smoke-size round 0 of every workload three times: serially, at the
 * configured width, and traced (the traced path replays the graph entry
 * points call by call). All three must give byte-identical per-op
 * digests, equal to the golden ones.
 */
int
checkMain(const std::string &golden_dir)
{
    const unsigned width = ascend::runtime::ThreadPool::configuredThreads();
    bool ok = true;
    for (const std::string &w : workloadNames()) {
        Tally serial, wide, traced;
        std::vector<std::uint64_t> a, b, c;
        {
            const ascend::runtime::ScopedThreadPoolSize one(1);
            a = goldenDigests(w, kDefaultSeed, serial);
        }
        b = goldenDigests(w, kDefaultSeed, wide);
        {
            Tracer tracer;
            setActiveTracer(&tracer);
            c = goldenDigests(w, kDefaultSeed, traced);
            setActiveTracer(nullptr);
        }
        std::vector<std::string> golden;
        const bool haveGolden = readGolden(goldenPath(golden_dir, w),
                                           golden);
        std::size_t widthMiss = 0, traceMiss = 0, goldenMiss = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            widthMiss += a[i] != b[i];
            traceMiss += a[i] != c[i];
            goldenMiss += haveGolden &&
                          (i >= golden.size() || golden[i] != hex(a[i]));
        }
        const std::uint64_t failed =
            serial.failed + wide.failed + traced.failed;
        const bool pass = !failed && !widthMiss && !traceMiss &&
                          haveGolden && !goldenMiss;
        std::cout << w << ": " << a.size() << " ops, T1 vs T" << width
                  << " mismatches " << widthMiss
                  << ", traced mismatches " << traceMiss << ", golden "
                  << (haveGolden ? std::to_string(goldenMiss) +
                                       " mismatches"
                                 : std::string("missing"))
                  << ", failed " << failed << " -> "
                  << (pass ? "ok" : "FAIL") << "\n";
        for (const Tally *t : {&serial, &wide, &traced})
            for (const std::string &e : t->errors)
                std::cout << "  " << e << "\n";
        ok = ok && pass;
    }
    return ok ? 0 : 1;
}

/** Per-layer metrics from the traced phase's spans and counters. */
std::vector<Metric>
layerMetrics(const std::vector<SpanRecord> &spans, const Tally &traced,
             const Workload &wl, double overhead, double speedup)
{
    std::map<std::string, SpanTotals> by;
    for (auto &[name, totals] : aggregate(spans))
        by[name] = totals;
    const auto get = [&](const char *name) { return by[name]; };
    const auto rate = [](double n, double s) { return s > 0 ? n / s : 0; };

    const SpanTotals build = get("graph.build");
    const SpanTotals lower = get("graph.lower");
    const SpanTotals hit = get("runtime.query.hit");
    const SpanTotals pred = get("runtime.query.predicted");
    const SpanTotals exact = get("runtime.query.exact");
    const SpanTotals fallback = get("runtime.query.fallback");
    const SpanTotals compile = get("compiler.compile");
    const SpanTotals core = get("core.run");
    const SpanTotals arrivals = get("serving.arrivals");
    const SpanTotals fleet = get("serving.runFleet");
    const SpanTotals curve = get("serving.curve_build");
    const SpanTotals chip = get("soc.runChipSim");

    const double queries =
        double(hit.calls + pred.calls + exact.calls + fallback.calls);
    const auto [hits, misses] = cacheTally();
    const double exactTier = double(exact.calls + fallback.calls);
    const double anchors =
        wl.surrogateOn()
            ? std::max(0.0, double(traced.layerSims) - exactTier)
            : 0;

    return {
        {"graph.build_s", build.seconds, "s", build.calls},
        {"graph.lower_s", lower.seconds, "s", lower.calls},
        {"graph.nodes_per_s", rate(double(lower.work), lower.seconds),
         "node/s", lower.calls},
        {"runtime.cache_hit_rate",
         hits + misses ? double(hits) / double(hits + misses) : 0,
         "ratio", hits + misses},
        {"runtime.exact_sims", double(traced.layerSims), "count",
         traced.attempted},
        {"runtime.hit_queries_per_s", rate(double(hit.calls), hit.seconds),
         "query/s", hit.calls},
        {"runtime.predicted_queries_per_s",
         rate(double(pred.calls), pred.seconds), "query/s", pred.calls},
        {"runtime.exact_queries_per_s",
         rate(exactTier, exact.seconds + fallback.seconds), "query/s",
         exact.calls + fallback.calls},
        {"surrogate.predicted_frac",
         queries > 0 ? double(pred.calls) / queries : 0, "ratio",
         std::uint64_t(queries)},
        {"surrogate.fallback_frac",
         queries > 0 ? double(fallback.calls) / queries : 0, "ratio",
         std::uint64_t(queries)},
        {"surrogate.anchor_sims", anchors, "count", traced.attempted},
        {"surrogate.pred_max_rel_err", wl.predMaxRelErr(), "ratio",
         wl.predChecks()},
        {"compiler.compile_s", compile.seconds, "s", compile.calls},
        {"compiler.us_per_compile",
         compile.calls ? 1e6 * compile.seconds / double(compile.calls) : 0,
         "us", compile.calls},
        {"core.run_s", core.seconds, "s", core.calls},
        {"core.sim_instrs", double(core.work), "count", core.calls},
        {"core.minstr_per_s", rate(double(core.work) * 1e-6, core.seconds),
         "Minstr/s", core.calls},
        {"des.kernel_s", traced.desSeconds, "s", traced.attempted},
        {"des.kernel_frac", rate(traced.desSeconds, traced.opSeconds),
         "ratio", traced.attempted},
        {"serving.arrivals_s", arrivals.seconds, "s", arrivals.calls},
        {"serving.runfleet_s", fleet.seconds, "s", fleet.calls},
        {"serving.sim_req_per_s", rate(double(fleet.work), fleet.seconds),
         "req/s", fleet.calls},
        {"serving.curve_build_s", curve.seconds, "s", curve.calls},
        {"soc.chipsim_s", chip.seconds, "s", chip.calls},
        {"soc.core_tasks_per_s", rate(double(chip.work), chip.seconds),
         "task/s", chip.calls},
        {"runtime.parallel_speedup", speedup, "ratio", kSpeedupOps},
        {"trace_overhead_frac", overhead, "ratio", traced.attempted},
    };
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics, bool samples)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
           << jsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"";
        if (samples)
            os << ", \"samples\": " << m.samples;
        os << "}";
    }
    os << "}";
    return os.str();
}

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 15;
    bool trace = false;
    std::string out = "perf/out";
    std::string golden = "perf/golden";
    bool check = false;
    bool freeze = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perf_driver: " << msg
              << "\nusage: perf_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>] "
                 "[--golden <dir>]\n       perf_driver --check | "
                 "--freeze [--golden <dir>]\n";
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (flag == "--trace")
            a.trace = value() != "0";
        else if (flag == "--out")
            a.out = value();
        else if (flag == "--golden")
            a.golden = value();
        else if (flag == "--check")
            a.check = true;
        else if (flag == "--freeze")
            a.freeze = true;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!a.check && !a.freeze && !makeWorkload(a.workload, 0))
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.freeze)
        return freezeMain(args.golden);
    if (args.check)
        return checkMain(args.golden);

    const unsigned threads =
        ascend::runtime::ThreadPool::configuredThreads();
    auto wl = makeWorkload(args.workload, args.seed);

    // Set up once before every round: each rep is timed at a different
    // moment of the run, so setup_s (their median) does not hang on one
    // instant of host load.
    std::vector<double> setupS;
    const auto timedSetup = [&] {
        const std::int64_t t0 = nowNs();
        wl->setup();
        const std::int64_t dt = nowNs() - t0;
        setupS.push_back(seconds(dt));
        return dt;
    };
    timedSetup();

    Tracer tracer;
    Tally plain, traced;
    double speedup = 0;
    if (args.trace) {
        // Setup once more under the tracer, for the layers that only
        // run there (curve building, graph construction).
        setActiveTracer(&tracer);
        const auto sims0 = scope("layer-sim").first;
        wl->setup();
        traced.layerSims += scope("layer-sim").first - sims0;
        setActiveTracer(nullptr);
    }

    // Every round runs whole, so each measured op mix is the same.
    std::int64_t deadline = nowNs() + std::int64_t(args.seconds * 1e9);
    std::uint64_t round = 0;
    do {
        if (round > 0)
            deadline += timedSetup(); // setup does not eat measure time
        wl->beginRound(round);
        runOps(*wl, wl->roundSize(), plain, round == 0);
        if (args.trace) {
            // Same round again, traced: the difference is the overhead.
            wl->beginRound(round);
            setActiveTracer(&tracer);
            runOps(*wl, wl->roundSize(), traced, false);
            setActiveTracer(nullptr);
        }
        ++round;
    } while (nowNs() < deadline);
    while (setupS.size() < kMinSetupReps)
        timedSetup();

    if (args.trace) {
        // A fixed sample of round 0 serially and at the full width.
        double at[2] = {0, 0};
        for (int pass = 0; pass < 2; ++pass) {
            std::unique_ptr<ascend::runtime::ScopedThreadPoolSize> one;
            if (pass == 0)
                one = std::make_unique<
                    ascend::runtime::ScopedThreadPoolSize>(1);
            Tally sample;
            wl->beginRound(0);
            runOps(*wl, std::min(kSpeedupOps, wl->roundSize()), sample,
                   false);
            at[pass] = sample.opSeconds;
            plain.failed += sample.failed;
            plain.attempted += sample.attempted;
        }
        speedup = at[1] > 0 ? at[0] / at[1] : 0;
    }

    // Golden digests pin the default seed's round 0.
    if (args.seed == kDefaultSeed) {
        std::vector<std::string> golden;
        if (!readGolden(goldenPath(args.golden, args.workload), golden)) {
            ++plain.failed;
            plain.errors.push_back("missing golden digests");
        }
        for (std::size_t i = 0; i < golden.size(); ++i)
            if (i >= plain.round0.size() ||
                golden[i] != hex(plain.round0[i])) {
                ++plain.failed;
                if (plain.errors.size() < 5)
                    plain.errors.push_back(
                        "op " + std::to_string(i) +
                        ": digest differs from the golden");
            }
    }

    std::vector<double> sorted = plain.opMs;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t n = sorted.size();
    const std::vector<Metric> e2e = {
        {"setup_s", median(setupS), "s", setupS.size()},
        {"ops_per_s",
         plain.opSeconds > 0 ? double(n) / plain.opSeconds : 0, "op/s", n},
        {"op_p50_ms", quantile(sorted, 0.5), "ms", n},
        {"op_p90_ms", quantile(sorted, 0.9), "ms", n},
        {"peak_rss_mib", peakRssMib(), "MiB", 1},
    };

    const double overhead = plain.opSeconds > 0 && traced.opSeconds > 0
                                ? traced.opSeconds / plain.opSeconds - 1
                                : 0;
    const std::vector<Metric> layers =
        args.trace ? layerMetrics(tracer.spans(), traced, *wl, overhead,
                                  speedup)
                   : std::vector<Metric>{};

    const double err = wl->predMaxRelErr();
    const std::uint64_t failed = plain.failed + traced.failed;
    const std::uint64_t attempted = plain.attempted + traced.attempted;
    const bool correct = failed == 0 && err <= kErrBudget;
    Digest round0;
    for (std::uint64_t d : plain.round0)
        round0.u64(d);

    for (const std::string &e : plain.errors)
        std::cout << "FAILED " << args.workload << " " << e << "\n";
    for (const std::string &e : traced.errors)
        std::cout << "FAILED " << args.workload << " (traced) " << e
                  << "\n";
    std::cout << args.workload << ": seed " << args.seed << ", "
              << threads << " threads, " << round << " rounds of "
              << wl->roundSize() << " ops, round-0 digest "
              << hex(round0.value()) << "\n";
    std::vector<Metric> printed = e2e;
    if (n >= 1000) // at least ten samples lie beyond p99
        printed.push_back({"op_p99_ms", quantile(sorted, 0.99), "ms", n});
    printed.push_back(
        {"pred_max_rel_err", err, "ratio", wl->predChecks()});
    printed.push_back(
        {"failed_frac",
         attempted ? double(failed) / double(attempted) : 0, "ratio",
         attempted});
    printed.insert(printed.end(), layers.begin(), layers.end());
    for (const Metric &m : printed)
        std::printf("%-12s %-32s %14.6g %-8s (n=%" PRIu64 ")\n",
                    args.workload.c_str(), m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);

    std::filesystem::create_directories(args.out);
    const std::string stem = args.out + "/" + args.workload;
    if (args.trace) {
        const auto spans = tracer.spans();
        writeChromeTrace(stem + ".trace.json", spans, kTraceSpans);
        std::ofstream lj(stem + ".layers.json");
        lj << "{\"workload\": \"" << args.workload
           << "\", \"metrics\": " << metricsJson(layers, true)
           << ", \"spans\": {";
        bool first = true;
        for (const auto &[name, t] : aggregate(spans)) {
            lj << (first ? "" : ", ") << "\"" << name
               << "\": {\"calls\": " << t.calls << ", \"work\": " << t.work
               << ", \"seconds\": " << jsonNumber(t.seconds)
               << ", \"self_seconds\": " << jsonNumber(t.selfSeconds)
               << "}";
            first = false;
        }
        lj << "}}\n";
    }
    {
        std::ofstream rj(stem + ".result.json");
        rj << "{\"workload\": \"" << args.workload
           << "\", \"seed\": " << args.seed << ", \"threads\": " << threads
           << ", \"trace\": " << (args.trace ? 1 : 0)
           << ", \"rounds\": " << round
           << ", \"round_ops\": " << wl->roundSize()
           << ", \"round0_digest\": \"" << hex(round0.value())
           << "\", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"pred_max_rel_err\": " << jsonNumber(err)
           << ", \"metrics\": "
           << metricsJson(args.trace ? layers : e2e, true) << "}\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": "
              << metricsJson(args.trace ? layers : e2e, false) << "}"
              << std::endl;
    return correct ? 0 : 1;
}
