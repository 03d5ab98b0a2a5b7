/**
 * @file
 * cwbench: the repository's end-to-end benchmark (see README.md in
 * this directory). One process runs one workload for a fixed time
 * budget and prints, as its last stdout line, one JSON object:
 *
 *   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * they are the per-layer ones and the spans go to --trace-out.
 *
 *   cwbench --workload fig2-sweep --seed 3 --seconds 20 --trace 0 \
 *           --cwsimd PATH
 *
 * The fig2 golden self-check runs as its own process, so its footprint
 * stays out of a workload's peak RSS:
 *
 *   cwbench --self-check --golden tests/golden/fig2_scale4000.jsonl
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "tracer.hh"
#include "util.hh"
#include "workloads.hh"

using namespace cwbench;

namespace
{

/** Every per-layer metric, in print order; absent layers print 0. */
const Metric per_layer[] = {
    {"workloads.build_ms", 0, "ms"},
    {"mdp.prepass_ms", 0, "ms"},
    {"mdp.prepass_minst_per_s", 0, "Minst/s"},
    {"mdp.trace_mb", 0, "MB"},
    {"cpu.construct_ms", 0, "ms"},
    {"cpu.run_s", 0, "s"},
    {"cpu.run_frac", 0, "frac"},
    {"cpu.ns_per_cycle", 0, "ns"},
    {"cpu.ns_per_commit", 0, "ns"},
    {"cpu.ns_per_cycle.nas_no", 0, "ns"},
    {"cpu.ns_per_cycle.nas_nav", 0, "ns"},
    {"cpu.ns_per_cycle.nas_oracle", 0, "ns"},
    {"cpu.ns_per_cycle.nas_sel", 0, "ns"},
    {"cpu.ns_per_cycle.nas_store", 0, "ns"},
    {"cpu.ns_per_cycle.nas_sync", 0, "ns"},
    {"cpu.ns_per_cycle.as_nav", 0, "ns"},
    {"cpu.ns_per_cycle.selective", 0, "ns"},
    {"cpu.sim_cycles", 0, "count"},
    {"cpu.commits", 0, "count"},
    {"cpu.fetched_per_commit", 0, "ratio"},
    {"cpu.gated_loads_per_kload", 0, "1/kload"},
    {"cpu.window_occupancy", 0, "entries"},
    {"mem.dcache_misses_per_kinst", 0, "1/kinst"},
    {"mem.mshr_merges_per_kinst", 0, "1/kinst"},
    {"bpred.mispredicts_per_kinst", 0, "1/kinst"},
    {"mdp.violations_per_kload", 0, "1/kload"},
    {"mdp.replays_per_kload", 0, "1/kload"},
    {"mdp.sync_waits", 0, "count"},
    {"mdp.sel_holds", 0, "count"},
    {"mdp.barrier_holds", 0, "count"},
    {"check.equiv_ms", 0, "ms"},
    {"harness.stats_export_ms", 0, "ms"},
    {"split.run_s", 0, "s"},
    {"split.ns_per_cycle", 0, "ns"},
    {"split.violations", 0, "count"},
    {"obs.depprof_edges", 0, "count"},
    {"obs.depprof_mb", 0, "MB"},
    {"sweep.worker_busy_frac", 0, "frac"},
    {"sweep.longest_run_s", 0, "s"},
    {"sweep.record_encode_us", 0, "us"},
    {"sweep.record_parse_us", 0, "us"},
    {"sweep.cache_append_ms", 0, "ms"},
    {"sweep.cache_lookup_us", 0, "us"},
    {"sweep.isolate_overhead_ms", 0, "ms"},
    {"svc.daemon_start_ms", 0, "ms"},
    {"svc.first_result_ms", 0, "ms"},
    {"svc.queue_ms_p50", 0, "ms"},
    {"svc.queue_ms_p90", 0, "ms"},
    {"svc.hit_result_us", 0, "us"},
    {"svc.hit_frac", 0, "frac"},
    {"bench.trace_overhead_frac", 0, "frac"},
    {"bench.unattributed_frac", 0, "frac"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cwbench: %s\nusage: cwbench --workload "
                 "fig2-sweep|policy-matrix|daemon-churn --seed N "
                 "--seconds S --trace 0|1 [--cwsimd PATH] "
                 "[--expected-dir DIR] [--work-dir DIR] "
                 "[--trace-out FILE] [--source-id ID] "
                 "[--record-expected]\n"
                 "       cwbench --self-check --golden FILE\n",
                 msg);
    std::exit(2);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return cwsim::trim(line.substr(colon + 1));
        }
    }
    return "unknown";
}

/** The host fingerprint every result carries. */
std::string
hostJson(const Options &opts)
{
    return cwsim::JsonObject()
        .add("cpu", cpuModel())
        .add("nproc", static_cast<uint64_t>(
                          std::thread::hardware_concurrency()))
        .add("build_type", CWSIM_BUILD_TYPE)
        .add("lto", CWBENCH_LTO)
        .add("compiler", CWBENCH_COMPILER)
        .add("source", opts.sourceId)
        .add("workload", opts.workload)
        .add("seed", opts.seed)
        .add("seconds", opts.seconds)
        .add("trace", opts.trace)
        .str();
}

void
printMetric(std::string &json, const Metric &m)
{
    json += cwsim::strfmt("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                          json.empty() ? "" : ",", m.name.c_str(),
                          m.value, m.unit.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    bool selfCheckOnly = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
            haveSeed = true;
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value().c_str(), nullptr);
            haveSeconds = opts.seconds > 0;
        } else if (arg == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opts.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--cwsimd") {
            opts.cwsimd = value();
        } else if (arg == "--golden") {
            opts.golden = value();
        } else if (arg == "--expected-dir") {
            opts.expectedDir = value();
        } else if (arg == "--work-dir") {
            opts.workDir = value();
        } else if (arg == "--trace-out") {
            opts.traceOut = value();
        } else if (arg == "--source-id") {
            opts.sourceId = value();
        } else if (arg == "--record-expected") {
            opts.recordExpected = true;
        } else if (arg == "--self-check") {
            selfCheckOnly = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (selfCheckOnly) {
        if (opts.golden.empty())
            usage("--self-check needs --golden");
        std::string err;
        if (!goldenSelfCheck(opts.golden, err)) {
            std::fprintf(stderr, "cwbench: %s\n", err.c_str());
            return 1;
        }
        std::printf("self-check: %s reproduced exactly\n",
                    opts.golden.c_str());
        return 0;
    }
    if (opts.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");

    Outcome (*runner)(const Options &, Expected &) = nullptr;
    if (opts.workload == "fig2-sweep")
        runner = runFig2Sweep;
    else if (opts.workload == "policy-matrix")
        runner = runPolicyMatrix;
    else if (opts.workload == "daemon-churn")
        runner = runDaemonChurn;
    else
        usage(("unknown workload " + opts.workload).c_str());
    if (opts.workload == "daemon-churn" && opts.cwsimd.empty())
        usage("daemon-churn needs --cwsimd");

    std::error_code ec;
    std::filesystem::create_directories(opts.workDir, ec);
    if (ec) {
        std::fprintf(stderr, "cwbench: cannot create %s\n",
                     opts.workDir.c_str());
        return 1;
    }

    std::string host = hostJson(opts);
    std::printf("host %s\n", host.c_str());
    std::fflush(stdout);

    Expected expected(opts.expectedDir + "/" + opts.workload + ".jsonl",
                      opts.recordExpected);
    std::string err;
    if (!expected.load(err)) {
        std::fprintf(stderr, "cwbench: %s\n", err.c_str());
        return 1;
    }

    Outcome out = runner(opts, expected);

    if (opts.recordExpected) {
        if (!expected.save(err)) {
            std::fprintf(stderr, "cwbench: %s\n", err.c_str());
            return 1;
        }
        std::fprintf(stderr, "cwbench: recorded %zu expected runs\n",
                     expected.size());
        return 0;
    }

    std::string metrics;
    if (!opts.trace) {
        printMetric(metrics, {"makespan_s", median(out.makespanS), "s"});
        printMetric(metrics, {"sim_kips", median(out.simKips), "kinst/s"});
        printMetric(metrics, {"setup_s", median(out.setupS), "s"});
        printMetric(metrics, {"peak_rss_mb", peakRssMb(), "MB"});
        printMetric(metrics, {"cpu_s", median(out.cpuS), "s"});
    } else {
        std::set<std::string> known;
        for (const Metric &m : per_layer)
            known.insert(m.name);
        for (const Metric &m : out.layers) {
            if (!known.count(m.name)) {
                std::fprintf(stderr, "cwbench: unlisted metric %s\n",
                             m.name.c_str());
                return 1;
            }
        }
        for (const Metric &m : per_layer) {
            Metric shown = m;
            for (const Metric &got : out.layers) {
                if (got.name == m.name)
                    shown = got;
            }
            printMetric(metrics, shown);
        }
        if (!opts.traceOut.empty() &&
            !Tracer::get().writeChrome(opts.traceOut, host)) {
            std::fprintf(stderr, "cwbench: cannot write %s\n",
                         opts.traceOut.c_str());
            return 1;
        }
    }

    bool correct = out.failed == 0 && out.attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return 0;
}
