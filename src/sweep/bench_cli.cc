#include "sweep/bench_cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"
#include "base/str.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "obs/trace.hh"
#include "sim/config_parse.hh"
#include "sim/table.hh"
#include "sweep/isolate.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace sweep
{

CliSpec
benchCli(BenchOptions &o)
{
    // CWSIM_JOBS, CWSIM_SCALE and the tracing variables are read where
    // they take effect (resolveJobs, harness::benchScale, the trace and
    // profile managers); their rows only name them.
    return {
        .usage = {"[options]"},
        .flags = {
            {.name = "--jobs", .alias = "-j", .meta = "N", .to = &o.jobs,
             .min = 1, .libEnv = "CWSIM_JOBS",
             .help = "worker threads (default: all hardware threads)"},
            {.name = "--scale", .meta = "N", .to = &o.scale,
             .min = workloads::min_scale, .libEnv = "CWSIM_SCALE",
             .help = "dynamic-instruction target per workload"},
            {.name = "--filter", .meta = "SUB", .to = &o.filter,
             .help = "only workloads whose name contains SUB"},
            {.name = "--json", .meta = "PATH", .to = &o.jsonPath,
             .help = "append one JSONL record per run to PATH"},
            {.name = "--no-cache", .to = &o.cache, .sets = false,
             .help = "bypass the on-disk run cache"},
            {.name = "--cache-dir", .meta = "D", .to = &o.cacheDir,
             .env = "CWSIM_CACHE_DIR",
             .help = "run-cache directory (default .cwsim-cache)"},
            {.name = "--trace", .meta = "FLAGS", .to = &o.traceSpec,
             .libEnv = "CWSIM_TRACE",
             .help = "enable trace flags (e.g. MDP,Recovery or all)"},
            {.name = "--trace-file", .meta = "P", .to = &o.traceFile,
             .libEnv = "CWSIM_TRACE_FILE",
             .help = "trace output path (default stderr)"},
            {.name = "--pipeview", .meta = "P", .to = &o.pipeviewPath,
             .libEnv = "CWSIM_PIPEVIEW",
             .help = "O3PipeView pipeline-trace path (use --jobs 1)"},
            {.name = "--interval", .meta = "N", .to = &o.intervalCycles,
             .min = 1, .libEnv = "CWSIM_INTERVAL",
             .help = "sample interval stats every N cycles"},
            {.name = "--interval-file", .meta = "P", .to = &o.intervalFile,
             .libEnv = "CWSIM_INTERVAL_FILE",
             .help = "interval-stats JSONL path"},
            {.name = "--depprof", .to = &o.depprof,
             .libEnv = "CWSIM_DEPPROF",
             .help = "collect per-static-PC dependence profiles (JSONL)"},
            {.name = "--depprof-file", .meta = "P", .to = &o.depprofFile,
             .implies = &o.depprof, .libEnv = "CWSIM_DEPPROF",
             .help = "dependence-profile path (implies --depprof)"},
            {.name = "--cpi-stack", .to = &o.cpiStack,
             .env = "CWSIM_CPI_STACK",
             .help = "print the per-run CPI stack (commit-slot losses)"},
            {.name = "--isolate", .to = &o.isolate, .env = "CWSIM_ISOLATE",
             .help = "sandbox runs in worker processes (contain crashes)"},
            {.name = "--timeout", .meta = "S", .to = &o.timeoutSec,
             .env = "CWSIM_TIMEOUT",
             .help = "wall-clock deadline per isolated run, seconds "
                     "(0 = none)"},
            {.name = "--mem-limit", .meta = "MB", .to = &o.memLimitMb,
             .max = max_mem_limit_mb, .env = "CWSIM_MEM_LIMIT",
             .help = "address-space cap per isolated worker, MiB "
                     "(0 = none)"},
            {.name = "--retries", .meta = "N", .to = &o.retries,
             .env = "CWSIM_RETRIES",
             .help = "retries for host-level failures of an isolated run"},
            // Checked when applied, before any simulation runs.
            {.name = "--set", .meta = "K=V", .to = &o.configOverrides,
             .help = "apply a config override to every job (repeatable)"},
            {.name = "--cache-fsck", .to = &o.cacheFsck,
             .help = "scan the run cache, report, and exit"},
            {.name = "--cache-compact", .to = &o.cacheCompact,
             .help = "drop superseded run-cache records and exit"},
            cli_help,
        },
    };
}

BenchOptions
parseBenchArgs(int argc, char **argv, uint64_t defaultScale)
{
    // A bench that halves CWSIM_SCALE still builds its kernels at the
    // minimum scale or above.
    BenchOptions opts;
    opts.scale = std::max(defaultScale ? defaultScale : harness::benchScale(),
                          workloads::min_scale);
    CliSpec cli = benchCli(opts);
    if (parseCliOrFatal(cli, argc, argv) == CliRequest::Help) {
        std::fputs(cliHelp(cli, argv[0]).c_str(), stdout);
        std::exit(0);
    }
    return opts;
}

std::vector<std::string>
filterNames(const std::vector<std::string> &names,
            const std::string &filter)
{
    if (filter.empty())
        return names;
    std::vector<std::string> out;
    for (const auto &name : names) {
        if (name.find(filter) != std::string::npos)
            out.push_back(name);
    }
    return out;
}

BenchCli::BenchCli(int argc, char **argv, uint64_t defaultScale)
    : opts(parseBenchArgs(argc, argv, defaultScale))
{
    // Tracing lands on the global TraceManager, never in SimConfig, so
    // the flags below cannot perturb run-cache fingerprints.
    obs::TraceManager &tm = obs::TraceManager::instance();
    if (!opts.traceSpec.empty()) {
        std::string err;
        fatal_if(!tm.configure(opts.traceSpec, &err), "--trace: %s",
                 err.c_str());
    }
    if (!opts.traceFile.empty())
        tm.setOutputPath(opts.traceFile);
    if (!opts.pipeviewPath.empty()) {
        fatal_if(!tm.setPipeViewPath(opts.pipeviewPath),
                 "--pipeview: cannot write %s",
                 opts.pipeviewPath.c_str());
    }
    if (opts.intervalCycles > 0)
        tm.setInterval(opts.intervalCycles, opts.intervalFile);

    // Dependence profiling follows the same contract: the state lives
    // on the global DepProfManager, never in SimConfig, so enabling it
    // cannot change fingerprints — and the collector only reads sim
    // state, so it cannot change results either. CWSIM_DEPPROF is
    // applied by the manager itself on first use; the flags override.
    if (opts.depprof)
        obs::DepProfManager::instance().enable(opts.depprofFile);

    // Cache maintenance short-circuits the bench entirely: report (or
    // rewrite) and exit before any workload is even built.
    if (opts.cacheFsck) {
        CacheFsckReport rep = fsckRunCache(opts.cacheDir);
        std::printf("%s\n", rep.summary().c_str());
        std::exit(rep.clean() ? 0 : 1);
    }
    if (opts.cacheCompact) {
        std::string err;
        CacheFsckReport rep;
        fatal_if(!compactRunCache(opts.cacheDir, &err, &rep),
                 "--cache-compact: %s", err.c_str());
        std::printf("%s\n", rep.summary().c_str());
        std::exit(0);
    }

    theRunner = std::make_unique<harness::Runner>(opts.scale);
    SweepOptions sopts;
    sopts.jobs = opts.jobs;
    sopts.useCache = opts.cache;
    sopts.cacheDir = opts.cacheDir;
    sopts.jsonPath = opts.jsonPath;
    sopts.isolate = opts.isolate;
    sopts.timeoutSec = opts.timeoutSec;
    sopts.memLimitMb = opts.memLimitMb;
    sopts.retries = opts.retries;
    theEngine = std::make_unique<SweepEngine>(*theRunner, sopts);
}

std::vector<harness::RunResult>
BenchCli::run(const SweepPlan &plan)
{
    // --set overrides rewrite every job's config before it runs. The
    // overridden config fingerprints differently, so cached results of
    // the unmodified sweep are untouched.
    const SweepPlan *effective = &plan;
    SweepPlan overridden;
    if (!opts.configOverrides.empty()) {
        for (const SweepJob &job : plan.jobs()) {
            SimConfig cfg = job.config;
            for (const std::string &o : opts.configOverrides)
                applyConfigOption(cfg, o);
            overridden.add(job.workload, std::move(cfg));
        }
        effective = &overridden;
    }

    std::vector<harness::RunResult> results =
        theEngine->run(*effective);
    if (!opts.cpiStack)
        return results;

    // Commit-slot loss breakdown, one row per run, in plan order (the
    // engine returns results in plan order at any --jobs count, so
    // this table is deterministic).
    std::printf("\nCPI stack (%% of commit slots = cycles x width):\n");
    TextTable table;
    std::vector<std::string> header = {"workload", "config"};
    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
        header.push_back(obs::toString(obs::CpiCause(i)));
    table.setHeader(header);
    for (const harness::RunResult &r : results) {
        std::vector<std::string> row = {r.workload, r.config};
        for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
            row.push_back(harness::formatPct(
                r.cpiFraction(obs::CpiCause(i))));
        }
        table.addRow(row);
    }
    std::fputs(table.toString().c_str(), stdout);
    return results;
}

int
BenchCli::finish()
{
    inform("sweep: %llu run(s) simulated, %llu served from cache, "
           "%u worker(s)",
           static_cast<unsigned long long>(theEngine->timingRuns()),
           static_cast<unsigned long long>(theEngine->cacheHits()),
           theEngine->workers());
    if (theEngine->timingRuns() > 0 && theEngine->totalWallMs() > 0) {
        double secs = theEngine->totalWallMs() / 1000.0;
        inform("sweep: %.1fs of simulation wall time, %.0f sim "
               "cycles/sec aggregate",
               secs,
               static_cast<double>(theEngine->totalSimCycles()) /
                   secs);
    }
    return reportFailures(*theRunner) ? 1 : 0;
}

} // namespace sweep
} // namespace cwsim
