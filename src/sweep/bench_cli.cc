#include "sweep/bench_cli.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>

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

namespace cwsim
{
namespace sweep
{

namespace
{

void
printUsage(const char *prog, std::FILE *out)
{
    // One row per flag: description, then the environment-variable
    // equivalent ("-" when the flag has none). Keep this table in sync
    // with the parser below and the header comment.
    struct FlagHelp
    {
        const char *flag;
        const char *desc;
        const char *env;
    };
    static const FlagHelp flags[] = {
        {"--jobs N", "worker threads (default: all hardware threads)",
         "CWSIM_JOBS"},
        {"--scale N",
         "dynamic-instruction target per workload (min 1000)",
         "CWSIM_SCALE"},
        {"--filter SUB", "only workloads whose name contains SUB",
         "-"},
        {"--json PATH", "append one JSONL record per run to PATH",
         "-"},
        {"--no-cache", "bypass the on-disk run cache", "-"},
        {"--cache-dir D", "run-cache directory (default .cwsim-cache)",
         "CWSIM_CACHE_DIR"},
        {"--trace=FLAGS",
         "enable trace flags (e.g. MDP,Recovery or all)",
         "CWSIM_TRACE"},
        {"--trace-file P", "trace output path (default stderr)",
         "CWSIM_TRACE_FILE"},
        {"--pipeview P",
         "O3PipeView pipeline-trace path (use --jobs 1)",
         "CWSIM_PIPEVIEW"},
        {"--interval N", "sample interval stats every N cycles",
         "CWSIM_INTERVAL"},
        {"--interval-file P", "interval-stats JSONL path",
         "CWSIM_INTERVAL_FILE"},
        {"--depprof",
         "collect per-static-PC dependence profiles (JSONL)",
         "CWSIM_DEPPROF"},
        {"--depprof-file P",
         "dependence-profile path (implies --depprof)",
         "CWSIM_DEPPROF"},
        {"--cpi-stack",
         "print the per-run CPI stack (commit-slot losses)",
         "CWSIM_CPI_STACK"},
        {"--isolate",
         "sandbox runs in worker processes (contain crashes)",
         "CWSIM_ISOLATE"},
        {"--timeout S",
         "wall-clock deadline per isolated run, seconds (0 = none)",
         "CWSIM_TIMEOUT"},
        {"--mem-limit MB",
         "address-space cap per isolated worker, MiB (0 = none)",
         "CWSIM_MEM_LIMIT"},
        {"--retries N",
         "retries for host-level failures of an isolated run",
         "CWSIM_RETRIES"},
        {"--set K=V",
         "apply a config override to every job (repeatable)", "-"},
        {"--cache-fsck", "scan the run cache, report, and exit", "-"},
        {"--cache-compact",
         "drop superseded run-cache records and exit", "-"},
        {"--help", "this message", "-"},
    };
    std::fprintf(out, "usage: %s [options]\n", prog);
    std::fprintf(out, "  %-18s %-53s %s\n", "flag", "description",
                 "env equivalent");
    for (const FlagHelp &f : flags)
        std::fprintf(out, "  %-18s %-53s %s\n", f.flag, f.desc, f.env);
    std::fprintf(out, "Value-taking flags also accept --flag=value.\n");
}

/** The most a 32-bit count (--jobs, --retries) can hold. */
constexpr uint64_t max_count32 = std::numeric_limits<unsigned>::max();

uint64_t
parseCount(const char *flag, const std::string &value, uint64_t min,
           uint64_t max = std::numeric_limits<uint64_t>::max())
{
    uint64_t v = 0;
    fatal_if(!parseUnsigned(value, v),
             "%s: not an unsigned integer: '%s'", flag, value.c_str());
    fatal_if(v < min, "%s: must be >= %llu (got %llu)", flag,
             static_cast<unsigned long long>(min),
             static_cast<unsigned long long>(v));
    fatal_if(v > max, "%s: must be <= %llu (got %llu)", flag,
             static_cast<unsigned long long>(max),
             static_cast<unsigned long long>(v));
    return v;
}

double
secondsArg(const char *flag, const std::string &value)
{
    double v = 0;
    fatal_if(!parseSeconds(value, v),
             "%s: not a non-negative number of seconds: '%s'", flag,
             value.c_str());
    return v;
}

/** CWSIM_TIMEOUT-style fractional-seconds env knob. */
double
envSeconds(const char *name, double fallback)
{
    const char *text = std::getenv(name);
    if (!text || !*text)
        return fallback;
    double v = fallback;
    if (!parseSeconds(text, v)) {
        warn("%s: not a non-negative number: '%s' (using %g)", name,
             text, fallback);
    }
    return v;
}

} // anonymous namespace

BenchOptions
parseBenchArgs(int argc, char **argv, uint64_t defaultScale)
{
    BenchOptions opts;
    opts.scale = defaultScale ? defaultScale : harness::benchScale();
    opts.cpiStack = envUint64("CWSIM_CPI_STACK", 0, 0) != 0;
    opts.isolate = envUint64("CWSIM_ISOLATE", 0, 0) != 0;
    opts.timeoutSec = envSeconds("CWSIM_TIMEOUT", 0);
    opts.memLimitMb =
        envUint64("CWSIM_MEM_LIMIT", 0, 0, max_mem_limit_mb);
    opts.retries = static_cast<unsigned>(
        envUint64("CWSIM_RETRIES", 0, 1, max_count32));
    // A shared corpus (ROADMAP item 1): point every bench and the
    // cwsimd daemon at one cache directory without threading a flag
    // through each invocation. --cache-dir still overrides.
    if (const char *dir = std::getenv("CWSIM_CACHE_DIR");
        dir && *dir) {
        opts.cacheDir = dir;
    }

    // Every value-taking flag accepts both "--flag value" and
    // "--flag=value" (the latter is how --trace=MDP,Recovery reads
    // naturally).
    bool has_inline = false;
    std::string inline_value;
    auto value = [&](int &i, const char *flag) -> std::string {
        if (has_inline)
            return inline_value;
        fatal_if(i + 1 >= argc, "%s requires a value", flag);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        size_t eq = arg.find('=');
        has_inline = startsWith(arg, "--") && eq != std::string::npos;
        if (has_inline) {
            inline_value = arg.substr(eq + 1);
            arg.erase(eq);
        }
        if (arg == "--jobs" || arg == "-j") {
            opts.jobs = static_cast<unsigned>(parseCount(
                "--jobs", value(i, "--jobs"), 1, max_count32));
        } else if (arg == "--scale") {
            opts.scale =
                parseCount("--scale", value(i, "--scale"), 1000);
        } else if (arg == "--filter") {
            opts.filter = value(i, "--filter");
        } else if (arg == "--json") {
            opts.jsonPath = value(i, "--json");
        } else if (arg == "--no-cache") {
            opts.cache = false;
        } else if (arg == "--cache-dir") {
            opts.cacheDir = value(i, "--cache-dir");
        } else if (arg == "--trace") {
            opts.traceSpec = value(i, "--trace");
        } else if (arg == "--trace-file") {
            opts.traceFile = value(i, "--trace-file");
        } else if (arg == "--pipeview") {
            opts.pipeviewPath = value(i, "--pipeview");
        } else if (arg == "--interval") {
            opts.intervalCycles =
                parseCount("--interval", value(i, "--interval"), 1);
        } else if (arg == "--interval-file") {
            opts.intervalFile = value(i, "--interval-file");
        } else if (arg == "--depprof") {
            opts.depprof = true;
        } else if (arg == "--depprof-file") {
            opts.depprofFile = value(i, "--depprof-file");
            opts.depprof = true;
        } else if (arg == "--cpi-stack") {
            opts.cpiStack = true;
        } else if (arg == "--isolate") {
            opts.isolate = true;
        } else if (arg == "--timeout") {
            opts.timeoutSec =
                secondsArg("--timeout", value(i, "--timeout"));
        } else if (arg == "--mem-limit") {
            opts.memLimitMb = parseCount(
                "--mem-limit", value(i, "--mem-limit"), 0,
                max_mem_limit_mb);
        } else if (arg == "--retries") {
            opts.retries = static_cast<unsigned>(parseCount(
                "--retries", value(i, "--retries"), 0, max_count32));
        } else if (arg == "--set") {
            // Validation happens when the override is applied (it
            // needs a config to apply to); a bad key is still fatal
            // before any simulation runs.
            opts.configOverrides.push_back(value(i, "--set"));
        } else if (arg == "--cache-fsck") {
            opts.cacheFsck = true;
        } else if (arg == "--cache-compact") {
            opts.cacheCompact = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0], stdout);
            std::exit(0);
        } else {
            // Mistyped flags are the most common bench-CLI mistake;
            // show the full usage so the fix is one screen away.
            printUsage(argv[0], stderr);
            fatal("unknown option '%s'", argv[i]);
        }
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
