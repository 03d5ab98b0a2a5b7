/**
 * @file
 * The shared command line of every bench binary. All figure/table
 * reproductions accept the same flags:
 *
 *   --jobs N        worker threads (default: CWSIM_JOBS env, else all
 *                   hardware threads)
 *   --scale N       dynamic-instruction target per workload (default:
 *                   the bench's own default, usually CWSIM_SCALE env
 *                   or 80000; minimum 1000)
 *   --filter SUB    only workloads whose full or short name contains
 *                   SUB (e.g. --filter compress, --filter 14)
 *   --json PATH     append one JSONL record per (workload, config)
 *                   run to PATH — machine-readable trajectory output
 *   --no-cache      ignore and don't write the on-disk run cache
 *   --cache-dir D   run-cache directory (default: CWSIM_CACHE_DIR
 *                   env, else .cwsim-cache) — point every bench and
 *                   the cwsimd daemon here to share one run corpus
 *   --trace=FLAGS   enable trace flags ("MDP,Recovery" or "all"; see
 *                   src/obs/trace.hh). Simulation results are
 *                   unaffected; output goes to stderr by default
 *   --trace-file P  write trace lines to P instead of stderr
 *   --pipeview P    write an O3PipeView/Konata pipeline trace to P
 *                   (use --jobs 1 for a single coherent timeline)
 *   --interval N    sample interval stats every N cycles (JSONL)
 *   --interval-file P  interval-stats path (default
 *                   cwsim-intervals.jsonl)
 *   --depprof       collect per-static-PC dependence profiles (see
 *                   src/obs/depprof.hh); simulation results are
 *                   unaffected, the profile goes to
 *                   cwsim.depprof.jsonl
 *   --depprof-file P  dependence-profile path (implies --depprof)
 *   --cpi-stack     print a per-(workload, config) CPI-stack table
 *                   (commit-slot loss breakdown) after the sweep
 *   --isolate       run each simulation in a sandboxed worker process:
 *                   crashes, hangs, and OOMs are contained, classified
 *                   (FAILED RUNS kind column), and retried instead of
 *                   killing the bench (see src/sweep/isolate.hh)
 *   --timeout S     wall-clock deadline per isolated run, seconds
 *                   (fractional OK; 0 = none)
 *   --mem-limit MB  RLIMIT_AS cap per isolated run, MiB (0 = none)
 *   --retries N     retry budget for host-level failures of an
 *                   isolated run (default 1; sim_errors never retry)
 *   --set K=V       apply one config override (config_parse.hh key) to
 *                   every job of the sweep; repeatable
 *   --cache-fsck    scan the run cache, print a report, exit (0 iff
 *                   nothing but valid records)
 *   --cache-compact rewrite the run cache keeping only the newest
 *                   record per fingerprint, then exit
 *   --help          usage (lists each flag's env-var equivalent)
 *
 * Every value-taking flag also accepts --flag=value. Unknown flags
 * print the usage text and fail.
 *
 * BenchCli bundles flag parsing with the Runner + SweepEngine setup
 * every bench repeats, so a bench main is: parse, build plan, run,
 * render tables, finish().
 */

#ifndef CWSIM_SWEEP_BENCH_CLI_HH
#define CWSIM_SWEEP_BENCH_CLI_HH

#include <memory>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "sweep/sweep.hh"

namespace cwsim
{
namespace sweep
{

struct BenchOptions
{
    uint64_t scale = 0;
    unsigned jobs = 0;
    std::string filter;
    bool cache = true;
    std::string cacheDir = ".cwsim-cache";
    std::string jsonPath;

    // Tracing & instrumentation (applied to the global TraceManager by
    // BenchCli; deliberately not part of SimConfig, so enabling them
    // cannot change run-cache fingerprints).
    std::string traceSpec;     ///< --trace flag list ("" = off).
    std::string traceFile;     ///< --trace-file ("" = stderr).
    std::string pipeviewPath;  ///< --pipeview ("" = off).
    uint64_t intervalCycles = 0; ///< --interval (0 = off).
    std::string intervalFile;  ///< --interval-file ("" = default).
    bool depprof = false;      ///< --depprof / CWSIM_DEPPROF.
    std::string depprofFile;   ///< --depprof-file ("" = default path).

    /**
     * --cpi-stack (or CWSIM_CPI_STACK=1): print the per-run commit-slot
     * loss breakdown after each sweep. Pure output — accounting always
     * runs, so this cannot change results or fingerprints.
     */
    bool cpiStack = false;

    // Process isolation (see sweep/isolate.hh for semantics).
    bool isolate = false;     ///< --isolate / CWSIM_ISOLATE=1.
    double timeoutSec = 0;    ///< --timeout / CWSIM_TIMEOUT (seconds).
    uint64_t memLimitMb = 0;  ///< --mem-limit / CWSIM_MEM_LIMIT (MiB).
    unsigned retries = 1;     ///< --retries / CWSIM_RETRIES.

    /**
     * --set key=value overrides, applied in order to every job's
     * config before the sweep runs. Unlike tracing these DO change
     * run-cache fingerprints — an overridden run is a different run.
     */
    std::vector<std::string> configOverrides;

    // Run-cache maintenance actions: perform and exit, no sweep.
    bool cacheFsck = false;    ///< --cache-fsck.
    bool cacheCompact = false; ///< --cache-compact.
};

/**
 * Parse the shared bench flags. @p defaultScale of 0 means
 * harness::benchScale() (the CWSIM_SCALE env or 80000). Unknown flags
 * are fatal; --help prints usage and exits 0.
 */
BenchOptions parseBenchArgs(int argc, char **argv,
                            uint64_t defaultScale = 0);

/** The subset of @p names matching @p filter (substring, "" = all). */
std::vector<std::string> filterNames(
    const std::vector<std::string> &names, const std::string &filter);

class BenchCli
{
  public:
    /**
     * Parse argv and stand up the Runner + SweepEngine. @p defaultScale
     * of 0 means harness::benchScale(); benches that historically ran
     * at benchScale()/2 pass that in and --scale still overrides.
     */
    BenchCli(int argc, char **argv, uint64_t defaultScale = 0);

    harness::Runner &runner() { return *theRunner; }
    SweepEngine &engine() { return *theEngine; }
    uint64_t scale() const { return opts.scale; }

    /** @p names filtered by --filter. */
    std::vector<std::string>
    names(const std::vector<std::string> &all) const
    {
        return filterNames(all, opts.filter);
    }

    /** True when --cpi-stack (or CWSIM_CPI_STACK=1) was given. */
    bool cpiStackEnabled() const { return opts.cpiStack; }

    /**
     * Shorthand: run @p plan on the engine, with any --set overrides
     * applied to every job's config first; under --cpi-stack also
     * print the per-run commit-slot loss table for these results.
     */
    std::vector<harness::RunResult> run(const SweepPlan &plan);

    /**
     * Report failures and a sweep summary (stderr, so stdout tables
     * stay byte-identical across --jobs values).
     * @return the bench's exit code: non-zero iff any run failed
     * unexpectedly (injected host faults are contained, not counted).
     */
    int finish();

  private:
    BenchOptions opts;
    std::unique_ptr<harness::Runner> theRunner;
    std::unique_ptr<SweepEngine> theEngine;
};

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_BENCH_CLI_HH
