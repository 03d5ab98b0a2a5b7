/**
 * @file
 * The shared command line of every bench binary. benchCli() declares
 * each flag once, with its help text and environment variable; run a
 * bench with --help for the list.
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

#include "base/cli.hh"
#include "harness/harness.hh"
#include "sweep/sweep.hh"

namespace cwsim
{
namespace sweep
{

/** One field per benchCli() row; the row says what the flag does. */
struct BenchOptions
{
    uint64_t scale = 0;
    unsigned jobs = 0;
    std::string filter;
    bool cache = true;
    std::string cacheDir = ".cwsim-cache";
    std::string jsonPath;

    // Tracing and instrumentation land on the global TraceManager and
    // DepProfManager, never in SimConfig, so they cannot change
    // run-cache fingerprints; neither can --cpi-stack, which only
    // prints what accounting always collects.
    std::string traceSpec;
    std::string traceFile;
    std::string pipeviewPath;
    uint64_t intervalCycles = 0;
    std::string intervalFile;
    bool depprof = false;
    std::string depprofFile;
    bool cpiStack = false;

    // Process isolation (see sweep/isolate.hh for semantics).
    bool isolate = false;
    double timeoutSec = 0;
    uint64_t memLimitMb = 0;
    unsigned retries = 1;

    /** --set overrides, applied in order to every job's config. Unlike
     * tracing these DO change fingerprints: a different run. */
    std::vector<std::string> configOverrides;

    bool cacheFsck = false;
    bool cacheCompact = false;
};

/** The bench flags, bound to @p opts. */
CliSpec benchCli(BenchOptions &opts);

/**
 * Parse the shared bench flags through benchCli(). @p defaultScale of
 * 0 means harness::benchScale() (the CWSIM_SCALE env or 80000). A
 * malformed command line is fatal; --help prints usage and exits 0.
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
