/**
 * @file
 * Host-side sweep-report toolchain: load sweep JSONL files (the run
 * cache / --json export format), render them as human-readable
 * markdown or HTML reports reproducing the paper's fig2/fig5/fig6
 * tables with per-policy CPI-stack loss breakdowns, and diff two
 * JSONL files field-by-field to flag any simulated-stat drift.
 *
 * The diff deliberately ignores host-side profiling fields (wall_ms,
 * sim_cycles_per_sec, cache_hit, diagnostic): two runs of the same
 * simulator build must compare clean on any machine at any --jobs
 * count, which is what the CI stats-diff job asserts against a
 * committed golden file.
 */

#ifndef CWSIM_SWEEP_REPORT_HH
#define CWSIM_SWEEP_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "harness/harness.hh"
#include "mdp/dep_profile.hh"

namespace cwsim
{
namespace sweep
{

/** One JSONL line, parsed: the run plus its record envelope. */
struct ReportRecord
{
    harness::RunResult run;
    uint64_t scale = 0;
    std::string fp; ///< Fingerprint, 16 hex digits ("" if built in memory).
};

/**
 * Load every parseable record of a sweep JSONL file, in file order.
 * Unparseable lines, records of older schemas included, are skipped
 * and counted into @p rejected (when non-null). Returns false with
 * @p err set when the file cannot be read, or when it holds records
 * of an older schema and none of the current one; @p err then names
 * the versions.
 */
bool loadRunRecords(const std::string &path,
                    std::vector<ReportRecord> &out, std::string *err,
                    size_t *rejected = nullptr);

enum class ReportFormat { Markdown, Html };

/**
 * Render @p records as a self-contained report: an IPC matrix over
 * every (workload, config) present, the paper's Figure 2 / 5 / 6
 * comparison tables when the relevant configs are present, per-config
 * CPI-stack loss breakdowns, hot dependence edges (records carrying
 * a profile summary), and a failed-run table.
 *
 * @param top Per-table row cap for the unbounded tables (hot edges,
 *        per-PC aggregations); a "rows dropped" footer reports what
 *        the cap cut. 0 means unlimited. The fixed-shape paper tables
 *        (one row per workload) are never capped.
 */
std::string renderReport(const std::vector<ReportRecord> &records,
                         ReportFormat format, size_t top = 20);

/**
 * Render a validated .depprof.jsonl profile (see mdp::DepProfileFile)
 * as a standalone report: per-run summary, the hottest dependence
 * edges with their distance histograms, the most-involved load and
 * store PCs, and the MDPT occupancy/confidence trajectory.
 *
 * @param top Row cap per table, "rows dropped" footer as above.
 */
std::string renderDepProfile(const mdp::DepProfileFile &profile,
                             ReportFormat format, size_t top = 20);

/** One drifting field of one (workload, config, scale) run. */
struct DriftEntry
{
    /** "workload config (scale N)", plus " [fp F]" when it collides. */
    std::string key;
    std::string field;
    std::string baseline;
    std::string current;
};

struct DiffResult
{
    size_t compared = 0;     ///< Runs present in both files.
    size_t baselineOnly = 0; ///< Runs missing from the current file.
    size_t currentOnly = 0;  ///< Runs missing from the baseline file.
    std::vector<DriftEntry> drift;
    /** Why the inputs could not be compared at all ("" when they were). */
    std::string error;

    /**
     * Comparable inputs, no drifting fields and the same run
     * population on both sides.
     */
    bool
    clean() const
    {
        return error.empty() && drift.empty() && baselineOnly == 0 &&
               currentOnly == 0;
    }
};

/**
 * Compare two record sets keyed by (workload, config, scale),
 * field-by-field over every simulated stat (simulatedFields():
 * counters, ok/error, fail_kind, the CPI stack). Host fields are
 * ignored. A key that names several runs in either file (the config
 * name omits e.g. the AS latency and the recovery model) is told
 * apart by fp on both sides; when a record of such a key has no fp,
 * the diff fails with @c error set. Within one file, a later record
 * for the same run supersedes an earlier one (the run-cache "later
 * records win" rule).
 */
DiffResult diffRunRecords(const std::vector<ReportRecord> &baseline,
                          const std::vector<ReportRecord> &current);

/** Human-readable drift summary, one line per drifting field. */
std::string formatDiff(const DiffResult &diff);

/**
 * Render @p summary as the FAILED RUNS table (with per-failure
 * diagnostic tails) to stdout; no-op when empty. Rows marked
 * injectedHostFault are tagged "[injected]" and excluded from the
 * return value. This is the rendering half of
 * harness::collectFailures(): the harness stays a pure library and
 * every table lives on the reporting side.
 * @return summary.unexpected(), so bench mains can exit non-zero.
 */
size_t reportFailures(const harness::FailureSummary &summary);

/** Convenience overload: collect from @p runner, then render. */
size_t reportFailures(const harness::Runner &runner);

/** cwsim-report's command line. */
struct ReportArgs
{
    std::string format = "md"; ///< "md" or "html", checked by the tool.
    std::string outPath;
    uint64_t top = 20;
    bool diff = false, status = false;
    std::string depprofPath, connectPath;
    std::vector<std::string> inputs; ///< The JSONL file operands.
};

/** cwsim-report's flags, bound to @p args. */
CliSpec reportCli(ReportArgs &args);

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_REPORT_HH
