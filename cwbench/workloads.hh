/**
 * @file
 * The benchmark's three workloads and the pieces they share.
 *
 * Every workload is a closed loop: a round submits its whole job set
 * (2 workers, or 2 daemon slots behind one client connection), waits
 * for the last result, checks every result against the expected
 * stats, and only then starts the next round. The seed permutes the
 * job or submission order of each round and nothing else.
 */

#ifndef CWBENCH_WORKLOADS_HH
#define CWBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "sim/config.hh"
#include "util.hh"

namespace cwbench
{

/** Worker threads, and daemon slots, every workload uses. */
constexpr unsigned bench_workers = 2;

/**
 * Rounds a run measures at least, whatever --seconds says; a traced run
 * measures at least this many of each kind.
 */
constexpr size_t min_rounds = 3;
constexpr size_t min_traced_rounds = 2;

/** What one workload run measured. */
struct Outcome
{
    /**
     * Set-up seconds, one entry per round (in-process: the mean of that
     * round's set-ups); the median is reported.
     */
    std::vector<double> setupS;
    /** Untraced rounds: wall time first submit -> last result. */
    std::vector<double> makespanS;
    /** Untraced rounds: CPU seconds of this process and children. */
    std::vector<double> cpuS;
    /**
     * Untraced rounds: fresh runs' commits per host ms inside their
     * timing calls (the median over rounds is reported).
     */
    std::vector<double> simKips;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Per-layer metrics (traced run only). */
    MetricList layers;
};

/** Host-side counters read from one traced Processor run. */
struct RunCounters
{
    double runNs = 0;
    uint64_t fetched = 0;
    uint64_t gatedLoads = 0;
    uint64_t syncWaits = 0;
    uint64_t selHolds = 0;
    uint64_t barrierHolds = 0;
    uint64_t dcacheMisses = 0;
    uint64_t mshrMerges = 0;
    double windowOccupancy = 0;
    /** Size of the exported stats JSON (keeps the export observable). */
    size_t exportBytes = 0;
};

/**
 * Runner::run with a span around each public call it makes (Processor
 * construction, Processor::run, the oracle-equivalence check) plus a
 * timed StatGroup::jsonString export, and the counters the per-layer
 * metrics need. Simulated results equal Runner::run's.
 */
cwsim::harness::RunResult tracedRun(cwsim::harness::Runner &runner,
                                    const std::string &workload,
                                    const cwsim::SimConfig &cfg,
                                    int64_t runId, RunCounters &counters);

/**
 * Per-layer metrics over traced Processor runs: construction, timing
 * loop, per-config cost, check and export, and the simulated-machine
 * ratios. @p workers and @p makespanS normalize the run-time share.
 */
void addProcessorLayers(MetricList &out,
                        const std::vector<cwsim::SimConfig> &configs,
                        const std::vector<cwsim::harness::RunResult> &runs,
                        const std::vector<RunCounters> &counters,
                        double rounds, double makespanS, int64_t t0,
                        int64_t t1);

/**
 * Re-run every config of the fig2 golden at its scale and compare the
 * simulated fields with diffRunRecords. False with @p err on drift.
 */
bool goldenSelfCheck(const std::string &path, std::string &err);

Outcome runFig2Sweep(const Options &opts, Expected &expected);
Outcome runPolicyMatrix(const Options &opts, Expected &expected);
Outcome runDaemonChurn(const Options &opts, Expected &expected);

} // namespace cwbench

#endif // CWBENCH_WORKLOADS_HH
