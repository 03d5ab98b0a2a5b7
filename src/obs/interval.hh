/**
 * @file
 * The interval stats sampler: snapshots the deltas of a few headline
 * counters every N cycles into a flat-JSON-per-line (JSONL) time
 * series, turning end-of-run aggregates into time-resolved curves
 * (IPC over time, miss-speculation bursts, window-occupancy drift).
 *
 * Each line is a flat JSON object parseable by parseFlatJson:
 *
 *   {"label":"099.go NAS/NAV","cycle":2000,"interval":1000,
 *    "commits":2514,"ipc":2.514,"violations":3,"replays":0,
 *    "false_dep_loads":11,"window_occupancy":97.2}
 *
 * All counter fields are deltas over the interval; window_occupancy is
 * the mean occupancy within the interval. The processor drives the
 * sampler from its tick loop; the sampler computes deltas from the
 * monotonic totals it is handed, so the per-cycle cost in the pipeline
 * is one null check plus one compare.
 */

#ifndef CWSIM_OBS_INTERVAL_HH
#define CWSIM_OBS_INTERVAL_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "base/types.hh"

namespace cwsim
{
namespace obs
{

/** Monotonic counter snapshot handed to the sampler each interval. */
struct IntervalCounters
{
    uint64_t commits = 0;
    uint64_t violations = 0;
    uint64_t replays = 0;
    uint64_t falseDepLoads = 0;
    /** Running sum/count of per-cycle window-occupancy samples. */
    double occupancySum = 0;
    uint64_t occupancyCount = 0;
};

class IntervalSampler
{
  public:
    /**
     * Append samples for one run to @p path, one line per @p period
     * cycles, tagged with @p label.
     */
    IntervalSampler(const std::string &path, uint64_t period,
                    std::string label);
    ~IntervalSampler();

    bool valid() const { return out != nullptr; }
    uint64_t period() const { return periodCycles; }

    /** The tick-loop gate: true when @p cycle closes an interval. */
    bool due(Tick cycle) const { return cycle >= nextSampleAt; }

    /** Emit the line for the interval ending at @p cycle. */
    void sample(Tick cycle, const IntervalCounters &now);

    /**
     * Flush the trailing partial interval at end of run. When the run
     * length is not a multiple of the period the tail cycles since the
     * last boundary would otherwise be silently dropped from the time
     * series. No-op when the final cycle already closed an interval
     * (so calling it after a boundary sample never duplicates a line).
     */
    void finalize(Tick cycle, const IntervalCounters &now);

    uint64_t samplesWritten() const { return samples; }

  private:
    std::FILE *out;
    uint64_t periodCycles;
    Tick nextSampleAt;
    std::string label;
    IntervalCounters last;
    Tick lastCycle = 0;
    uint64_t samples = 0;
};

} // namespace obs
} // namespace cwsim

#endif // CWSIM_OBS_INTERVAL_HH
