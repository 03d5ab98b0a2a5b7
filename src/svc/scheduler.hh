/**
 * @file
 * The daemon's multi-tenant run scheduler: pure bookkeeping, no
 * sockets, no processes — which is what makes admission control,
 * dedupe, quotas, fairness, and orphaning unit-testable without a
 * server.
 *
 * The scheduler tracks RunUnits — distinct (fingerprint) runs that
 * still need executing — and RunRefs — (client, sweep, seq)
 * subscriptions to a unit's eventual result. Two clients submitting
 * the same run share ONE unit (in-flight dedupe: the run cache
 * dedupes completed runs, this dedupes running ones), and a client
 * disconnecting merely drops its refs: a unit whose owner leaves is
 * orphaned, not cancelled, so its result still lands in the shared
 * cache and the next client asking for it hits.
 *
 * Multi-tenant rules:
 *   - bounded queue: at most maxQueued distinct units awaiting
 *     execution; a submit that would exceed it is rejected whole
 *   - per-client quota: at most maxClientInflight unfinished refs per
 *     client, so one greedy client cannot monopolize admission
 *   - fair dispatch: next() round-robins across clients with queued
 *     units, so interleaved submits interleave execution
 */

#ifndef CWSIM_SVC_SCHEDULER_HH
#define CWSIM_SVC_SCHEDULER_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sweep/sweep.hh"

namespace cwsim
{

namespace obs
{
class Gauge;
class Histogram;
class MetricsRegistry;
} // namespace obs

namespace svc
{

/** One subscription to a unit's result. */
struct RunRef
{
    uint64_t client = 0;
    std::string sweepId;
    uint64_t seq = 0;   ///< Position within the client's sweep.
    uint64_t total = 0; ///< The sweep's run count.
};

/** One distinct run awaiting (or undergoing) execution. */
struct RunUnit
{
    enum class State { Queued, Running };

    uint64_t key = 0; ///< Scheduler-assigned id (the pool token).
    uint64_t fp = 0;
    sweep::SweepJob job;
    uint64_t scale = 0;
    uint64_t intervalCycles = 0;
    State state = State::Queued;
    /** Admitting client; 0 once orphaned by a disconnect. */
    uint64_t owner = 0;
    std::vector<RunRef> refs;
    /** When admit() created the unit (queue-wait + latency spans). */
    std::chrono::steady_clock::time_point admittedAt;
    /** When next() dispatched it (valid once Running). */
    std::chrono::steady_clock::time_point dispatchedAt;
};

struct SchedulerLimits
{
    /** Max distinct units queued (not yet running). */
    size_t maxQueued = 1024;
    /** Max unfinished refs (queued + running) per client. */
    size_t maxClientInflight = 512;
};

class Scheduler
{
  public:
    explicit Scheduler(SchedulerLimits limits = {}) : limits(limits) {}

    /**
     * Pre-admission check for an all-or-nothing submit: can @p client
     * add @p newUnits fresh units and @p attachRefs total refs? On
     * failure, @p reason is "queue full" or "quota exceeded".
     */
    bool canAdmit(uint64_t client, size_t newUnits, size_t attachRefs,
                  std::string &reason) const;

    /**
     * Subscribe @p ref's client to the run described by (@p fp,
     * @p job, @p scale, @p interval): attaches to an existing
     * queued/running unit when one matches (in-flight dedupe), else
     * creates a new queued unit owned by the client. Returns true when
     * a new unit was created.
     */
    bool admit(const RunRef &ref, uint64_t fp,
               const sweep::SweepJob &job, uint64_t scale,
               uint64_t interval);

    /** Is a queued/running unit already carrying this fingerprint? */
    bool hasPending(uint64_t fp) const;

    /**
     * Dispatch: the next queued unit, round-robin across owners (the
     * orphan pool counts as one owner), marked Running. nullptr when
     * nothing is queued. The returned pointer stays valid until the
     * unit completes.
     */
    RunUnit *next();

    /** The unit for a pool token, or nullptr. */
    RunUnit *find(uint64_t key);

    /**
     * Complete a Running unit: returns its surviving refs (every
     * subscriber to notify) and erases it.
     */
    std::vector<RunRef> complete(uint64_t key);

    /**
     * Client went away: drop its refs everywhere and orphan the units
     * it owns. Queued orphans still execute — their results belong to
     * the shared cache, and killing them would waste the admission.
     */
    void dropClient(uint64_t client);

    size_t queued() const;
    size_t running() const;
    /** Unfinished refs held by @p client. */
    size_t inflight(uint64_t client) const;

    /**
     * Register queue telemetry (depth/running gauges, queue-wait
     * histogram) in @p registry. Optional — a scheduler without a
     * registry records nothing; @p registry must outlive the
     * scheduler.
     */
    void setMetrics(obs::MetricsRegistry *registry);

  private:
    void updateGauges() const;

    SchedulerLimits limits;
    uint64_t nextKey = 1;
    /** All unfinished units, by key. */
    std::map<uint64_t, RunUnit> units;
    /** Queued unit keys per owner, FIFO. */
    std::map<uint64_t, std::deque<uint64_t>> ownerQueues;
    /** Round-robin position: the owner AFTER the last-dispatched one. */
    uint64_t rrCursor = 0;

    // Optional telemetry handles (null without setMetrics).
    obs::Gauge *queueGauge = nullptr;
    obs::Gauge *runningGauge = nullptr;
    obs::Histogram *waitHistogram = nullptr;
};

} // namespace svc
} // namespace cwsim

#endif // CWSIM_SVC_SCHEDULER_HH
