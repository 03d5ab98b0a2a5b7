#include "svc/scheduler.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace cwsim
{
namespace svc
{

void
Scheduler::setMetrics(obs::MetricsRegistry *registry)
{
    if (!registry)
        return;
    queueGauge = &registry->gauge(
        "cwsimd_queue_depth", "Distinct run units awaiting dispatch.");
    runningGauge = &registry->gauge(
        "cwsimd_runs_running", "Run units currently executing.");
    waitHistogram = &registry->histogram(
        "cwsimd_queue_wait_seconds",
        "Admission-to-dispatch wait per run unit, seconds.",
        obs::Histogram::latencySeconds());
    updateGauges();
}

void
Scheduler::updateGauges() const
{
    if (queueGauge)
        queueGauge->set(static_cast<double>(queued()));
    if (runningGauge)
        runningGauge->set(static_cast<double>(running()));
}

bool
Scheduler::canAdmit(uint64_t client, size_t newUnits,
                    size_t attachRefs, std::string &reason) const
{
    if (queued() + newUnits > limits.maxQueued) {
        reason = "queue full";
        return false;
    }
    if (inflight(client) + attachRefs > limits.maxClientInflight) {
        reason = "quota exceeded";
        return false;
    }
    return true;
}

bool
Scheduler::admit(const RunRef &ref, uint64_t fp,
                 const sweep::SweepJob &job, uint64_t scale,
                 uint64_t interval)
{
    // In-flight dedupe: a queued/running unit with the same
    // fingerprint IS this run (the fingerprint covers workload, scale,
    // and the full config), so the new client just subscribes.
    // Interval subscriptions don't merge — the first admission decides
    // — because interval cycles ride in the child, not the record.
    for (auto &[key, unit] : units) {
        if (unit.fp == fp) {
            unit.refs.push_back(ref);
            return false;
        }
    }

    RunUnit unit;
    unit.key = nextKey++;
    unit.fp = fp;
    unit.job = job;
    unit.scale = scale;
    unit.intervalCycles = interval;
    unit.owner = ref.client;
    unit.refs.push_back(ref);
    unit.admittedAt = std::chrono::steady_clock::now();
    ownerQueues[unit.owner].push_back(unit.key);
    units.emplace(unit.key, std::move(unit));
    updateGauges();
    return true;
}

bool
Scheduler::hasPending(uint64_t fp) const
{
    for (const auto &[key, unit] : units) {
        if (unit.fp == fp)
            return true;
    }
    return false;
}

RunUnit *
Scheduler::next()
{
    if (ownerQueues.empty())
        return nullptr;
    // Round-robin: the first owner strictly after the cursor, wrapping.
    auto it = ownerQueues.upper_bound(rrCursor);
    if (it == ownerQueues.end())
        it = ownerQueues.begin();
    rrCursor = it->first;

    uint64_t key = it->second.front();
    it->second.pop_front();
    if (it->second.empty())
        ownerQueues.erase(it);

    RunUnit &unit = units.at(key);
    unit.state = RunUnit::State::Running;
    unit.dispatchedAt = std::chrono::steady_clock::now();
    if (waitHistogram) {
        waitHistogram->observe(
            std::chrono::duration<double>(unit.dispatchedAt -
                                          unit.admittedAt)
                .count());
    }
    updateGauges();
    return &unit;
}

RunUnit *
Scheduler::find(uint64_t key)
{
    auto it = units.find(key);
    return it == units.end() ? nullptr : &it->second;
}

std::vector<RunRef>
Scheduler::complete(uint64_t key)
{
    auto it = units.find(key);
    if (it == units.end())
        return {};
    std::vector<RunRef> refs = std::move(it->second.refs);
    units.erase(it);
    updateGauges();
    return refs;
}

void
Scheduler::dropClient(uint64_t client)
{
    for (auto &[key, unit] : units) {
        unit.refs.erase(
            std::remove_if(unit.refs.begin(), unit.refs.end(),
                           [&](const RunRef &r) {
                               return r.client == client;
                           }),
            unit.refs.end());
        if (unit.owner == client) {
            // Orphan: keep it admitted under the shared owner 0 so
            // round-robin still reaches it and the result lands in the
            // cache for whoever asks next.
            auto oq = ownerQueues.find(client);
            if (oq != ownerQueues.end()) {
                auto pos = std::find(oq->second.begin(),
                                     oq->second.end(), unit.key);
                if (pos != oq->second.end()) {
                    oq->second.erase(pos);
                    ownerQueues[0].push_back(unit.key);
                }
            }
            unit.owner = 0;
        }
    }
    ownerQueues.erase(client);
}

size_t
Scheduler::queued() const
{
    size_t n = 0;
    for (const auto &[key, unit] : units) {
        if (unit.state == RunUnit::State::Queued)
            ++n;
    }
    return n;
}

size_t
Scheduler::running() const
{
    size_t n = 0;
    for (const auto &[key, unit] : units) {
        if (unit.state == RunUnit::State::Running)
            ++n;
    }
    return n;
}

size_t
Scheduler::inflight(uint64_t client) const
{
    size_t n = 0;
    for (const auto &[key, unit] : units) {
        for (const RunRef &r : unit.refs) {
            if (r.client == client)
                ++n;
        }
    }
    return n;
}

} // namespace svc
} // namespace cwsim
