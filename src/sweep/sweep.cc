#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "base/logging.hh"
#include "base/str.hh"
#include "sweep/isolate.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace sweep
{

unsigned
resolveJobs(unsigned requested)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // Clamp to the hardware: the workers are CPU-bound, so extra
    // threads beyond the core count only time-slice — each run's
    // wall time (and the summed-wall aggregate rate) inflates by
    // the oversubscription factor while true throughput gains
    // nothing. Results are worker-count independent either way.
    if (requested > 0)
        return std::min(requested, hw);
    return std::min(
        static_cast<unsigned>(envUint64(
            "CWSIM_JOBS", 1, hw, std::numeric_limits<unsigned>::max())),
        hw);
}

void
parallelFor(size_t n, unsigned jobs,
            const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    unsigned workers = std::min<size_t>(resolveJobs(jobs), n);
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::atomic<bool> canceled{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto body = [&] {
        while (!canceled.load(std::memory_order_relaxed)) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                // Fatal (non-run) error: stop claiming indices so the
                // pool drains promptly instead of finishing a queue
                // whose results will be discarded by the rethrow.
                canceled.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(body);
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

SweepEngine::SweepEngine(harness::Runner &runner, SweepOptions opts)
    : runner(runner), opts(std::move(opts)),
      workerCount(resolveJobs(this->opts.jobs))
{
}

std::vector<harness::RunResult>
SweepEngine::run(const SweepPlan &plan)
{
    const std::vector<SweepJob> &jobs = plan.jobs();
    std::vector<harness::RunResult> results(jobs.size());

    std::vector<uint64_t> fps(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        fps[i] = fingerprintRun(jobs[i].workload, runner.scale(),
                                jobs[i].config);
    }

    // Phase 1: serve what the on-disk cache already has. A cached
    // failure is re-recorded with the runner so the FAILED RUNS table
    // (and the bench's exit code) is identical to a cold sweep.
    std::vector<size_t> pending;
    std::unique_ptr<RunCache> cache;
    if (opts.useCache)
        cache = std::make_unique<RunCache>(opts.cacheDir);
    for (size_t i = 0; i < jobs.size(); ++i) {
        harness::RunResult cached;
        if (cache && cache->lookup(fps[i], cached)) {
            // The cache stores results under exact fingerprints, but
            // names travel with the record; trust the spec's names so
            // tables render identically however the result arrived.
            cached.workload = jobs[i].workload;
            cached.config = jobs[i].config.name();
            cached.cacheHit = true;
            results[i] = cached;
            ++hits;
            if (!cached.ok)
                runner.recordFailure(cached);
            continue;
        }
        pending.push_back(i);
    }

    // Phase 2: simulate the rest. With isolation on, the runs go to
    // sandboxed worker processes (one per slot) and failures come
    // back classified instead of crashing the bench; the executor does
    // not touch the runner's failure list itself, so record them here —
    // a contained crash then reports exactly like a cached or in-
    // process failure. Otherwise, run on the thread pool: Runner::run
    // is thread-safe and fail-soft, so a worker never throws; each job
    // writes only its own result slot. A progress heartbeat (every
    // CWSIM_PROGRESS seconds, default 10; 0 disables) keeps long
    // sweeps from looking hung; the CAS on lastBeatMs elects exactly
    // one reporting worker per interval.
    if (opts.isolate) {
        IsolateOptions iso;
        iso.slots = workerCount;
        iso.timeoutSec = opts.timeoutSec;
        iso.memLimitMb = opts.memLimitMb;
        iso.retries = opts.retries;
        runIsolated(runner, jobs, pending, fps, iso, results);
        for (size_t i : pending) {
            if (!results[i].ok)
                runner.recordFailure(results[i]);
        }
    } else {
        const uint64_t beat_s = envUint64("CWSIM_PROGRESS", 0, 10);
        auto sweep_start = std::chrono::steady_clock::now();
        std::atomic<size_t> done{0};
        std::atomic<uint64_t> lastBeatMs{0};
        parallelFor(pending.size(), workerCount, [&](size_t p) {
            size_t i = pending[p];
            results[i] = runner.run(jobs[i].workload, jobs[i].config);
            size_t finished = done.fetch_add(1) + 1;
            if (beat_s == 0 || finished == pending.size())
                return;
            uint64_t now_ms = static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - sweep_start)
                    .count());
            uint64_t last = lastBeatMs.load();
            if (now_ms - last >= beat_s * 1000 &&
                lastBeatMs.compare_exchange_strong(last, now_ms)) {
                inform("sweep: %zu/%zu runs done (%.1fs elapsed)",
                       finished, pending.size(),
                       static_cast<double>(now_ms) / 1000.0);
            }
        });
    }
    executed += pending.size();
    for (size_t i : pending) {
        wallMsSum += results[i].wallMs;
        simCycleSum += results[i].cycles;
    }

    // Phase 3: persist the new results — in spec order, post-join, so
    // the cache file's growth is deterministic too.
    if (cache) {
        for (size_t i : pending)
            cache->append(fps[i], runner.scale(), results[i]);
    }

    // Phase 4: export the whole sweep (cache hits included) as JSONL.
    if (!opts.jsonPath.empty()) {
        std::ofstream out(opts.jsonPath, std::ios::app);
        if (!out) {
            warn("sweep: cannot append results to %s",
                 opts.jsonPath.c_str());
        } else {
            for (size_t i = 0; i < jobs.size(); ++i) {
                out << runRecordLine(results[i], fps[i],
                                     runner.scale())
                    << '\n';
            }
        }
    }

    return results;
}

} // namespace sweep
} // namespace cwsim
