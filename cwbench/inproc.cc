/**
 * @file
 * The in-process workloads: fig2-sweep (the paper's Figure 2 matrix
 * through sweep::SweepEngine) and policy-matrix (the Table 4 kernels
 * under every dependence policy, both recovery models and the split
 * window, with dependence profiling on), plus the traced Processor
 * run and the fig2 golden self-check.
 */

#include <sys/stat.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "base/arena.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "check/equivalence.hh"
#include "cpu/processor.hh"
#include "mdp/oracle.hh"
#include "obs/depprof.hh"
#include "obs/trace.hh"
#include "split/split_window.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"
#include "sweep/sweep.hh"
#include "tracer.hh"
#include "workloads.hh"
#include "workloads/workload.hh"

namespace cwbench
{

using cwsim::harness::RunResult;
using cwsim::harness::Runner;
using namespace cwsim;

RunResult
tracedRun(Runner &runner, const std::string &name, const SimConfig &cfg,
          int64_t runId, RunCounters &c)
{
    Span job("job", runId);
    RunResult r;
    r.workload = name;
    r.config = cfg.name();
    obs::setRunLabel(name + " " + r.config);
    double start = nowSec();
    try {
        ScopedErrorTrap trap;
        const Workload &w = runner.workload(name);
        const PrepassResult &pre = runner.prepass(name);
        std::optional<Processor> proc;
        {
            Span s("cpu.construct");
            proc.emplace(cfg, w.program, &pre.deps);
        }
        int64_t runStart = Tracer::nowNs();
        {
            Span s("cpu.run");
            proc->run();
        }
        c.runNs = static_cast<double>(Tracer::nowNs() - runStart);

        const ProcStats &s = proc->procStats();
        r.cycles = s.cycles.value();
        r.commits = s.commits.value();
        r.committedLoads = s.committedLoads.value();
        r.committedStores = s.committedStores.value();
        r.violations = s.memOrderViolations.value();
        r.replays = s.loadReplays.value();
        r.branchMispredicts = s.branchMispredicts.value();
        const obs::CpiStack &cpi = proc->cpiStack();
        r.commitWidth = cpi.width();
        for (size_t i = 0; i < obs::num_cpi_causes; ++i)
            r.cpiSlots[i] = cpi.slot(obs::CpiCause(i));
        if (const obs::DepProfile *dp = proc->depProfile()) {
            Span e("obs.depprof_summary");
            r.depProfiled = true;
            r.depLoads = dp->numLoads();
            r.depStores = dp->numStores();
            r.depEdges = dp->numEdges();
            r.depHotEdges = dp->hotEdges(8);
        }

        c.fetched = s.fetchedInsts.value();
        c.gatedLoads =
            s.falseDepLoads.value() + s.trueDepStalledLoads.value();
        c.syncWaits = s.syncWaits.value();
        c.selHolds = s.selHolds.value();
        c.barrierHolds = s.barrierHolds.value();
        c.windowOccupancy = s.windowOccupancy.mean();
        const stats::StatGroup &g = proc->statsGroup();
        if (const stats::Scalar *m = g.findScalar("proc.dcache.misses"))
            c.dcacheMisses = m->value();
        if (const stats::Scalar *m =
                g.findScalar("proc.dcache.mshr_merges"))
            c.mshrMerges = m->value();

        if (!proc->halted()) {
            r.ok = false;
            r.error = "did not halt";
        } else if (cfg.check.level > 0 && cfg.maxInsts == 0) {
            Span e("check.equiv");
            std::string diff = check::compareWithGolden(
                proc->archState(), proc->memory().fingerprint(),
                proc->totalCommits(), pre);
            if (!diff.empty()) {
                r.ok = false;
                r.error = "diverged from the functional pre-pass";
            }
        }
        r.wallMs = (nowSec() - start) * 1000.0;
        {
            Span e("harness.stats_export");
            c.exportBytes = proc->statsGroup().jsonString().size();
        }
    } catch (const SimError &e) {
        r.ok = false;
        r.failKind = harness::FailKind::SimError;
        r.error = e.summary();
        r.wallMs = (nowSec() - start) * 1000.0;
    }
    runArena().reset();
    return r;
}

namespace
{

/** Config group a per-config timing-loop cost is reported under. */
std::string
configLabel(const SimConfig &cfg)
{
    if (cfg.mdp.recovery == RecoveryModel::Selective)
        return "selective";
    std::string label = cfg.mdp.lsqModel == LsqModel::AS ? "as_" : "nas_";
    for (const char *p = toString(cfg.mdp.policy); *p; ++p)
        label += static_cast<char>(std::tolower(*p));
    return label;
}

const char *const config_labels[] = {
    "nas_no",    "nas_nav",   "nas_oracle", "nas_sel",
    "nas_store", "nas_sync",  "as_nav",     "selective",
};

} // anonymous namespace

void
addProcessorLayers(MetricList &out, const std::vector<SimConfig> &configs,
                   const std::vector<RunResult> &runs,
                   const std::vector<RunCounters> &counters,
                   double rounds, double makespanS, int64_t t0, int64_t t1)
{
    std::map<std::string, SpanTotals> totals =
        Tracer::get().totals(t0, t1);
    double runNs = 0, cycles = 0, commits = 0, loads = 0;
    double fetched = 0, gated = 0, occ = 0, misses = 0, merges = 0;
    double mispredicts = 0, violations = 0, replays = 0;
    double syncWaits = 0, selHolds = 0, barrierHolds = 0;
    std::map<std::string, std::pair<double, double>> perConfig;
    for (size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        const RunCounters &c = counters[i];
        runNs += c.runNs;
        cycles += static_cast<double>(r.cycles);
        commits += static_cast<double>(r.commits);
        loads += static_cast<double>(r.committedLoads);
        fetched += static_cast<double>(c.fetched);
        gated += static_cast<double>(c.gatedLoads);
        occ += c.windowOccupancy * static_cast<double>(r.cycles);
        misses += static_cast<double>(c.dcacheMisses);
        merges += static_cast<double>(c.mshrMerges);
        mispredicts += static_cast<double>(r.branchMispredicts);
        violations += static_cast<double>(r.violations);
        replays += static_cast<double>(r.replays);
        syncWaits += static_cast<double>(c.syncWaits);
        selHolds += static_cast<double>(c.selHolds);
        barrierHolds += static_cast<double>(c.barrierHolds);
        auto &pc = perConfig[configLabel(configs[i])];
        pc.first += c.runNs;
        pc.second += static_cast<double>(r.cycles);
    }
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double runS = runNs / 1e9;
    out.push_back({"cpu.construct_ms",
                   median(totals["cpu.construct"].durS) * 1e3, "ms"});
    out.push_back({"cpu.run_s", ratio(runS, rounds), "s"});
    out.push_back({"cpu.run_frac",
                   ratio(runS, makespanS * bench_workers), "frac"});
    out.push_back({"cpu.ns_per_cycle", ratio(runNs, cycles), "ns"});
    out.push_back({"cpu.ns_per_commit", ratio(runNs, commits), "ns"});
    for (const char *label : config_labels) {
        auto it = perConfig.find(label);
        out.push_back({std::string("cpu.ns_per_cycle.") + label,
                       it == perConfig.end()
                           ? 0.0
                           : ratio(it->second.first, it->second.second),
                       "ns"});
    }
    out.push_back({"cpu.sim_cycles", ratio(cycles, rounds), "count"});
    out.push_back({"cpu.commits", ratio(commits, rounds), "count"});
    out.push_back({"cpu.fetched_per_commit", ratio(fetched, commits),
                   "ratio"});
    out.push_back({"cpu.gated_loads_per_kload",
                   ratio(1000 * gated, loads), "1/kload"});
    out.push_back({"cpu.window_occupancy", ratio(occ, cycles),
                   "entries"});
    out.push_back({"mem.dcache_misses_per_kinst",
                   ratio(1000 * misses, commits), "1/kinst"});
    out.push_back({"mem.mshr_merges_per_kinst",
                   ratio(1000 * merges, commits), "1/kinst"});
    out.push_back({"bpred.mispredicts_per_kinst",
                   ratio(1000 * mispredicts, commits), "1/kinst"});
    out.push_back({"mdp.violations_per_kload",
                   ratio(1000 * violations, loads), "1/kload"});
    out.push_back({"mdp.replays_per_kload", ratio(1000 * replays, loads),
                   "1/kload"});
    out.push_back({"mdp.sync_waits", ratio(syncWaits, rounds), "count"});
    out.push_back({"mdp.sel_holds", ratio(selHolds, rounds), "count"});
    out.push_back({"mdp.barrier_holds", ratio(barrierHolds, rounds),
                   "count"});
    out.push_back({"check.equiv_ms",
                   median(totals["check.equiv"].durS) * 1e3, "ms"});
    out.push_back({"harness.stats_export_ms",
                   median(totals["harness.stats_export"].durS) * 1e3,
                   "ms"});
}

bool
goldenSelfCheck(const std::string &path, std::string &err)
{
    std::vector<sweep::ReportRecord> golden;
    if (!sweep::loadRunRecords(path, golden, &err))
        return false;
    if (golden.empty()) {
        err = "no records in " + path;
        return false;
    }
    uint64_t scale = golden.front().scale;
    Runner runner(scale);
    sweep::SweepPlan plan;
    for (const sweep::ReportRecord &rec : golden) {
        bool found = false;
        for (LsqModel model : {LsqModel::NAS, LsqModel::AS}) {
            for (SpecPolicy policy :
                 {SpecPolicy::No, SpecPolicy::Naive, SpecPolicy::Selective,
                  SpecPolicy::StoreBarrier, SpecPolicy::SpecSync,
                  SpecPolicy::Oracle}) {
                if (!found && configName(model, policy) == rec.run.config) {
                    plan.add(rec.run.workload,
                             withPolicy(makeW128Config(), model, policy));
                    found = true;
                }
            }
        }
        if (!found || rec.scale != scale) {
            err = "golden record " + rec.run.workload + " " +
                  rec.run.config + " is not a fig2 config";
            return false;
        }
    }
    sweep::SweepOptions so;
    so.jobs = bench_workers;
    so.useCache = false;
    sweep::SweepEngine engine(runner, so);
    std::vector<RunResult> results = engine.run(plan);
    std::vector<sweep::ReportRecord> current;
    for (const RunResult &r : results)
        current.push_back({r, scale, ""});
    sweep::DiffResult diff = sweep::diffRunRecords(golden, current);
    if (!diff.clean() || diff.compared != golden.size()) {
        err = "fig2 golden drift:\n" + sweep::formatDiff(diff);
        return false;
    }
    return true;
}

namespace
{

/**
 * After a few untimed warm-up set-ups (the first ones in a process take
 * up to twice as long), the set-up repeats before every round, at least
 * this often and for at least this long; setup_s is the median over
 * rounds of the mean set-up time. Single set-ups take 15-70 ms, short
 * enough that one host burst can triple them, so each round's sample
 * averages half a second of them, and the samples spread over the same
 * window as the rounds.
 */
constexpr size_t warmup_setups = 2;
constexpr size_t min_round_setups = 2;
constexpr double round_setup_s = 0.5;

/** The Figure 2 matrix runs at the bench binaries' default scale. */
constexpr uint64_t fig2_scale = 80'000;
/** policy-matrix: 8 kernels x 17 configs per round. */
constexpr uint64_t matrix_scale = 20'000;

/** One job of an in-process round: a Processor or a split run. */
struct InJob
{
    std::string workload;
    size_t kernel = 0; ///< Index into the set-up's kernel list.
    bool split = false;
    SimConfig cfg;
    SplitConfig scfg;
    std::string key; ///< Expected-stats key.
};

struct InResult
{
    RunResult run;
    RunCounters counters;
    double splitMs = 0;
    double splitCycles = 0;
    uint64_t splitViolations = 0;
};

/** Everything the set-up builds: workloads, pre-passes, traces. */
struct Prepared
{
    std::unique_ptr<Runner> runner;
    std::vector<std::vector<TraceEntry>> traces;
    double totalS = 0;
    double buildS = 0;
    double prepassS = 0;
    double prepassInsts = 0;
    double traceBytes = 0;
};

/**
 * Pre-warm every kernel on the benchmark's workers, as the isolated
 * sweep pre-warms its pre-passes: build, pre-pass and, for the split
 * model, a trace-recording pre-pass. buildS and prepassS sum the
 * kernels' thread times; totalS is the wall time.
 */
std::unique_ptr<Prepared>
prepare(uint64_t scale, const std::vector<std::string> &kernels,
        bool recordTraces)
{
    Span setup("setup");
    double start = nowSec();
    auto p = std::make_unique<Prepared>();
    p->runner = std::make_unique<Runner>(scale);
    size_t n = kernels.size();
    std::vector<double> buildS(n), prepassS(n), insts(n), traceBytes(n);
    if (recordTraces)
        p->traces.resize(n);
    sweep::parallelFor(n, bench_workers, [&](size_t k) {
        double t = nowSec();
        {
            Span s("workloads.build");
            p->runner->workload(kernels[k]);
        }
        double u = nowSec();
        {
            Span s("mdp.prepass");
            insts[k] = static_cast<double>(
                p->runner->prepass(kernels[k]).instCount);
        }
        if (recordTraces) {
            Span s("mdp.prepass");
            PrepassOptions po;
            po.recordTrace = true;
            PrepassResult pre =
                runPrepass(p->runner->workload(kernels[k]).program, po);
            insts[k] += static_cast<double>(pre.instCount);
            traceBytes[k] = static_cast<double>(pre.trace.size() *
                                                sizeof(TraceEntry));
            p->traces[k] = std::move(pre.trace);
        }
        buildS[k] = u - t;
        prepassS[k] = nowSec() - u;
    });
    for (size_t k = 0; k < n; ++k) {
        p->buildS += buildS[k];
        p->prepassS += prepassS[k];
        p->prepassInsts += insts[k];
        p->traceBytes += traceBytes[k];
    }
    p->totalS = nowSec() - start;
    return p;
}

InResult
runSplit(const InJob &job, const Prepared &p, int64_t runId)
{
    Span span("job", runId);
    InResult out;
    out.run.workload = job.workload;
    out.run.config = job.key;
    try {
        ScopedErrorTrap trap;
        std::optional<SplitWindowSim> sim;
        {
            Span s("split.construct");
            sim.emplace(job.scfg, p.traces[job.kernel]);
        }
        double t = nowSec();
        {
            Span s("split.run");
            sim->run();
        }
        out.splitMs = (nowSec() - t) * 1000.0;
        out.run.cycles = sim->cycles();
        out.run.commits = sim->committed();
        out.run.violations = sim->violations();
        for (size_t i = 0; i < obs::num_cpi_causes; ++i)
            out.run.cpiSlots[i] = sim->cpiStack().slot(obs::CpiCause(i));
        if (const obs::DepProfile *dp = sim->depProfile())
            out.run.depEdges = dp->numEdges();
    } catch (const SimError &e) {
        out.run.ok = false;
        out.run.error = e.summary();
    }
    return out;
}

struct RoundOut
{
    double makespanS = 0;
    double cpuS = 0;
    std::vector<InResult> results; ///< In job order.
};

RoundOut
runRound(const std::vector<InJob> &jobs, Prepared &p,
         const std::vector<size_t> &order, bool traced, bool useEngine,
         int64_t runIdBase)
{
    RoundOut out;
    out.results.resize(jobs.size());
    double c0 = cpuSelf();
    double t0 = nowSec();
    if (useEngine) {
        sweep::SweepPlan plan;
        for (size_t i : order)
            plan.add(jobs[i].workload, jobs[i].cfg);
        sweep::SweepOptions so;
        so.jobs = bench_workers;
        so.useCache = false;
        sweep::SweepEngine engine(*p.runner, so);
        std::vector<RunResult> res = engine.run(plan);
        for (size_t i = 0; i < order.size(); ++i)
            out.results[order[i]].run = std::move(res[i]);
    } else {
        sweep::parallelFor(order.size(), bench_workers, [&](size_t n) {
            size_t i = order[n];
            const InJob &job = jobs[i];
            InResult &slot = out.results[i];
            int64_t id = runIdBase + static_cast<int64_t>(i);
            if (job.split)
                slot = runSplit(job, p, id);
            else if (traced)
                slot.run = tracedRun(*p.runner, job.workload, job.cfg, id,
                                     slot.counters);
            else
                slot.run = p.runner->run(job.workload, job.cfg);
        });
    }
    out.makespanS = nowSec() - t0;
    out.cpuS = cpuSelf() - c0;
    return out;
}

double
fileMb(const std::string &path)
{
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

/**
 * The shared loop: set up repeatedly, then closed-loop rounds until
 * the time budget is spent (in a traced run every other round is
 * traced).
 */
Outcome
runInProcess(const Options &opts, Expected &expected,
             const std::vector<std::string> &kernels,
             const std::vector<InJob> &jobs, uint64_t scale,
             bool recordTraces, bool useEngine,
             const std::string &depprofPath)
{
    Outcome out;
    std::unique_ptr<Prepared> p;
    std::vector<double> buildMs, prepassMs;
    for (size_t i = 0; i < warmup_setups; ++i) {
        p.reset();
        p = prepare(scale, kernels, recordTraces);
    }
    // The next round runs on the last of these set-ups.
    auto setUp = [&] {
        double total = 0, build = 0, prepass = 0;
        size_t n = 0;
        while (n < min_round_setups || total < round_setup_s) {
            p.reset();
            p = prepare(scale, kernels, recordTraces);
            total += p->totalS;
            build += p->buildS;
            prepass += p->prepassS;
            ++n;
        }
        out.setupS.push_back(total / static_cast<double>(n));
        buildMs.push_back(build * 1e3 / static_cast<double>(n));
        prepassMs.push_back(prepass * 1e3 / static_cast<double>(n));
    };

    std::vector<double> busy, longest, depprofMb, depprofEdges;
    auto account = [&](const RoundOut &round, bool traced) {
        double wallSum = 0, maxWall = 0, edges = 0, commits = 0;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const InResult &r = round.results[i];
            std::string sig;
            double hostMs = jobs[i].split ? r.splitMs : r.run.wallMs;
            if (jobs[i].split) {
                std::vector<uint64_t> cpi(r.run.cpiSlots.begin(),
                                          r.run.cpiSlots.end());
                sig = r.run.ok ? splitSignature(r.run.cycles,
                                                r.run.commits,
                                                r.run.violations, cpi)
                               : "failed: " + r.run.error;
            } else {
                sig = runSignature(r.run);
            }
            ++out.attempted;
            if (!r.run.ok || !expected.check(jobs[i].key, sig))
                ++out.failed;
            edges += static_cast<double>(r.run.depEdges);
            if (traced)
                continue;
            commits += static_cast<double>(r.run.commits);
            wallSum += hostMs;
            maxWall = std::max(maxWall, hostMs);
        }
        if (traced)
            return;
        out.makespanS.push_back(round.makespanS);
        out.cpuS.push_back(round.cpuS);
        out.simKips.push_back(wallSum > 0 ? commits / wallSum : 0);
        busy.push_back(wallSum / 1e3 /
                       (round.makespanS * bench_workers));
        longest.push_back(maxWall / 1e3);
        depprofEdges.push_back(edges);
        if (!depprofPath.empty())
            depprofMb.push_back(fileMb(depprofPath));
    };

    auto fresh = [&] {
        if (!depprofPath.empty())
            std::remove(depprofPath.c_str());
    };

    if (opts.recordExpected) {
        setUp();
        fresh();
        account(runRound(jobs, *p, permutation(jobs.size(), opts.seed, 0),
                         false, useEngine, 0),
                false);
        return out;
    }

    // A traced run alternates untraced and traced rounds, so both see
    // the same host conditions, and runs both through the traced path's
    // parallelFor (not SweepEngine), so their makespans differ by the
    // tracing and the stats export tracedRun adds, not by the engine.
    bool engine = useEngine && !opts.trace;
    Tracer &tracer = Tracer::get();
    std::vector<double> tracedMakespan;
    std::vector<SimConfig> procConfigs;
    std::vector<RunResult> procRuns;
    std::vector<RunCounters> procCounters;
    double splitNs = 0, splitCycles = 0, splitViolations = 0;
    size_t minRounds = opts.trace ? min_traced_rounds : min_rounds;
    uint64_t round = 0;
    double start = nowSec();
    int64_t t0 = Tracer::nowNs();
    while (out.makespanS.size() < minRounds ||
           (opts.trace && tracedMakespan.size() < minRounds) ||
           nowSec() - start < opts.seconds) {
        bool traced = opts.trace && round % 2 == 1;
        setUp();
        fresh();
        tracer.enable(traced);
        RoundOut r = runRound(
            jobs, *p, permutation(jobs.size(), opts.seed, round), traced,
            engine, static_cast<int64_t>(round * jobs.size()));
        tracer.enable(false);
        account(r, traced);
        std::fprintf(stderr,
                     "cwbench: round %llu%s set-up %.4f s (build %.2f ms, "
                     "pre-pass %.2f ms) makespan %.3f s cpu %.3f s\n",
                     static_cast<unsigned long long>(round),
                     traced ? " (traced)" : "", out.setupS.back(),
                     buildMs.back(), prepassMs.back(), r.makespanS, r.cpuS);
        ++round;
        if (!traced)
            continue;
        tracedMakespan.push_back(r.makespanS);
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].split) {
                splitNs += r.results[i].splitMs * 1e6;
                splitCycles += static_cast<double>(r.results[i].run.cycles);
                splitViolations +=
                    static_cast<double>(r.results[i].run.violations);
                continue;
            }
            procConfigs.push_back(jobs[i].cfg);
            procRuns.push_back(r.results[i].run);
            procCounters.push_back(r.results[i].counters);
        }
    }
    int64_t t1 = Tracer::nowNs();
    std::fprintf(stderr,
                 "cwbench: set-up over %zu rounds, median %.4f s "
                 "(min %.4f, max %.4f)\n",
                 out.setupS.size(), median(out.setupS),
                 quantile(out.setupS, 0), quantile(out.setupS, 1));
    if (!opts.trace)
        return out;

    double prepassRate = p->prepassInsts / median(prepassMs) / 1e3;
    double traceMb = p->traceBytes / (1024.0 * 1024.0);
    double rounds = static_cast<double>(tracedMakespan.size());
    double tracedTotal = 0;
    for (double m : tracedMakespan)
        tracedTotal += m;
    MetricList &l = out.layers;
    l.push_back({"workloads.build_ms", median(buildMs), "ms"});
    l.push_back({"mdp.prepass_ms", median(prepassMs), "ms"});
    l.push_back({"mdp.prepass_minst_per_s", prepassRate, "Minst/s"});
    l.push_back({"mdp.trace_mb", traceMb, "MB"});
    addProcessorLayers(l, procConfigs, procRuns, procCounters, rounds,
                       tracedTotal, t0, t1);
    l.push_back({"split.run_s", splitNs / 1e9 / rounds, "s"});
    l.push_back({"split.ns_per_cycle",
                 splitCycles > 0 ? splitNs / splitCycles : 0, "ns"});
    l.push_back({"split.violations", splitViolations / rounds, "count"});
    l.push_back({"obs.depprof_edges", median(depprofEdges), "count"});
    l.push_back({"obs.depprof_mb", median(depprofMb), "MB"});
    l.push_back({"sweep.worker_busy_frac", median(busy), "frac"});
    l.push_back({"sweep.longest_run_s", median(longest), "s"});
    l.push_back({"bench.trace_overhead_frac",
                 median(tracedMakespan) / median(out.makespanS) - 1,
                 "frac"});
    double attributed = 0;
    for (const auto &[name, t] : tracer.totals(t0, t1)) {
        if (name.find('.') != std::string::npos)
            attributed += t.selfS;
    }
    l.push_back({"bench.unattributed_frac",
                 1 - attributed / (tracedTotal * bench_workers), "frac"});
    return out;
}

} // anonymous namespace

Outcome
runFig2Sweep(const Options &opts, Expected &expected)
{
    const std::vector<std::string> &kernels = workloads::allNames();
    std::vector<InJob> jobs;
    for (size_t k = 0; k < kernels.size(); ++k) {
        for (SpecPolicy policy :
             {SpecPolicy::No, SpecPolicy::Oracle, SpecPolicy::Naive}) {
            InJob job;
            job.workload = kernels[k];
            job.kernel = k;
            job.cfg = withPolicy(makeW128Config(), LsqModel::NAS, policy);
            job.key = strfmt("%016llx",
                             static_cast<unsigned long long>(
                                 sweep::fingerprintRun(kernels[k],
                                                       fig2_scale,
                                                       job.cfg)));
            jobs.push_back(std::move(job));
        }
    }
    return runInProcess(opts, expected, kernels, jobs, fig2_scale, false,
                        true, "");
}

Outcome
runPolicyMatrix(const Options &opts, Expected &expected)
{
    // The eight kernels of the paper's Table 4.
    const std::vector<std::string> kernels = {
        "099.go",  "124.m88ksim", "126.gcc",    "129.compress",
        "130.li",  "134.perl",    "147.vortex", "104.hydro2d",
    };
    std::vector<SimConfig> configs;
    for (SpecPolicy policy :
         {SpecPolicy::No, SpecPolicy::Naive, SpecPolicy::Selective,
          SpecPolicy::StoreBarrier, SpecPolicy::SpecSync,
          SpecPolicy::Oracle})
        configs.push_back(
            withPolicy(makeW128Config(), LsqModel::NAS, policy));
    for (Cycles latency : {0, 1, 2}) {
        configs.push_back(withPolicy(makeW128Config(), LsqModel::AS,
                                     SpecPolicy::Naive, latency));
    }
    for (SpecPolicy policy : {SpecPolicy::Naive, SpecPolicy::SpecSync}) {
        SimConfig cfg =
            withPolicy(makeW128Config(), LsqModel::NAS, policy);
        cfg.mdp.recovery = RecoveryModel::Selective;
        configs.push_back(cfg);
    }

    std::vector<InJob> jobs;
    for (size_t k = 0; k < kernels.size(); ++k) {
        for (const SimConfig &cfg : configs) {
            InJob job;
            job.workload = kernels[k];
            job.kernel = k;
            job.cfg = cfg;
            job.key = strfmt("%016llx",
                             static_cast<unsigned long long>(
                                 sweep::fingerprintRun(kernels[k],
                                                       matrix_scale, cfg)));
            jobs.push_back(std::move(job));
        }
        for (bool split : {false, true}) {
            for (SpecPolicy policy : {SpecPolicy::No, SpecPolicy::Naive,
                                      SpecPolicy::SpecSync}) {
                InJob job;
                job.workload = kernels[k];
                job.kernel = k;
                job.split = true;
                if (!split)
                    job.scfg = SplitConfig::continuous();
                job.scfg.policy = policy;
                job.key = strfmt("split %s %s/%s scale %llu",
                                 kernels[k].c_str(),
                                 split ? "4x32" : "continuous",
                                 toString(policy),
                                 static_cast<unsigned long long>(
                                     matrix_scale));
                jobs.push_back(std::move(job));
            }
        }
    }

    std::string profile = opts.workDir + "/policy-matrix.depprof.jsonl";
    obs::DepProfManager::instance().enable(profile);
    Outcome out = runInProcess(opts, expected, kernels, jobs, matrix_scale,
                               true, false, profile);
    obs::DepProfManager::instance().disable();
    std::remove(profile.c_str());
    return out;
}

} // namespace cwbench
