/**
 * @file
 * A distributed, split-window processor model (Section 3.7).
 *
 * The instruction window is divided into sub-windows (units), each
 * assigned a contiguous chunk of the dynamic execution trace
 * (Multiscalar-style tasks). Units fetch their chunks INDEPENDENTLY and
 * in parallel, so — unlike the continuous-window core in src/cpu/ — a
 * load in a later unit can compute its address (and speculatively
 * access memory) before an older store in an earlier unit has even been
 * fetched. This is exactly why the paper finds that an address-based
 * scheduler with naive speculation, which eliminates virtually all
 * miss-speculations under a continuous window, fails to do so under a
 * split window (Figure 7).
 *
 * The model is trace-driven over the committed path from the functional
 * pre-pass (equivalently: perfect task/control prediction, a
 * simplification documented in DESIGN.md). Register dependences resolve
 * dataflow-style with an extra inter-unit forwarding latency; loads and
 * stores follow the same AS/NAS x NO/NAV policy definitions as the
 * continuous core. Setting numUnits=1 with a full-size chunk recovers a
 * continuous-window machine, which is how bench/fig7 contrasts the two.
 */

#ifndef CWSIM_SPLIT_SPLIT_WINDOW_HH
#define CWSIM_SPLIT_SPLIT_WINDOW_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "mdp/mdp_table.hh"
#include "mdp/oracle.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "obs/pipeview.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace cwsim
{

struct SplitConfig
{
    unsigned numUnits = 4;
    /** Trace instructions per unit assignment (= sub-window size). */
    unsigned chunkSize = 32;
    unsigned unitFetchWidth = 2; ///< Insts fetched per unit per cycle.
    unsigned unitIssueWidth = 2; ///< Insts issued per unit per cycle.
    unsigned commitWidth = 8;    ///< Global in-order commit width.
    Cycles interUnitLatency = 1; ///< Extra cycles crossing units.
    Cycles memLatency = 2;       ///< Load-to-use / cache-hit latency.
    Cycles squashPenalty = 4;    ///< Re-dispatch delay after a squash.

    LsqModel lsqModel = LsqModel::AS;
    /**
     * No, Naive, or SpecSync. SpecSync pairs violating (load, store)
     * PCs in an MDPT and synchronizes later instances — the mechanism
     * the paper's prior work showed split windows NEED, since even a
     * 0-cycle address scheduler cannot save them (Section 3.7).
     */
    SpecPolicy policy = SpecPolicy::Naive;
    Cycles asLatency = 0;

    /**
     * Continuous mode: a single in-order fetch stream feeding one
     * sliding window of numUnits*chunkSize entries — the Figure 7(b)
     * reference machine. Split mode fetches each in-flight chunk
     * independently (Figure 7(c)).
     */
    bool continuousFetch = false;

    /**
     * Forward-progress watchdog: cycles without a commit before the
     * model raises a structured SimError describing the stuck head
     * instruction (0 disables). A healthy trace-driven model commits
     * within squashPenalty + a few latencies of any stall.
     */
    uint64_t watchdogInterval = 100'000;

    /** A continuous-window reference machine with equal resources. */
    static SplitConfig
    continuous(unsigned window = 128)
    {
        SplitConfig cfg;
        cfg.numUnits = 1;
        cfg.chunkSize = window;
        cfg.unitFetchWidth = 8;
        cfg.unitIssueWidth = 8;
        cfg.interUnitLatency = 0;
        cfg.continuousFetch = true;
        return cfg;
    }
};

class SplitWindowSim
{
  public:
    /**
     * @param cfg Model parameters.
     * @param trace Committed-path trace from runPrepass(recordTrace).
     */
    SplitWindowSim(const SplitConfig &cfg,
                   const std::vector<TraceEntry> &trace);

    /** Simulate the whole trace. @return elapsed cycles. */
    uint64_t run();

    uint64_t cycles() const { return curCycle; }
    uint64_t violations() const { return numViolations; }
    uint64_t committed() const { return numCommitted; }
    /** Commit-slot cycle accounting (conserves by construction). */
    const obs::CpiStack &cpiStack() const { return cpi; }
    /** The run's dependence profile, or nullptr when profiling is off. */
    const obs::DepProfile *depProfile() const { return dprof.get(); }

    double
    ipc() const
    {
        return curCycle ? static_cast<double>(numCommitted) / curCycle
                        : 0;
    }

    double
    misspecRate() const
    {
        return numLoads ? static_cast<double>(numViolations) / numLoads
                        : 0;
    }

  private:
    /**
     * Static, precomputed description of one trace entry. The dynamic
     * per-index execution state lives in the parallel arrays below
     * (structure-of-arrays): the per-cycle scans — loadMayIssue's
     * walk over every older in-flight instruction, executeStore's
     * walk over every younger in-flight load — each test a couple of
     * booleans per index, and packing those into a dense flag byte
     * keeps a whole chunk window's scan state in a few cache lines
     * instead of dragging one Node record per index.
     */
    struct Node
    {
        TraceIndex src1Producer = invalid_trace_index;
        TraceIndex src2Producer = invalid_trace_index;
        unsigned chunk = 0;
        bool isLoad = false;
        bool isStore = false;
        Addr pc = 0;
        Addr addr = invalid_addr;
        unsigned size = 0;
        Cycles latency = 1;
    };

    /**
     * Packed per-index dynamic flags (the hot scan predicates). An
     * index below headCommit has committed; no flag says so.
     */
    enum DynFlag : uint8_t
    {
        DynFetched = 1 << 0,
        DynDone = 1 << 1, ///< Issued; complete at doneAt.
        DynAddrPosted = 1 << 2,
    };

    bool has(TraceIndex i, uint8_t f) const { return dynFlags[i] & f; }
    void set(TraceIndex i, uint8_t f) { dynFlags[i] |= f; }

    bool regReady(TraceIndex producer, unsigned consumer_chunk) const;
    /**
     * The load gate, one walk over [headCommit, idx). On true,
     * @p source is the youngest older executed store the load
     * overlaps (invalid_trace_index: it reads memory).
     */
    bool loadMayIssue(TraceIndex idx, TraceIndex &source) const;
    void executeStore(TraceIndex idx);
    void squashFrom(TraceIndex idx);
    /** Blame for this cycle's residual commit slots (DESIGN.md §11). */
    obs::CpiCause classifyResidual() const;

    SplitConfig cfg;
    std::vector<Node> nodes; ///< Static trace description (AoS).
    MdpTable mdpt;

    // Dynamic state, indexed by trace position (SoA).
    std::vector<uint8_t> dynFlags;  ///< DynFlag bits.
    std::vector<Tick> doneAt;       ///< Completion time once DynDone.
    std::vector<Tick> addrPostedAt; ///< AS address-post time.
    /** For loads: youngest older store whose value was consumed. */
    std::vector<TraceIndex> sourceSeen;
    /** Earliest re-issue time after a squash. */
    std::vector<Tick> notBefore;

    // Pipeline timeline (O3PipeView traces) and squash counts.
    std::vector<Tick> fetchedAt;
    std::vector<Tick> issuedAt;
    std::vector<uint16_t> timesSquashed;

    /** Pipeline-trace writer (nullptr when not recording). */
    obs::PipeViewWriter *pipe = nullptr;
    /** Per-node disassembly, filled only while @ref pipe is active. */
    std::vector<std::string> disasms;

    TraceIndex headCommit;   ///< Next instruction to commit.
    unsigned headChunk;      ///< Oldest in-flight chunk.
    std::vector<TraceIndex> fetchCursor; ///< Next fetch per unit slot.
    TraceIndex globalCursor; ///< Continuous-mode fetch cursor.

    Tick curCycle;
    uint64_t numViolations;
    uint64_t numCommitted;
    uint64_t numLoads;
    obs::CpiStack cpi;
    /**
     * Per-static-PC dependence attribution (nullptr when profiling is
     * off). Stats-less here: the split model has no StatGroup, so the
     * profile only feeds the .depprof.jsonl writer. Observation only.
     */
    std::unique_ptr<obs::DepProfile> dprof;
};

} // namespace cwsim

#endif // CWSIM_SPLIT_SPLIT_WINDOW_HH
