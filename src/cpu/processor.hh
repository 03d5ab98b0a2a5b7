/**
 * @file
 * The centralized, continuous-window out-of-order superscalar timing
 * core (the paper's Table 2 machine).
 *
 * Execution-driven and cycle-stepped: instructions are fetched along
 * the predicted path (wrong-path work is fetched, renamed, executed and
 * squashed), inserted into a single RUU-style window in program order,
 * and issued with program-order (oldest-first) priority. The
 * event-driven memory hierarchy supplies load/fill latencies.
 *
 * Load/store scheduling is governed by the MdpConfig: the LsqModel
 * selects whether an address-based scheduler exists, and the SpecPolicy
 * selects among the paper's five speculation policies plus the oracle.
 * This file is where the paper's mechanisms meet the pipeline; the
 * prediction structures themselves live in src/mdp/.
 */

#ifndef CWSIM_CPU_PROCESSOR_HH
#define CWSIM_CPU_PROCESSOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "base/circular_queue.hh"
#include "base/sim_error.hh"
#include "base/slot_bitmap.hh"
#include "base/types.hh"
#include "bpred/bpred.hh"
#include "check/fault_injector.hh"
#include "check/flight_recorder.hh"
#include "check/watchdog.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/store_buffer.hh"
#include "isa/executor.hh"
#include "isa/program.hh"
#include "mdp/mdp_table.hh"
#include "mdp/oracle.hh"
#include "mem/functional_memory.hh"
#include "mem/timing_cache.hh"
#include "obs/cpi_stack.hh"
#include "obs/depprof.hh"
#include "obs/interval.hh"
#include "obs/pipeview.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace cwsim
{

/** Why a squash happened — annotated onto pipeline-trace records. */
enum class SquashCause : uint8_t
{
    None,             ///< Not squashed (committed normally).
    BranchMispredict,
    MemOrderViolation, ///< A memory dependence miss-speculation.
    InjectedViolation, ///< Fault injection forced the violation.
    Drain,            ///< runTiming() boundary drain.
};

const char *toString(SquashCause cause);

/**
 * Why the load gate refuses a load. The commit-slot accounting
 * (obs/cpi_stack.hh) asks the gate about a stalled window head to
 * classify residual slots.
 */
enum class GateBlock : uint8_t
{
    None,      ///< Not gate-blocked: the load may issue.
    Ambiguous, ///< An older store's address is not visible yet.
    TrueDep,   ///< A known producing store has not supplied its data.
    Barrier,   ///< STORE: held behind an unissued store barrier.
    Sync,      ///< SYNC: waiting on a synonym-predicted store.
};

/** Aggregate statistics for one Processor run. */
struct ProcStats
{
    stats::Scalar cycles;
    stats::Scalar commits;
    stats::Scalar committedLoads;
    stats::Scalar committedStores;
    stats::Scalar fetchedInsts;
    stats::Scalar squashedInsts;
    stats::Scalar branchMispredicts;
    stats::Scalar memOrderViolations; ///< Dependence miss-speculations.
    stats::Scalar loadReplays;        ///< AS silent re-executions.
    stats::Scalar selectiveRecoveries; ///< Slice re-executions.
    stats::Scalar selectiveFallbacks;  ///< Slices that needed a squash.
    stats::Average sliceSize;          ///< Insts per selective recovery.
    stats::Scalar falseDepLoads;      ///< Table 3 "FD" numerator.
    stats::Scalar trueDepStalledLoads;
    stats::Scalar syncWaits;          ///< Loads synchronized by SYNC.
    stats::Scalar selHolds;           ///< Loads held by SEL prediction.
    stats::Scalar barrierHolds;       ///< Loads held behind a barrier.
    stats::Scalar loadsForwarded;     ///< Loads served fully by the SB.
    stats::Average falseDepLatency;   ///< Table 3 "RL".
    stats::Average loadIssueDelay;    ///< Ready-to-issue cycles, loads.
    /** Window (ROB) occupancy, sampled every cycle. */
    stats::Distribution windowOccupancy;
    // Fault injection (check.faults).
    stats::Scalar injectedViolations;
    stats::Scalar injectedAddrDelays;
    stats::Scalar injectedMdptFaults;

    void registerIn(stats::StatGroup &group);

    double
    ipc() const
    {
        return cycles.value()
            ? static_cast<double>(commits.value()) / cycles.value()
            : 0.0;
    }

    double
    misspecRate() const
    {
        return committedLoads.value()
            ? static_cast<double>(memOrderViolations.value()) /
                  committedLoads.value()
            : 0.0;
    }

    double
    falseDepFraction() const
    {
        return committedLoads.value()
            ? static_cast<double>(falseDepLoads.value()) /
                  committedLoads.value()
            : 0.0;
    }
};

class Processor
{
  public:
    /**
     * @param cfg Machine configuration (Table 2 presets + MdpConfig).
     * @param program The workload image.
     * @param oracle Pre-pass dependence information. Mandatory for
     *        SpecPolicy::Oracle; optional otherwise (enables the
     *        false-dependence probes of Table 3 when present).
     */
    Processor(const SimConfig &cfg, const Program &program,
              const OracleDeps *oracle = nullptr);
    ~Processor();

    /** Run until HALT commits, cfg.maxInsts commits, or cfg.maxCycles. */
    void run();

    /**
     * Timing-simulate until @p max_commits more instructions commit (or
     * HALT); then drain speculative state so a functional phase can
     * take over. @return commits performed.
     */
    uint64_t runTiming(uint64_t max_commits);

    /**
     * Fast-forward @p n instructions functionally, warming the caches
     * and the branch predictor (the paper's sampling methodology).
     */
    uint64_t fastForward(uint64_t n);

    bool halted() const { return haltedFlag; }

    ProcStats &procStats() { return pstats; }
    const ProcStats &procStats() const { return pstats; }
    stats::StatGroup &statsGroup() { return statGroup; }
    const obs::CpiStack &cpiStack() const { return cpi; }

    const ArchState &archState() const { return archRegs; }
    FunctionalMemory &memory() { return funcMem; }
    MemorySystem &memorySystem() { return memSys; }
    BranchPredictor &branchPredictor() { return bpred; }
    MdpTable &mdpt() { return mdpTable; }
    const check::FlightRecorder &flightRecorder() const { return frec; }
    /** The run's dependence profile, or nullptr when profiling is off. */
    const obs::DepProfile *depProfile() const { return dprof.get(); }

    Tick curCycle() const { return cycle; }
    uint64_t totalCommits() const { return commitCount; }
    /** Instructions the issue walk has visited (host-cost probe). */
    uint64_t issueVisits() const { return issueVisitCount; }

    /**
     * Render the machine's current state (cycle, window, store buffer,
     * fetch engine) for diagnostics.
     */
    std::string machineStateDump() const;

  private:
    /** A window instruction by slot and seq, validated at use. */
    struct ConsumerRef
    {
        size_t slot = 0;
        InstSeqNum seq = 0;
    };

    // ---- pipeline phases (called once per cycle, in this order) ----
    void tick();
    void doCommit();
    void releaseStores();
    void doIssue();
    void doDispatch();
    void doFetch();

    // ---- issue helpers (processor_issue.cc) -------------------------
    /** One ready instruction's issue attempt (the doIssue body). */
    void tryIssue(DynInst &inst, unsigned &slots);

    /**
     * The load gate's answer, and for a refusal the park key: the one
     * event that can change it. With neither a store nor a cycle, the
     * load waits for the oldest unposted store to post its address.
     */
    struct GateVerdict
    {
        GateBlock block = GateBlock::None;
        /** Wake when this store executes or is released. */
        const SbEntry *store = nullptr;
        /** Wake at this cycle (0: no timed wake). */
        Tick until = 0;
    };
    /**
     * The load gate of both LSQ models: may this load access memory
     * this cycle, and if not, what is it waiting for?
     */
    GateVerdict loadMayIssue(const DynInst &inst) const;
    GateVerdict gateSync(const DynInst &inst) const;
    /**
     * ORACLE / Table 3 probe: a store that produces bytes of @p load
     * (per the pre-pass) and sits unexecuted in the store buffer, or
     * nullptr.
     */
    const SbEntry *oracleProducerPending(const DynInst &load) const;

    /**
     * Could visiting @p inst act, parking aside? A plain instruction
     * or NAS store: unissued with both operands. An AS store: an
     * unposted address with src1, or unposted data with src2. A load:
     * not memory-issued, with src1.
     */
    bool issueReady(const DynInst &inst) const;
    /** Put the instruction in ROB slot @p slot in the ready set. */
    void markReady(size_t slot);
    /** Move refused load @p inst from the ready set to @p gate's key. */
    void park(DynInst &inst, const GateVerdict &gate);
    /** Wake the load @p seq in ROB slot @p slot if it is still parked. */
    void wakeParked(size_t slot, InstSeqNum seq);
    /** @p entry executed, was released or un-posted: wake its waiters. */
    void wakeStoreWaiters(const SbEntry &entry);
    /**
     * A store posted its address: wake the unposted-address waiters
     * that no unposted store precedes any more.
     */
    void wakeUnpostedWaiters();

    void executeLoad(DynInst &inst);
    void executeStoreNas(DynInst &inst);
    void postStoreAddr(DynInst &inst);
    void postStoreData(DynInst &inst);
    void storeBecameExecuted(DynInst &inst, SbEntry &entry);

    /**
     * The violation walk of both LSQ models: recover every younger
     * load that read a byte @p store (just executed) should have
     * supplied.
     */
    void checkViolations(const DynInst &store);
    void trainPredictors(const DynInst &load, const SbEntry &store);
    void replayLoad(DynInst &inst);

    /**
     * The byte-wise staleness test: did @p load read any byte that
     * @p entry writes from a source older than @p entry (memory or an
     * older store)? Bytes forwarded from younger stores are correct
     * regardless of this store's value.
     */
    bool loadHasStaleByteFrom(const DynInst &load,
                              const SbEntry &entry) const;
    /** Did any byte of @p load forward from store @p store_seq? */
    bool loadForwardedFrom(const DynInst &load,
                           InstSeqNum store_seq) const;
    /**
     * Fill @p out with the memory-issued loads younger than the
     * instruction in ROB slot @p from whose bytes overlap
     * [addr, addr+size), oldest first.
     */
    void youngerLoadsReading(size_t from, Addr addr, unsigned size,
                             std::vector<ConsumerRef> &out) const;

    /**
     * Selective invalidation: re-execute the violated load and,
     * transitively, every instruction that consumed erroneous data
     * (through registers or store-buffer forwarding).
     * @return False if the slice reached resolved control flow (or a
     *         replay-storm guard tripped) and the caller must fall
     *         back to squash invalidation.
     */
    bool replayDependenceSlice(DynInst &victim);
    void resetForReplay(DynInst &inst);

    /**
     * Byte-wise load assembly from the store buffer + memory. When
     * @p byte_sources is non-null it receives, per byte, the seq of
     * the forwarding store (0 = memory); must hold @p size elements.
     */
    uint64_t assembleLoadBytes(Addr addr, unsigned size,
                               InstSeqNum load_seq,
                               InstSeqNum *byte_sources) const;

    void noteFalseDepStall(DynInst &inst);
    void finishFalseDepStall(DynInst &inst);

    // ---- checked simulation (processor_check.cc) --------------------
    /** Per-cycle invariants; dispatches on cfg.check.level. */
    void checkInvariants();
    /** Level >= 2: full structural scans of window/SB/rename/MDPT. */
    void heavyInvariants();
    /**
     * Raise a structured checked-simulation failure: the message plus
     * the machine-state and flight-recorder dumps, as a SimError.
     */
    [[noreturn]] void checkFail(SimErrorKind kind,
                                const std::string &what);
    /** Fault injection: spurious violation against a younger load. */
    void injectSpuriousViolation(const SbEntry &entry);
    /** Fault injection: per-cycle MDPT drop/corrupt draws. */
    void injectMdptFaults();
    /**
     * Fault injection: execute a host-level fault (abort / spin /
     * allocation storm). Never returns for anything but
     * HostFault::None — containment is the --isolate executor's job.
     */
    void executeHostFault(check::HostFault fault);

    // ---- shared helpers ----------------------------------------------
    DynInst *findInst(InstSeqNum seq);
    /** Is ROB slot @p slot still occupied by instruction @p seq? */
    bool
    slotHolds(size_t slot, InstSeqNum seq) const
    {
        return rob.slotLive(slot) && rob.slot(slot).seq == seq;
    }
    void completeInst(DynInst &inst);
    void broadcastResult(const DynInst &producer);
    void resolveControl(DynInst &inst);
    bool consumerCapturedResult(const DynInst &inst) const;
    bool anyConsumerIssued(const DynInst &producer) const;
    void unbroadcast(const DynInst &producer);

    /**
     * Squash every instruction younger than @p keep_seq (everything if
     * keep_seq == 0), repair the branch predictor, and redirect fetch.
     * @p cause annotates the squashed instructions' pipeline-trace
     * records.
     */
    void squashYoungerThan(InstSeqNum keep_seq, Addr restart_pc,
                           TraceIndex restart_trace_idx,
                           bool repair_bpred, SquashCause cause);
    void resumeFetch(Addr target);

    // ---- observability (src/obs/) -----------------------------------
    /** Emit @p inst's O3PipeView record (cause != None => squashed). */
    void emitPipeRecord(const DynInst &inst, SquashCause cause);
    void emitIntervalSample();
    obs::IntervalCounters intervalCounters() const;
    /** Flush the sampler's trailing partial interval (idempotent). */
    void finishIntervalSampling();
    /**
     * Take a final MDPT sample and append the dependence profile to
     * the process-wide profile file (idempotent, no-op without one).
     */
    void finishDepProfile();
    /**
     * Blame for this cycle's residual (non-committing) commit slots.
     * Called only when fewer than commitWidth instructions committed;
     * inspects the window head after the issue/dispatch/fetch phases
     * ran (DESIGN.md §11 has the priority order).
     */
    obs::CpiCause classifyResidual() const;

    void captureOperand(DynInst &inst, DynInst::Operand &op, RegId reg);
    void renameDest(DynInst &inst);
    void registerConsumer(const DynInst &producer,
                          const DynInst &consumer);

    // ---- configuration ------------------------------------------------
    SimConfig cfg;
    LsqModel lsqModel;
    SpecPolicy policy;
    bool usesMdpt;
    unsigned checkLevel;

    // ---- checked simulation ---------------------------------------------
    check::FlightRecorder frec;
    check::Watchdog wdog;
    check::FaultInjector faults;
    InstSeqNum lastCommitSeq; ///< In-order-commit invariant state.

    // ---- structural state ----------------------------------------------
    EventQueue eq;
    FunctionalMemory funcMem;
    MemorySystem memSys;
    BranchPredictor bpred;
    DecodeCache decoder;
    MdpTable mdpTable;
    const OracleDeps *oracle;

    ArchState archRegs; ///< Committed register state + next commit PC.

    struct RegMapEntry
    {
        bool busy = false;
        InstSeqNum producer = 0;
    };
    std::array<RegMapEntry, num_arch_regs> regMap;

    /**
     * The instruction window: DynInst records in program order, each
     * at a stable slot while resident. Index structures (consumer
     * lists, the slot bitmaps) refer to instructions by slot.
     */
    CircularQueue<DynInst> rob;
    StoreBuffer sb;
    unsigned lsqCount; ///< Memory instructions resident in the window.

    /**
     * The ready set: stable ROB slots doIssue visits, those whose
     * visit could act (issueReady) and that are not parked. Bits are
     * set at dispatch, by an operand's arrival, by a replay and by a
     * wake; a visit that finds an operand missing clears its bit, and
     * so do issue, completion and squash. Instructions blocked only
     * by a functional unit, a port or a cache bank stay in the set.
     */
    SlotBitmap readyBits;
    /**
     * Loads the gate refused, out of the ready set until the event
     * named by their park key (GateVerdict) wakes them to re-gate.
     */
    SlotBitmap parkedBits;
    /**
     * The parked loads waiting for an older store to post its address.
     * All wait on the oldest unposted store; slot order is age order
     * from the window head.
     */
    SlotBitmap unpostedWaiters;
    /**
     * Per store-buffer slot: the loads parked on that store's
     * execution or release. Refs are validated at wake time, like
     * consumer refs; a list is cleared when its slot is reallocated.
     */
    std::vector<std::vector<ConsumerRef>> storeWaiters;

    /**
     * The memory-issued loads in the window: set when a load accesses
     * memory, cleared when it commits, is squashed or replays. A store
     * that executes walks the bits younger than itself, in age order,
     * for the loads that read any byte it writes.
     */
    SlotBitmap issuedLoads;

    /**
     * Per-producer consumer (wakeup) lists, indexed by the producer's
     * ROB slot; built during operand capture at dispatch. Replaces the
     * full-window sweeps of broadcastResult / unbroadcast /
     * anyConsumerIssued. Refs to squashed consumers go stale and are
     * dropped lazily (slot liveness + seq check); a producer's list is
     * cleared when its slot is reallocated at dispatch.
     */
    std::vector<std::vector<ConsumerRef>> consumers;

    /** Scratch for violation-check candidate collection. */
    std::vector<ConsumerRef> checkScratch;

    // ---- fetch state ------------------------------------------------------
    struct FetchedInst
    {
        InstSeqNum seq = 0;
        TraceIndex traceIdx = 0;
        Addr pc = 0;
        StaticInst si;
        bool predTaken = false;
        Addr predTarget = 0;
        bool predTargetKnown = false;
        bool hasCheckpoint = false;
        BPredCheckpoint checkpoint;
        Tick readyAt = 0;
        Tick fetchedAt = 0;
    };
    std::deque<FetchedInst> fetchQueue;
    Addr fetchPc;
    bool fetchHalted;
    InstSeqNum fetchStalledOnSeq; ///< Waiting for an indirect target.
    std::set<Addr> pendingIBlocks;

    // ---- per-cycle resource budgets (reset in doIssue) ---------------
    unsigned memPortsLeft;
    unsigned lsqInPortsLeft;
    std::array<unsigned, num_fu_classes> fuUsed;

    // ---- bookkeeping -------------------------------------------------------
    Tick cycle;
    InstSeqNum nextSeq;
    TraceIndex nextFetchTraceIdx;
    uint64_t commitCount;
    /** tryIssue calls made by doIssue; not a simulation statistic. */
    uint64_t issueVisitCount = 0;
    bool haltedFlag;
    Tick lastMdptReset;
    /**
     * Cause of the most recent squash, held until the front end
     * delivers the first refetched instruction to dispatch; classifies
     * empty-window cycles as mem-dep-squash vs branch-refetch loss.
     */
    SquashCause refetchCause;

    ProcStats pstats;
    stats::StatGroup statGroup;
    /** Commit-slot cycle accounting; child "cpi" group of statGroup. */
    obs::CpiStack cpi;

    // ---- observability ------------------------------------------------
    /** Pipeline-trace writer (nullptr when not recording). */
    obs::PipeViewWriter *pipe;
    /** Interval stats sampler (nullptr when not sampling). */
    std::unique_ptr<obs::IntervalSampler> sampler;
    /**
     * Per-static-PC dependence attribution (nullptr when profiling is
     * off — every hook below a single predicted-false pointer test).
     * Observation only: the enabled path reads simulation state but
     * never feeds back, so simulated stats stay bit-identical.
     */
    std::unique_ptr<obs::DepProfile> dprof;
    bool dprofWritten = false;
};

} // namespace cwsim

#endif // CWSIM_CPU_PROCESSOR_HH
