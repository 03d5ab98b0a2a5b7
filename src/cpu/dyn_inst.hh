/**
 * @file
 * The in-flight (dynamic) instruction record occupying one window (RUU)
 * entry, including operand-capture state, memory state, and the
 * per-policy scheduling fields of the memory dependence speculation
 * engine.
 */

#ifndef CWSIM_CPU_DYN_INST_HH
#define CWSIM_CPU_DYN_INST_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "bpred/bpred.hh"
#include "isa/static_inst.hh"
#include "mdp/oracle.hh"

namespace cwsim
{

/**
 * Dispatch builds each record in its window slot, so every byte here is
 * written once per dispatched instruction. The fields are ordered by
 * size, widest first, so the flags pack together instead of padding;
 * each one's comment names its part of the pipeline.
 */
struct DynInst
{
    /** Operand capture (RUU model): one source register's value. */
    struct Operand
    {
        uint64_t value = 0;
        InstSeqNum producer = 0;
        RegId reg = reg_invalid;
        bool ready = true;
        bool hasProducer = false;
    };

    // 8-byte fields --------------------------------------------------
    // Identity.
    InstSeqNum seq = 0;
    TraceIndex traceIdx = 0;
    Addr pc = 0;
    /** Rename undo: the mapping this instruction's dest replaced. */
    InstSeqNum prevDestProducer = 0;
    // Execution.
    uint64_t result = 0;
    Tick issuedAt = 0;
    // Control.
    Addr predTarget = 0;
    Addr actualTarget = 0;
    // Memory.
    Addr effAddr = invalid_addr;
    uint64_t loadRaw = 0;          ///< Raw bytes read (pre-extension).
    /** Fault injection: NAS store may not execute before this cycle. */
    Tick storeExecNotBefore = 0;
    /** SYNC: the store this load synchronizes on. */
    InstSeqNum syncWaitStore = 0;
    /**
     * ORACLE: the pre-pass's distinct producing stores of this load,
     * or nullptr if it has none. Partial overlaps can give a load up
     * to one producer per byte; the oracle gate waits for all of them.
     * The pre-pass outlives the run and is not modified during it.
     */
    const OracleDeps::ProducerSet *oracleProducers = nullptr;
    // False-dependence probe (Table 3).
    Tick fdStallStart = 0;
    Cycles fdLatency = 0;
    // Pipeline timeline (O3PipeView traces; see src/obs/pipeview.hh).
    // Maintained unconditionally — plain stores, cheaper than gating.
    Tick fetchedAt = 0;
    Tick dispatchedAt = 0;
    Tick completedAt = 0;

    /**
     * Per-byte forwarding source: the seq of the store each byte of
     * loadRaw came from (0 = architectural memory). A store older than
     * the load violates it iff some byte it writes has a source seq
     * below its own — the byte-wise test; a single youngest-source seq
     * cannot distinguish which bytes a partial forward covered.
     */
    std::array<InstSeqNum, 8> loadByteSource{};
    Operand src1;
    Operand src2;
    BPredCheckpoint checkpoint;    ///< Control: predictor state to repair.

    // 4-byte fields --------------------------------------------------
    /**
     * Incremented on every (re)issue; completion events carry the epoch
     * they were scheduled under so a replayed load's stale completion
     * can be discarded.
     */
    uint32_t epoch = 0;
    /** Rename undo: prevDestProducer's window slot. */
    uint32_t prevDestSlot = 0;
    int sbSlot = -1;               ///< Store-buffer slot for stores.
    StaticInst si;                 ///< Identity: 8 bytes, 4-aligned.

    // 2- and 1-byte fields -------------------------------------------
    /** Selective-recovery / AS re-executions of this instruction. */
    uint16_t timesReplayed = 0;
    uint8_t memSize = 0;
    // Rename undo.
    bool renamedDest = false;
    bool prevDestBusy = false;
    // Execution status.
    bool issued = false;
    bool done = false;
    // Control.
    bool predTaken = false;
    bool predTargetKnown = false;
    bool hasCheckpoint = false;
    bool actualTaken = false;
    // Memory.
    bool memIssued = false;
    bool memDone = false;
    /** Ambiguous older stores existed when this load issued. */
    bool speculativeLoad = false;
    // Policy engine.
    /** SEL: predicted dependence -> wait for all older stores. */
    bool waitAllStores = false;
    /** SYNC consumer state. */
    bool hasSyncWait = false;
    /** The load waited on a SYNC-predicted producing store. */
    bool waitedSync = false;
    // False-dependence probe (Table 3).
    bool fdStallStarted = false;
    bool fdEvaluated = false;
    bool fdIsFalse = false;

    bool isLoad() const { return si.isLoad(); }
    bool isStore() const { return si.isStore(); }

    bool
    srcsReady() const
    {
        return src1.ready && src2.ready;
    }
};

// Five cache lines; a new field should take padding, not a sixth line.
static_assert(sizeof(DynInst) <= 320, "DynInst grew past 320 bytes");

} // namespace cwsim

#endif // CWSIM_CPU_DYN_INST_HH
