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

namespace cwsim
{

struct DynInst
{
    // Identity -----------------------------------------------------------
    InstSeqNum seq = 0;
    TraceIndex traceIdx = 0;
    Addr pc = 0;
    StaticInst si;

    // Operand capture (RUU model) ------------------------------------
    struct Operand
    {
        RegId reg = reg_invalid;
        bool ready = true;
        uint64_t value = 0;
        InstSeqNum producer = 0;
        bool hasProducer = false;
    };
    Operand src1;
    Operand src2;

    /** Rename undo information for squash recovery. */
    bool renamedDest = false;
    bool prevDestBusy = false;
    InstSeqNum prevDestProducer = 0;

    // Execution status ------------------------------------------------
    bool issued = false;
    bool done = false;
    uint64_t result = 0;
    Tick issuedAt = 0;
    /**
     * Incremented on every (re)issue; completion events carry the epoch
     * they were scheduled under so a replayed load's stale completion
     * can be discarded.
     */
    uint32_t epoch = 0;

    // Control ----------------------------------------------------------
    bool predTaken = false;
    Addr predTarget = 0;
    bool predTargetKnown = false;
    bool hasCheckpoint = false;
    BPredCheckpoint checkpoint;
    bool actualTaken = false;
    Addr actualTarget = 0;

    // Memory -----------------------------------------------------------
    Addr effAddr = invalid_addr;
    unsigned memSize = 0;
    bool memIssued = false;
    bool memDone = false;
    uint64_t loadRaw = 0;          ///< Raw bytes read (pre-extension).
    /**
     * Per-byte forwarding source: the seq of the store each byte of
     * loadRaw came from (0 = architectural memory). A store older than
     * the load violates it iff some byte it writes has a source seq
     * below its own — the byte-wise test; a single youngest-source seq
     * cannot distinguish which bytes a partial forward covered.
     */
    std::array<InstSeqNum, 8> loadByteSource{};
    int sbSlot = -1;               ///< Store-buffer slot for stores.
    /** Ambiguous older stores existed when this load issued. */
    bool speculativeLoad = false;
    /** Fault injection: NAS store may not execute before this cycle. */
    Tick storeExecNotBefore = 0;

    // Policy engine ----------------------------------------------------
    /** SEL: predicted dependence -> wait for all older stores. */
    bool waitAllStores = false;
    /** SYNC consumer state. */
    bool hasSyncWait = false;
    InstSeqNum syncWaitStore = 0;
    /**
     * ORACLE: distinct producing stores' trace indices, oldest first.
     * Partial overlaps can give a load up to one producer per byte;
     * the oracle gate must wait for all of them.
     */
    std::array<TraceIndex, 8> oracleProducers{};
    uint8_t oracleProducerCount = 0;

    // False-dependence probe (Table 3) ---------------------------------
    bool fdStallStarted = false;
    Tick fdStallStart = 0;
    bool fdEvaluated = false;
    bool fdIsFalse = false;
    Cycles fdLatency = 0;

    // Pipeline timeline (O3PipeView traces; see src/obs/pipeview.hh).
    // Maintained unconditionally — plain stores, cheaper than gating.
    Tick fetchedAt = 0;
    Tick dispatchedAt = 0;
    Tick completedAt = 0;
    /** Selective-recovery / AS re-executions of this instruction. */
    uint16_t timesReplayed = 0;
    /** The load waited on a SYNC-predicted producing store. */
    bool waitedSync = false;

    bool isLoad() const { return si.isLoad(); }
    bool isStore() const { return si.isStore(); }

    bool
    srcsReady() const
    {
        return src1.ready && src2.ready;
    }
};

} // namespace cwsim

#endif // CWSIM_CPU_DYN_INST_HH
