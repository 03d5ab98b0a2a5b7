/**
 * @file
 * The issue phase: oldest-first selection, the load scheduling gates
 * for every (LsqModel x SpecPolicy) combination, store address/data
 * posting, dependence-violation detection and recovery. This file is
 * the paper's mechanism-under-study.
 */

#include <algorithm>

#include "base/addr_range.hh"
#include "base/logging.hh"
#include "cpu/processor.hh"
#include "isa/exec_fn.hh"
#include "obs/trace.hh"

namespace cwsim
{

void
Processor::doIssue()
{
    unsigned slots = cfg.core.issueWidth;
    sb.expireVisibleAddrs(cycle);
    if (rob.empty())
        return;

    // Walk the ready set in age order instead of scanning every
    // window entry. The head cannot move during issue (commit already
    // ran this cycle), and every in-visit mutation — a squash clearing
    // bits, a selective replay or a wake setting bits — only touches
    // instructions younger than the one being visited, i.e. positions
    // the walk has not reached; nextInAge re-reads the words, so the
    // historical full-scan semantics are preserved exactly. An
    // instruction outside the set would do nothing if visited, so
    // skipping it leaves every issue decision unchanged.
    size_t head = rob.slotOf(rob.front());
    for (size_t s = readyBits.firstInAge(head);
         slots > 0 && s != SlotBitmap::npos;
         s = readyBits.nextInAge(s, head)) {
        ++issueVisitCount;
        tryIssue(rob.slot(s), slots);
    }
}

void
Processor::tryIssue(DynInst &inst, unsigned &slots)
{
    size_t slot = rob.slotOf(inst);

    if (inst.isStore()) {
        SbEntry &entry = sb.slot(inst.sbSlot);
        if (lsqModel == LsqModel::AS) {
            // Two-phase store: post the address as soon as the base
            // register is available, the data whenever it arrives.
            if (!entry.addrValid && inst.src1.ready &&
                lsqInPortsLeft > 0) {
                postStoreAddr(inst);
                --slots;
                --lsqInPortsLeft;
            }
            if (!inst.done && !entry.dataValid && inst.src2.ready)
                postStoreData(inst);
        } else {
            // Table 2 base model: stores wait for both data and
            // address operands before issuing.
            if (!inst.issued && inst.srcsReady() &&
                cycle >= inst.storeExecNotBefore &&
                lsqInPortsLeft > 0) {
                executeStoreNas(inst);
                --slots;
                --lsqInPortsLeft;
            }
        }
        if (!issueReady(inst))
            readyBits.clear(slot);
        return;
    }

    if (inst.isLoad()) {
        if (inst.memIssued || !inst.src1.ready) {
            readyBits.clear(slot);
            return;
        }
        // Recompute on every attempt: a port-blocked load can sit
        // with a cached address while selective recovery replaces
        // its base register value underneath it.
        inst.effAddr = exec::effectiveAddr(inst.si, inst.src1.value);
        GateVerdict gate = loadMayIssue(inst);
        if (gate.block != GateBlock::None) {
            // First-refusal accounting: noteFalseDepStall latches
            // fdStallStarted, so each of these fires once per load.
            if (gate.block == GateBlock::Barrier && !inst.fdStallStarted) {
                ++pstats.barrierHolds;
                if (__builtin_expect(dprof != nullptr, 0))
                    dprof->noteBarrierHold(inst.pc);
            }
            noteFalseDepStall(inst);
            park(inst, gate);
            return;
        }
        if (memPortsLeft == 0 || lsqInPortsLeft == 0)
            return;
        executeLoad(inst);
        if (inst.memIssued) {
            --slots;
            --memPortsLeft;
            --lsqInPortsLeft;
        }
        return;
    }

    // Plain computational / control instructions. Once issued they
    // complete through the event queue and need no further issue
    // attention; drop them from the ready set.
    if (inst.issued || !inst.srcsReady()) {
        readyBits.clear(slot);
        return;
    }
    unsigned fu = static_cast<unsigned>(inst.si.fuClass());
    if (fuUsed[fu] >= cfg.core.fuCopies)
        return;
    ++fuUsed[fu];
    --slots;

    inst.issued = true;
    inst.issuedAt = cycle;
    ++inst.epoch;
    readyBits.clear(slot);
    if (inst.si.writesReg()) {
        inst.result = exec::compute(inst.si, inst.src1.value,
                                    inst.src2.value, inst.pc);
    }
    InstSeqNum seq = inst.seq;
    uint32_t epoch = inst.epoch;
    eq.scheduleIn(inst.si.latency(), [this, seq, epoch]() {
        DynInst *p = findInst(seq);
        if (p && p->epoch == epoch && p->issued && !p->done)
            completeInst(*p);
    });
}

// ---------------------------------------------------------------------
// The ready set and parked loads.
// ---------------------------------------------------------------------

bool
Processor::issueReady(const DynInst &inst) const
{
    if (inst.done)
        return false;
    if (inst.isLoad())
        return !inst.memIssued && inst.src1.ready;
    if (inst.isStore() && lsqModel == LsqModel::AS) {
        const SbEntry &entry = sb.slot(inst.sbSlot);
        return (!entry.addrValid && inst.src1.ready) ||
               (!entry.dataValid && inst.src2.ready);
    }
    return !inst.issued && inst.srcsReady();
}

void
Processor::markReady(size_t slot)
{
    parkedBits.clear(slot);
    unpostedWaiters.clear(slot);
    readyBits.set(slot);
}

void
Processor::park(DynInst &inst, const GateVerdict &gate)
{
    size_t slot = rob.slotOf(inst);
    ConsumerRef ref{slot, inst.seq};
    if (gate.until != 0) {
        eq.schedule(gate.until,
                    [this, ref]() { wakeParked(ref.slot, ref.seq); });
    }
    if (gate.store)
        storeWaiters[sb.slotOf(*gate.store)].push_back(ref);
    else if (gate.until == 0)
        unpostedWaiters.set(slot);
    readyBits.clear(slot);
    parkedBits.set(slot);
}

void
Processor::wakeParked(size_t slot, InstSeqNum seq)
{
    // A ref goes stale when its load is squashed, or when another
    // event woke it first; a load that re-parked meanwhile is woken
    // early, re-gates and parks again.
    if (parkedBits.test(slot) && slotHolds(slot, seq))
        markReady(slot);
}

void
Processor::wakeStoreWaiters(const SbEntry &entry)
{
    std::vector<ConsumerRef> &list = storeWaiters[sb.slotOf(entry)];
    for (const ConsumerRef &ref : list)
        wakeParked(ref.slot, ref.seq);
    list.clear();
}

void
Processor::wakeUnpostedWaiters()
{
    // Oldest first, stopping at the first waiter an unposted store
    // still precedes: it precedes every younger waiter too.
    size_t head = rob.slotOf(rob.front());
    for (size_t s = unpostedWaiters.firstInAge(head);
         s != SlotBitmap::npos; s = unpostedWaiters.nextInAge(s, head)) {
        if (sb.unpostedOlderThan(rob.slot(s).seq))
            return;
        markReady(s);
    }
}

// ---------------------------------------------------------------------
// Load scheduling gates (the heart of the study).
// ---------------------------------------------------------------------

Processor::GateVerdict
Processor::loadMayIssue(const DynInst &inst) const
{
    // One gate for both LSQ models; they differ only in when a store's
    // address becomes visible (NAS: when the store executes; AS: once
    // its base register is ready, plus asLatency), and the store
    // buffer already answers in those terms. A refusal names the
    // event that can lift it, which park() turns into a wake. The
    // gate changes no state: tryIssue does the first-refusal
    // accounting, and classifyResidual asks it about a stalled head.
    bool hold_ambiguous = lsqModel == LsqModel::AS
        ? policy != SpecPolicy::Naive
        : policy == SpecPolicy::No ||
              (policy == SpecPolicy::Selective && inst.waitAllStores);
    if (const SbEntry *store = sb.blockingOlderStore(
            inst.effAddr, inst.memSize, inst.seq, cycle)) {
        // Known true dependence: an older store with a visible address
        // overlapping the load and no data yet (only AS stores post an
        // address ahead of their data) — the load always waits.
        return {GateBlock::TrueDep, store};
    }
    if (hold_ambiguous) {
        // NO, a SEL-predicted load, and every AS policy but NAV wait
        // until no older store's address is unknown: first for the
        // oldest unposted address, then for each posted one to become
        // visible, unless its store is released first.
        if (sb.unpostedOlderThan(inst.seq))
            return {GateBlock::Ambiguous};
        if (const SbEntry *store = sb.invisibleOlderThan(inst.seq, cycle))
            return {GateBlock::Ambiguous, store, store->addrVisibleAt};
    }
    if (lsqModel == LsqModel::NAS) {
        switch (policy) {
          case SpecPolicy::StoreBarrier:
            if (const SbEntry *barrier = sb.barrierOlderThan(inst.seq))
                return {GateBlock::Barrier, barrier};
            break;
          case SpecPolicy::SpecSync:
            return gateSync(inst);
          case SpecPolicy::Oracle:
            if (const SbEntry *producer = oracleProducerPending(inst))
                return {GateBlock::TrueDep, producer};
            break;
          default:
            break;
        }
    }
    return {};
}

Processor::GateVerdict
Processor::gateSync(const DynInst &inst) const
{
    if (!inst.hasSyncWait)
        return {};
    const SbEntry *store = sb.findSeq(inst.syncWaitStore);
    // A store that was squashed or has left the buffer does not block.
    if (!store || store->seq >= inst.seq)
        return {};
    // "A waiting load is free to issue one cycle after the store it
    // speculatively depends upon issues."
    if (!store->executed)
        return {GateBlock::Sync, store};
    if (cycle < store->executedAt + 1)
        return {GateBlock::Sync, nullptr, store->executedAt + 1};
    return {};
}

const SbEntry *
Processor::oracleProducerPending(const DynInst &load) const
{
    // EVERY producing store counts, not just the youngest: with
    // partial overlaps a load reads bytes from several stores, and
    // issuing after only one of them would forward stale bytes from
    // the ranges the others cover.
    for (unsigned i = 0; i < load.oracleProducerCount; ++i) {
        TraceIndex producer = load.oracleProducers[i];
        if (producer >= load.traceIdx) {
            // Wrong-path garbage mapping; never deadlock on it.
            continue;
        }
        if (producer < commitCount)
            continue; // the producing store already committed
        const SbEntry *entry = sb.findTraceIdx(producer);
        if (entry && !entry->executed)
            return entry;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Load execution.
// ---------------------------------------------------------------------

uint64_t
Processor::assembleLoadBytes(Addr addr, unsigned size,
                             InstSeqNum load_seq,
                             InstSeqNum *byte_sources) const
{
    // Per byte: the youngest older store with valid data covering it,
    // else architectural memory. When the caller passes
    // @p byte_sources (size elements), each byte's forwarding store
    // seq is recorded (0 = memory) — the violation checks test
    // staleness byte-wise against these.
    uint64_t value = 0;
    unsigned forwarded =
        sb.forward(addr, size, load_seq, value, byte_sources);
    for (unsigned i = 0; i < size; ++i) {
        if (forwarded >> i & 1)
            continue;
        value |= static_cast<uint64_t>(funcMem.read8(addr + i))
                 << (8 * i);
        if (byte_sources)
            byte_sources[i] = 0;
    }
    return value;
}

void
Processor::executeLoad(DynInst &inst)
{
    // Sample memory at access time: stores executing later than this
    // point are exactly the ones that can violate the load.
    InstSeqNum sources[8] = {};
    uint64_t raw = assembleLoadBytes(inst.effAddr, inst.memSize,
                                     inst.seq, sources);
    InstSeqNum source = 0;
    bool all_forwarded = true;
    for (unsigned i = 0; i < inst.memSize; ++i) {
        source = std::max(source, sources[i]);
        all_forwarded = all_forwarded && sources[i] != 0;
    }

    // Did the load execute with ambiguous older stores outstanding?
    inst.speculativeLoad = sb.ambiguousOlderThan(inst.seq, cycle);

    Cycles as_extra =
        lsqModel == LsqModel::AS ? cfg.mdp.asLatency : 0;
    InstSeqNum seq = inst.seq;
    uint32_t epoch = inst.epoch + 1;

    auto finish = [this, seq, epoch]() {
        DynInst *p = findInst(seq);
        if (p && p->epoch == epoch && p->memIssued && !p->done) {
            p->memDone = true;
            completeInst(*p);
        }
    };

    if (all_forwarded) {
        // Store-to-load forward: same latency as an L1 hit, no cache
        // bank consumed.
        ++pstats.loadsForwarded;
        eq.scheduleIn(cfg.mem.dcache.hitLatency + as_extra, finish);
    } else {
        bool accepted;
        if (as_extra == 0) {
            accepted = memSys.dataAccess(inst.effAddr, inst.memSize,
                                         false, finish);
        } else {
            accepted = memSys.dataAccess(
                inst.effAddr, inst.memSize, false,
                [this, finish, as_extra]() {
                    eq.scheduleIn(as_extra, finish);
                });
        }
        if (!accepted)
            return; // bank/MSHR conflict; retry next cycle
    }

    ++inst.epoch;
    inst.issued = true;
    inst.memIssued = true;
    inst.issuedAt = cycle;
    inst.loadRaw = raw;
    for (unsigned i = 0; i < inst.memSize; ++i)
        inst.loadByteSource[i] = sources[i];
    inst.result = exec::loadExtend(inst.si, raw);
    // Issued: completion arrives through the event queue; violation
    // checks reach the load through issuedLoads, not the issue walk.
    readyBits.clear(rob.slotOf(inst));
    issuedLoads.set(rob.slotOf(inst));
    CWSIM_TRACE(Issue, "load seq %llu pc 0x%llx addr 0x%llx%s%s%s",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                static_cast<unsigned long long>(inst.effAddr),
                all_forwarded ? " [forwarded]" : "",
                inst.speculativeLoad ? " [speculative]" : "",
                source ? strfmt(" [src-store seq %llu]",
                                static_cast<unsigned long long>(source))
                             .c_str()
                       : "");
    if (__builtin_expect(dprof != nullptr, 0))
        dprof->noteLoadExec(inst.pc, all_forwarded);
    finishFalseDepStall(inst);
}

void
Processor::replayLoad(DynInst &inst)
{
    unbroadcast(inst);
    issuedLoads.clear(rob.slotOf(inst));
    ++inst.epoch; // invalidate any in-flight completion
    inst.issued = false;
    inst.memIssued = false;
    inst.memDone = false;
    inst.done = false;
    markReady(rob.slotOf(inst));
    ++inst.timesReplayed;
    ++pstats.loadReplays;
    if (__builtin_expect(dprof != nullptr, 0))
        dprof->noteLoadReplay(inst.pc);
    CWSIM_TRACE(Recovery, "silent replay: load seq %llu pc 0x%llx "
                "(replay #%u)",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                unsigned{inst.timesReplayed});
    frec.record(cycle, check::EventKind::Replay, inst.seq, inst.pc);
}

// ---------------------------------------------------------------------
// Store execution / posting.
// ---------------------------------------------------------------------

void
Processor::executeStoreNas(DynInst &inst)
{
    size_t slot = static_cast<size_t>(inst.sbSlot);
    SbEntry &entry = sb.slot(slot);
    Addr addr = exec::effectiveAddr(inst.si, inst.src1.value);
    // Single-phase store: address immediately visible, data with it.
    sb.postAddr(slot, addr, cycle, cycle);
    wakeUnpostedWaiters();
    sb.postData(slot, exec::storeValue(inst.si, inst.src2.value));
    inst.effAddr = addr;
    CWSIM_TRACE(Issue, "store seq %llu pc 0x%llx addr 0x%llx",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                static_cast<unsigned long long>(entry.addr));
    storeBecameExecuted(inst, entry);
}

void
Processor::postStoreAddr(DynInst &inst)
{
    size_t slot = static_cast<size_t>(inst.sbSlot);
    SbEntry &entry = sb.slot(slot);
    Addr addr = exec::effectiveAddr(inst.si, inst.src1.value);
    Tick visible_at = cycle + cfg.mdp.asLatency;
    if (Cycles delay = faults.injectStoreAddrDelay()) {
        visible_at += delay;
        ++pstats.injectedAddrDelays;
        frec.record(cycle, check::EventKind::InjectedAddrDelay,
                    inst.seq, inst.pc, delay);
    }
    sb.postAddr(slot, addr, visible_at, cycle);
    wakeUnpostedWaiters();
    inst.effAddr = addr;
    CWSIM_TRACE(LSQ, "store addr posted: seq %llu pc 0x%llx "
                "addr 0x%llx visible at cycle %llu",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc),
                static_cast<unsigned long long>(entry.addr),
                static_cast<unsigned long long>(entry.addrVisibleAt));
    if (entry.dataValid)
        storeBecameExecuted(inst, entry);
}

void
Processor::postStoreData(DynInst &inst)
{
    size_t slot = static_cast<size_t>(inst.sbSlot);
    SbEntry &entry = sb.slot(slot);
    sb.postData(slot, exec::storeValue(inst.si, inst.src2.value));
    CWSIM_TRACE(LSQ, "store data posted: seq %llu pc 0x%llx",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc));
    if (entry.addrValid)
        storeBecameExecuted(inst, entry);
}

void
Processor::storeBecameExecuted(DynInst &inst, SbEntry &entry)
{
    sb.setExecuted(static_cast<size_t>(inst.sbSlot), cycle);
    inst.issued = true;
    inst.done = true;
    inst.issuedAt = cycle;
    readyBits.clear(rob.slotOf(inst));
    wakeStoreWaiters(entry);

    if (policy != SpecPolicy::Oracle) {
        // The oracle skips detection: gateOracle holds every load
        // until ALL of its byte-producing stores have executed (not
        // just the youngest — see OracleDeps::ProducerSet), so a
        // correct-path load can never forward a stale byte. Wrong-path
        // loads can, but a control squash discards them before they
        // commit, and flagging them here would charge the idealized
        // oracle with violations it never architecturally commits.
        checkViolations(inst);
    }

    // Fault injection rides AFTER real violation detection so a genuine
    // dependence can never be masked by an induced one.
    if (faults.injectSpuriousViolation())
        injectSpuriousViolation(entry);
}

// ---------------------------------------------------------------------
// Violation detection and recovery.
// ---------------------------------------------------------------------

void
Processor::trainPredictors(const DynInst &load, const SbEntry &store)
{
    CWSIM_TRACE(MDP, "train: load pc 0x%llx / store pc 0x%llx",
                static_cast<unsigned long long>(load.pc),
                static_cast<unsigned long long>(store.pc));
    switch (policy) {
      case SpecPolicy::SpecSync:
        mdpTable.pair(load.pc, store.pc);
        break;
      case SpecPolicy::Selective:
        mdpTable.recordMissSpeculation(load.pc);
        break;
      case SpecPolicy::StoreBarrier:
        mdpTable.recordMissSpeculation(store.pc);
        break;
      default:
        break;
    }
}

void
Processor::youngerLoadsReading(size_t from, Addr addr, unsigned size,
                                std::vector<ConsumerRef> &out) const
{
    out.clear();
    size_t head = rob.slotOf(rob.front());
    for (size_t s = issuedLoads.nextInAge(from, head);
         s != SlotBitmap::npos; s = issuedLoads.nextInAge(s, head)) {
        const DynInst &load = rob.slot(s);
        if (rangesOverlap(load.effAddr, load.memSize, addr, size))
            out.push_back(ConsumerRef{s, load.seq});
    }
}

void
Processor::checkViolations(const DynInst &store)
{
    // Every younger load that read a value this store should have
    // supplied, oldest first. One store can violate several
    // independent loads; a squash from the oldest victim wipes the
    // rest implicitly, but selective recovery must repair each one or
    // the younger victims keep their stale values forever (this store
    // never re-executes to re-check them).
    //
    // Candidates are the younger memory-issued loads reading any byte
    // this store writes, collected before any recovery runs; each is
    // re-validated at visit time because a recovery for an older
    // victim can reset or squash later ones. The byte-wise source
    // test catches loads that forwarded only part of their bytes from
    // a younger store.
    const SbEntry &entry = sb.slot(store.sbSlot);
    youngerLoadsReading(rob.slotOf(store), entry.addr, entry.size,
                        checkScratch);
    for (const ConsumerRef &ref : checkScratch) {
        if (!slotHolds(ref.slot, ref.seq))
            continue;
        DynInst &load = rob.slot(ref.slot);
        if (!load.memIssued)
            continue;
        if (!loadHasStaleByteFrom(load, entry))
            continue; // every shared byte came from a younger store

        if (lsqModel == LsqModel::AS) {
            // Section 3.4's remaining conditions: the load obtained a
            // different value than the store writes, and propagated
            // it. Until a consumer has used the stale value the load
            // silently re-executes.
            uint64_t correct = assembleLoadBytes(
                load.effAddr, load.memSize, load.seq, nullptr);
            if (correct == load.loadRaw)
                continue; // same value: speculation was harmless
            if (!anyConsumerIssued(load)) {
                replayLoad(load);
                continue;
            }
        }

        ++pstats.memOrderViolations;
        if (__builtin_expect(dprof != nullptr, 0)) {
            dprof->noteViolation(
                entry.pc, load.pc, load.seq - entry.seq,
                entry.addr <= load.effAddr &&
                    entry.addr + entry.size >=
                        load.effAddr + load.memSize);
        }
        CWSIM_TRACE(Recovery, "mem-order violation: load seq %llu "
                    "pc 0x%llx vs store seq %llu pc 0x%llx "
                    "addr 0x%llx",
                    static_cast<unsigned long long>(load.seq),
                    static_cast<unsigned long long>(load.pc),
                    static_cast<unsigned long long>(entry.seq),
                    static_cast<unsigned long long>(entry.pc),
                    static_cast<unsigned long long>(entry.addr));
        frec.record(cycle, check::EventKind::Violation, load.seq,
                    load.pc, entry.pc);
        trainPredictors(load, entry);

        // Selective recovery is a NAS mechanism; AS squashes.
        if (lsqModel == LsqModel::NAS &&
            cfg.mdp.recovery == RecoveryModel::Selective) {
            if (replayDependenceSlice(load)) {
                // Recovered without discarding unrelated work. Loads
                // in the replayed slice are memIssued=false now, so
                // the scan skips them and only genuinely independent
                // further victims are repaired.
                continue;
            }
            ++pstats.selectiveFallbacks;
            CWSIM_TRACE(Recovery, "selective recovery fell back to "
                        "squash: load seq %llu pc 0x%llx",
                        static_cast<unsigned long long>(load.seq),
                        static_cast<unsigned long long>(load.pc));
            frec.record(cycle, check::EventKind::SelectiveFallback,
                        load.seq, load.pc);
        }

        // Squash invalidation: re-fetch from the load itself. This
        // also disposes of any younger victims.
        Addr restart_pc = load.pc;
        TraceIndex restart_idx = load.traceIdx;
        squashYoungerThan(load.seq - 1, restart_pc, restart_idx,
                          /*repair_bpred=*/true,
                          SquashCause::MemOrderViolation);
        return;
    }
}

// ---------------------------------------------------------------------
// Selective invalidation (the Section 2 alternative to squashing).
// ---------------------------------------------------------------------

void
Processor::resetForReplay(DynInst &inst)
{
    if (inst.isLoad())
        issuedLoads.clear(rob.slotOf(inst));
    ++inst.epoch; // kill in-flight completion events
    inst.issued = false;
    inst.done = false;
    inst.memIssued = false;
    inst.memDone = false;
    inst.effAddr = invalid_addr;
    ++inst.timesReplayed;
    markReady(rob.slotOf(inst));

    if (inst.isStore() && inst.sbSlot >= 0) {
        SbEntry &entry = sb.slot(inst.sbSlot);
        panic_if(entry.seq != inst.seq, "replaying foreign SB entry");
        sb.invalidateForReplay(static_cast<size_t>(inst.sbSlot));
        // Un-posting can re-key a waiter: an AS/NAV load behind this
        // store's visible address may issue now.
        wakeStoreWaiters(entry);
    }
    if (inst.isLoad()) {
        inst.loadRaw = 0;
        inst.loadByteSource.fill(0);
        inst.speculativeLoad = false;
    }
}

bool
Processor::replayDependenceSlice(DynInst &victim)
{
    // Replay-storm guard: a load cycling through many re-executions is
    // cheaper to squash.
    if (victim.epoch > 60)
        return false;

    std::vector<InstSeqNum> work{victim.seq};
    std::set<InstSeqNum> slice;
    // Not checkScratch: checkViolations is iterating that while it
    // calls here.
    std::vector<ConsumerRef> readers;

    while (!work.empty()) {
        InstSeqNum seq = work.back();
        work.pop_back();
        if (slice.count(seq))
            continue;
        DynInst *inst = findInst(seq);
        if (!inst)
            continue;

        // A resolved control instruction that consumed bad data may
        // have steered fetch the wrong way; only a squash can repair
        // that.
        if (inst->si.isControl() && inst->issued)
            return false;

        slice.insert(seq);

        // Register consumers of this instruction's (stale) result,
        // straight off its consumer list. Unissued consumers recapture
        // from the re-broadcast; the ones that already acted on the
        // stale value (issued, or posted it into the store buffer)
        // must replay.
        for (const ConsumerRef &ref : consumers[rob.slotOf(*inst)]) {
            if (!slotHolds(ref.slot, ref.seq))
                continue;
            DynInst &c = rob.slot(ref.slot);
            bool consumes =
                (c.src1.hasProducer && c.src1.producer == seq) ||
                (c.src2.hasProducer && c.src2.producer == seq);
            if (consumes && consumerCapturedResult(c))
                work.push_back(c.seq);
        }

        // Loads that forwarded any byte from this (stale) store: the
        // younger issued loads reading the store's range, narrowed by
        // the per-byte source test, which catches partial forwards.
        if (inst->isStore() && inst->sbSlot >= 0) {
            const SbEntry &se = sb.slot(inst->sbSlot);
            if (se.addrValid && se.dataValid) {
                youngerLoadsReading(rob.slotOf(*inst), se.addr, se.size,
                                    readers);
                for (const ConsumerRef &ref : readers) {
                    if (loadForwardedFrom(rob.slot(ref.slot), seq))
                        work.push_back(ref.seq);
                }
            }
        }
    }

    // If half the window is tainted, a squash is no more expensive.
    if (slice.size() > rob.size() / 2)
        return false;

    for (InstSeqNum seq : slice) {
        DynInst *inst = findInst(seq);
        panic_if(!inst, "slice member vanished");
        // Un-ready everyone who captured the stale value (issued
        // capturers are themselves in the slice and will recapture
        // from the re-broadcast).
        unbroadcast(*inst);
        resetForReplay(*inst);
    }

    ++pstats.selectiveRecoveries;
    pstats.sliceSize.sample(static_cast<double>(slice.size()));
    CWSIM_TRACE(Recovery, "selective recovery: victim seq %llu "
                "pc 0x%llx, slice of %zu insts replayed",
                static_cast<unsigned long long>(victim.seq),
                static_cast<unsigned long long>(victim.pc),
                slice.size());
    frec.record(cycle, check::EventKind::SelectiveRecovery, victim.seq,
                victim.pc, slice.size());
    return true;
}

// ---------------------------------------------------------------------
// False-dependence probes (Table 3).
// ---------------------------------------------------------------------

void
Processor::noteFalseDepStall(DynInst &inst)
{
    if (inst.fdStallStarted)
        return;
    inst.fdStallStarted = true;
    inst.fdStallStart = cycle;

    // Classify using oracle knowledge: a stalled load with no in-flight
    // producing store is delayed by a false dependence.
    bool true_dep = oracleProducerPending(inst) != nullptr;
    inst.fdIsFalse = !true_dep;
    CWSIM_TRACE(LSQ, "load stalled by %s dependence: seq %llu "
                "pc 0x%llx",
                true_dep ? "a true" : "a false",
                static_cast<unsigned long long>(inst.seq),
                static_cast<unsigned long long>(inst.pc));
}

void
Processor::finishFalseDepStall(DynInst &inst)
{
    if (!inst.fdStallStarted || inst.fdEvaluated)
        return;
    inst.fdEvaluated = true;
    inst.fdLatency = cycle - inst.fdStallStart;
    pstats.loadIssueDelay.sample(static_cast<double>(inst.fdLatency));
}

} // namespace cwsim
