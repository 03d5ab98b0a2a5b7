/**
 * @file
 * The checked-simulation side of the processor: per-cycle invariant
 * checking (MachineConfig check.level), structured failure reporting
 * with the flight-recorder dump attached, and the fault-injection
 * points that storm the miss-speculation recovery machinery.
 */

#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "cpu/processor.hh"

namespace cwsim
{

std::string
Processor::machineStateDump() const
{
    size_t unissued_stores = 0;
    for (size_t i = 0; i < sb.size(); ++i)
        unissued_stores += !sb.at(i).executed;
    std::ostringstream os;
    os << strfmt("machine state @ cycle %llu: commits %llu, window "
                 "%zu/%u, SB %zu/%u, lsq %u/%u, fetchPc 0x%llx%s, "
                 "unissued stores %zu\n",
                 static_cast<unsigned long long>(cycle),
                 static_cast<unsigned long long>(commitCount),
                 rob.size(), cfg.core.windowSize, sb.size(),
                 cfg.core.storeBufferSize, lsqCount, cfg.core.lsqSize,
                 static_cast<unsigned long long>(fetchPc),
                 fetchStalledOnSeq ? " (stalled on indirect)" : "",
                 unissued_stores);
    size_t shown = std::min<size_t>(rob.size(), 4);
    for (size_t i = 0; i < shown; ++i) {
        const DynInst &inst = rob.at(i);
        os << strfmt("  rob[%zu]: seq %llu pc 0x%llx%s%s%s%s\n", i,
                     static_cast<unsigned long long>(inst.seq),
                     static_cast<unsigned long long>(inst.pc),
                     inst.isLoad() ? " load" : "",
                     inst.isStore() ? " store" : "",
                     inst.issued ? " issued" : "",
                     inst.done ? " done" : "");
    }
    return os.str();
}

void
Processor::checkFail(SimErrorKind kind, const std::string &what)
{
    throw SimError(kind, what, __FILE__, 0,
                   machineStateDump() + frec.dumpString());
}

// ---------------------------------------------------------------------
// Invariant checking.
// ---------------------------------------------------------------------

void
Processor::checkInvariants()
{
    // Level 1: O(1) occupancy bounds every cycle.
    if (rob.size() > cfg.core.windowSize) {
        checkFail(SimErrorKind::Invariant,
                  strfmt("window occupancy %zu exceeds %u", rob.size(),
                         cfg.core.windowSize));
    }
    if (lsqCount > cfg.core.lsqSize) {
        checkFail(SimErrorKind::Invariant,
                  strfmt("LSQ occupancy %u exceeds %u", lsqCount,
                         cfg.core.lsqSize));
    }
    if (sb.size() > cfg.core.storeBufferSize) {
        checkFail(SimErrorKind::Invariant,
                  strfmt("store buffer occupancy %zu exceeds %u",
                         sb.size(), cfg.core.storeBufferSize));
    }

    // Commit-slot conservation: every completed tick accounted exactly
    // commitWidth slots. At this point in tick() both counters reflect
    // the previous N ticks (this tick's accounting happens after the
    // check), so any pipeline path that advances the cycle count
    // without accounting trips here the very next cycle.
    uint64_t expect_slots =
        pstats.cycles.value() * uint64_t{cfg.core.commitWidth};
    if (cpi.totalSlots() != expect_slots ||
        cpi.cycles() != pstats.cycles.value()) {
        checkFail(SimErrorKind::Invariant,
                  strfmt("CPI-stack conservation broken: %llu slots / "
                         "%llu accounted cycles, expected %llu / %llu",
                         static_cast<unsigned long long>(
                             cpi.totalSlots()),
                         static_cast<unsigned long long>(cpi.cycles()),
                         static_cast<unsigned long long>(expect_slots),
                         static_cast<unsigned long long>(
                             pstats.cycles.value())));
    }

    if (checkLevel >= 2)
        heavyInvariants();
}

void
Processor::heavyInvariants()
{
    // Window entries in strict program order; memory population counted.
    unsigned mem_insts = 0;
    for (size_t i = 0; i < rob.size(); ++i) {
        const DynInst &inst = rob.at(i);
        if (i > 0 && inst.seq <= rob.at(i - 1).seq) {
            checkFail(SimErrorKind::Invariant,
                      strfmt("window order broken: seq %llu at pos %zu "
                             "after %llu",
                             static_cast<unsigned long long>(inst.seq),
                             i,
                             static_cast<unsigned long long>(
                                 rob.at(i - 1).seq)));
        }
        if (inst.si.isMem())
            ++mem_insts;
        if (inst.isLoad() && inst.memIssued &&
            inst.effAddr == invalid_addr) {
            checkFail(SimErrorKind::Invariant,
                      strfmt("issued load seq %llu has no address",
                             static_cast<unsigned long long>(
                                 inst.seq)));
        }
        if (inst.isStore()) {
            if (inst.sbSlot < 0 ||
                sb.slot(inst.sbSlot).seq != inst.seq) {
                checkFail(SimErrorKind::Invariant,
                          strfmt("store seq %llu lost its SB slot",
                                 static_cast<unsigned long long>(
                                     inst.seq)));
            }
        }
    }
    if (mem_insts != lsqCount) {
        checkFail(SimErrorKind::Invariant,
                  strfmt("lsqCount %u but window holds %u memory "
                         "instructions",
                         lsqCount, mem_insts));
    }

    // Store-buffer FIFO discipline: ages ascending, the committed
    // entries form a prefix, and only committed entries release.
    bool seen_uncommitted = false;
    for (size_t i = 0; i < sb.size(); ++i) {
        const SbEntry &entry = sb.at(i);
        if (i > 0 && entry.seq <= sb.at(i - 1).seq) {
            checkFail(SimErrorKind::Invariant,
                      strfmt("store buffer order broken at pos %zu",
                             i));
        }
        if (entry.committed && seen_uncommitted) {
            checkFail(SimErrorKind::Invariant,
                      "committed store behind an uncommitted one");
        }
        if (!entry.committed)
            seen_uncommitted = true;
        if ((entry.released || entry.releasing) && !entry.committed) {
            checkFail(SimErrorKind::Invariant,
                      strfmt("uncommitted store seq %llu releasing",
                             static_cast<unsigned long long>(
                                 entry.seq)));
        }
    }

    // Rename map: a busy architectural register's producer, when still
    // in flight, must actually write that register. (The producer may
    // legitimately have committed already — squash-undo can restore a
    // mapping to a retired instruction; operand capture falls back to
    // the architectural file in that case.)
    for (unsigned r = 0; r < num_arch_regs; ++r) {
        const RegMapEntry &rm = regMap[r];
        if (!rm.busy)
            continue;
        const DynInst *producer = findInst(rm.producer);
        if (producer &&
            (!producer->si.writesReg() || producer->si.rd != r)) {
            checkFail(SimErrorKind::Invariant,
                      strfmt("rename map for r%u names seq %llu which "
                             "does not write it",
                             r,
                             static_cast<unsigned long long>(
                                 rm.producer)));
        }
    }

    // MDPT synonym-table sanity; amortized, the table is large.
    if (usesMdpt && (cycle & 1023) == 0) {
        std::string complaint = mdpTable.sanityCheck();
        if (!complaint.empty()) {
            checkFail(SimErrorKind::Invariant,
                      "MDPT sanity: " + complaint);
        }
    }

    // The store buffer's orders, bitmaps and lists against a rebuild.
    {
        std::string complaint = sb.selfCheck(cycle);
        if (!complaint.empty()) {
            checkFail(SimErrorKind::Invariant,
                      "store buffer: " + complaint);
        }
    }

    // The ready set and the parked loads. Every bit belongs to a
    // pending instruction (resident, not done, not yet (mem)issued),
    // and a pending instruction outside the ready set either lacks an
    // operand its next action needs or is a parked load the gate
    // still refuses. A parked load waiting for an unposted address
    // must still have one ahead of it, or its wake has been missed.
    // The issued-load set holds exactly the memory-issued loads.
    size_t live_ready = 0;
    size_t live_parked = 0;
    size_t live_unposted = 0;
    size_t live_issued = 0;
    for (size_t i = 0; i < rob.size(); ++i) {
        const DynInst &inst = rob.at(i);
        size_t slot = rob.slotOf(inst);
        bool pending = !inst.done &&
                       !(inst.isLoad() ? inst.memIssued : inst.issued);
        bool ready = readyBits.test(slot);
        bool parked = parkedBits.test(slot);
        bool unposted = unpostedWaiters.test(slot);
        bool issued_load = issuedLoads.test(slot);
        live_ready += ready;
        live_parked += parked;
        live_unposted += unposted;
        live_issued += issued_load;
        auto fail = [&](const char *what) {
            checkFail(SimErrorKind::Invariant,
                      strfmt("issue set: seq %llu %s (done %d, issued %d, "
                             "memIssued %d, ready %d, parked %d)",
                             static_cast<unsigned long long>(inst.seq),
                             what, inst.done, inst.issued,
                             inst.memIssued, ready, parked));
        };
        if ((ready || parked) && !pending)
            fail("is not pending");
        if (ready && parked)
            fail("is both ready and parked");
        if (parked && !inst.isLoad())
            fail("is parked but not a load");
        if (unposted && (!parked || !sb.unpostedOlderThan(inst.seq)))
            fail("waits for an unposted address it does not need");
        if (issued_load != (inst.isLoad() && inst.memIssued))
            fail(issued_load ? "is in the issued-load set but is not "
                               "a memory-issued load"
                             : "is a memory-issued load outside the "
                               "issued-load set");
        if (pending && !ready && issueReady(inst)) {
            if (!parked)
                fail("could act but is neither ready nor parked");
            if (loadMayIssue(inst).block == GateBlock::None)
                fail("is parked but the gate would issue it");
        }
    }
    if (readyBits.count() != live_ready ||
        parkedBits.count() != live_parked ||
        unpostedWaiters.count() != live_unposted ||
        issuedLoads.count() != live_issued) {
        checkFail(SimErrorKind::Invariant,
                  strfmt("issue set holds bits on dead slots (ready "
                         "%zu/%zu, parked %zu/%zu, unposted %zu/%zu, "
                         "issued loads %zu/%zu)",
                         readyBits.count(), live_ready,
                         parkedBits.count(), live_parked,
                         unpostedWaiters.count(), live_unposted,
                         issuedLoads.count(), live_issued));
    }

    // Consumer lists: every in-flight consumer naming an in-flight
    // producer must appear on that producer's list (completeness), and
    // every valid list entry must actually consume the producer
    // (soundness up to lazy invalidation).
    for (size_t i = 0; i < rob.size(); ++i) {
        const DynInst &c = rob.at(i);
        for (const DynInst::Operand *op : {&c.src1, &c.src2}) {
            if (!op->hasProducer)
                continue;
            const DynInst *p = findInst(op->producer);
            if (!p)
                continue; // producer retired; list entry not required
            size_t pslot = rob.slotOf(*p);
            size_t cslot = rob.slotOf(c);
            bool found = false;
            for (const ConsumerRef &ref : consumers[pslot]) {
                if (ref.slot == cslot && ref.seq == c.seq) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                checkFail(SimErrorKind::Invariant,
                          strfmt("consumer seq %llu missing from "
                                 "producer seq %llu's wakeup list",
                                 static_cast<unsigned long long>(c.seq),
                                 static_cast<unsigned long long>(
                                     p->seq)));
            }
        }
    }
    for (size_t slot = 0; slot < consumers.size(); ++slot) {
        // Dead producers keep stale lists until slot reuse; their refs
        // must simply fail validation against the live window.
        for (const ConsumerRef &ref : consumers[slot]) {
            if (!rob.slotLive(ref.slot))
                continue;
            const DynInst &c = rob.slot(ref.slot);
            if (c.seq != ref.seq)
                continue; // stale ref, lazily compacted later
            if (!rob.slotLive(slot))
                continue;
            const DynInst &p = rob.slot(slot);
            bool consumes =
                (c.src1.hasProducer && c.src1.producer == p.seq) ||
                (c.src2.hasProducer && c.src2.producer == p.seq);
            if (!consumes) {
                checkFail(SimErrorKind::Invariant,
                          strfmt("wakeup list of seq %llu names seq "
                                 "%llu which does not consume it",
                                 static_cast<unsigned long long>(p.seq),
                                 static_cast<unsigned long long>(
                                     c.seq)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

void
Processor::injectSpuriousViolation(const SbEntry &entry)
{
    // Victim: the oldest issued load younger than the store, i.e. the
    // same instruction a real violation by this store would hit.
    DynInst *victim = nullptr;
    for (size_t i = 0; i < rob.size(); ++i) {
        DynInst &inst = rob.at(i);
        if (inst.seq > entry.seq && inst.isLoad() && inst.memIssued) {
            victim = &inst;
            break;
        }
    }
    if (!victim)
        return;

    ++pstats.injectedViolations;
    frec.record(cycle, check::EventKind::InjectedViolation, victim->seq,
                victim->pc, entry.pc);

    // Run the exact recovery path a real miss-speculation would take —
    // minus predictor training, so the induced storm cannot teach the
    // MDPT phantom dependences.
    if (cfg.mdp.recovery == RecoveryModel::Selective) {
        if (replayDependenceSlice(*victim))
            return;
        ++pstats.selectiveFallbacks;
        frec.record(cycle, check::EventKind::SelectiveFallback,
                    victim->seq, victim->pc);
    }
    Addr restart_pc = victim->pc;
    TraceIndex restart_idx = victim->traceIdx;
    squashYoungerThan(victim->seq - 1, restart_pc, restart_idx,
                      /*repair_bpred=*/true,
                      SquashCause::InjectedViolation);
}

void
Processor::executeHostFault(check::HostFault fault)
{
    // These faults deliberately take the process down (or wedge it);
    // the warn() line is the last breadcrumb a contained child leaves
    // on stderr before the --isolate parent classifies its demise.
    switch (fault) {
      case check::HostFault::None:
        return;
      case check::HostFault::Crash:
        warn("fault injector: host crash (abort) at cycle %llu",
             static_cast<unsigned long long>(cycle));
        std::abort();
      case check::HostFault::Hang: {
        warn("fault injector: host hang (infinite spin) at cycle %llu",
             static_cast<unsigned long long>(cycle));
        volatile uint64_t spin = 0;
        for (;;)
            spin = spin + 1;
      }
      case check::HostFault::Alloc: {
        warn("fault injector: host allocation storm at cycle %llu",
             static_cast<unsigned long long>(cycle));
        // Raw new[] (no value-init) with a sparse touch: the storm
        // must burn address space fast — RLIMIT_AS and the overcommit
        // heuristics care about mappings, and zero-filling them first
        // would let a wall-clock timeout win the race and misclassify
        // the fault — while still dirtying enough pages that the
        // kernel's OOM killer notices when no rlimit is set.
        std::vector<std::unique_ptr<char[]>> hoard;
        constexpr size_t chunk = 16u << 20;
        for (;;) {
            hoard.emplace_back(new char[chunk]);
            char *p = hoard.back().get();
            for (size_t off = 0; off < chunk; off += 1u << 20)
                p[off] = static_cast<char>(off);
        }
      }
    }
}

void
Processor::injectMdptFaults()
{
    if (faults.injectMdptDrop() &&
        mdpTable.dropRandomEntry(faults.random())) {
        ++pstats.injectedMdptFaults;
        frec.record(cycle, check::EventKind::InjectedMdptFault, 0, 0,
                    /*arg=*/0);
    }
    if (faults.injectMdptCorrupt() &&
        mdpTable.corruptRandomEntry(faults.random())) {
        ++pstats.injectedMdptFaults;
        frec.record(cycle, check::EventKind::InjectedMdptFault, 0, 0,
                    /*arg=*/1);
    }
}

} // namespace cwsim
