/**
 * @file
 * Processor construction, run loops, and the fetch / dispatch / commit
 * / squash machinery. The issue phase and the memory dependence
 * speculation engine live in processor_issue.cc.
 */

#include "cpu/processor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "isa/exec_fn.hh"
#include "obs/trace.hh"

namespace cwsim
{

const char *
toString(SquashCause cause)
{
    switch (cause) {
      case SquashCause::None: return "none";
      case SquashCause::BranchMispredict: return "branch-mispredict";
      case SquashCause::MemOrderViolation: return "mem-order";
      case SquashCause::InjectedViolation: return "injected";
      case SquashCause::Drain: return "drain";
    }
    return "?";
}

void
ProcStats::registerIn(stats::StatGroup &group)
{
    group.addScalar("cycles", &cycles, "elapsed machine cycles");
    group.addScalar("commits", &commits, "committed instructions");
    group.addScalar("committed_loads", &committedLoads);
    group.addScalar("committed_stores", &committedStores);
    group.addScalar("fetched_insts", &fetchedInsts);
    group.addScalar("squashed_insts", &squashedInsts);
    group.addScalar("branch_mispredicts", &branchMispredicts);
    group.addScalar("mem_order_violations", &memOrderViolations,
                    "memory dependence miss-speculations (squashes)");
    group.addScalar("load_replays", &loadReplays,
                    "silent AS re-executions (no consumer had issued)");
    group.addScalar("selective_recoveries", &selectiveRecoveries,
                    "violations recovered by slice re-execution");
    group.addScalar("selective_fallbacks", &selectiveFallbacks,
                    "selective recoveries that fell back to a squash");
    group.addAverage("slice_size", &sliceSize,
                     "instructions re-executed per selective recovery");
    group.addScalar("false_dep_loads", &falseDepLoads,
                    "committed loads delayed only by false dependences");
    group.addScalar("true_dep_stalled_loads", &trueDepStalledLoads);
    group.addScalar("sync_waits", &syncWaits);
    group.addScalar("sel_holds", &selHolds);
    group.addScalar("barrier_holds", &barrierHolds);
    group.addScalar("loads_forwarded", &loadsForwarded,
                    "loads served entirely from the store buffer");
    group.addAverage("false_dep_latency", &falseDepLatency,
                     "mean false-dependence resolution latency");
    group.addAverage("load_issue_delay", &loadIssueDelay);
    group.addDistribution("window_occupancy", &windowOccupancy,
                          "ROB entries in use, sampled per cycle");
    group.addScalar("injected_violations", &injectedViolations,
                    "fault injection: forced spurious miss-speculations");
    group.addScalar("injected_addr_delays", &injectedAddrDelays,
                    "fault injection: delayed store-address postings");
    group.addScalar("injected_mdpt_faults", &injectedMdptFaults,
                    "fault injection: dropped/corrupted MDPT entries");
}

Processor::Processor(const SimConfig &cfg, const Program &program,
                     const OracleDeps *oracle)
    : cfg(cfg), lsqModel(cfg.mdp.lsqModel), policy(cfg.mdp.policy),
      usesMdpt(policy == SpecPolicy::Selective ||
               policy == SpecPolicy::StoreBarrier ||
               policy == SpecPolicy::SpecSync),
      checkLevel(cfg.check.level),
      frec(checkLevel > 0 ? cfg.check.flightRecorderSize : 0),
      wdog(checkLevel > 0 ? cfg.check.watchdogInterval : 0),
      faults(cfg.check.faults), lastCommitSeq(0),
      memSys(cfg.mem, eq), bpred(cfg.bpred),
      decoder(funcMem, /*tolerate_invalid=*/true), mdpTable(cfg.mdp),
      oracle(oracle), rob(cfg.core.windowSize),
      sb(cfg.core.storeBufferSize), lsqCount(0),
      readyBits(cfg.core.windowSize), parkedBits(cfg.core.windowSize),
      unpostedWaiters(cfg.core.windowSize),
      storeWaiters(cfg.core.storeBufferSize),
      issuedLoads(cfg.core.windowSize),
      consumers(cfg.core.windowSize), fetchPc(0),
      fetchHalted(false), fetchStalledOnSeq(0), memPortsLeft(0),
      lsqInPortsLeft(0), cycle(0), nextSeq(1), nextFetchTraceIdx(0),
      commitCount(0), haltedFlag(false), lastMdptReset(0),
      refetchCause(SquashCause::None),
      statGroup("proc"), cpi(cfg.core.commitWidth),
      pipe(obs::TraceManager::instance().pipeView())
{
    fatal_if(policy == SpecPolicy::Oracle && !oracle,
             "NAS/ORACLE requires pre-pass dependence information");
    fuUsed.fill(0);

    program.loadInto(funcMem);
    archRegs.pc = program.entry();
    fetchPc = program.entry();

    pstats.windowOccupancy.init(0, cfg.core.windowSize + 1, 16);
    pstats.registerIn(statGroup);
    cpi.registerIn(statGroup);
    memSys.registerStats(statGroup);
    bpred.registerStats(statGroup);

    obs::TraceManager &tm = obs::TraceManager::instance();
    if (tm.intervalPeriod() > 0) {
        std::string label = obs::runLabel().empty()
            ? cfg.name()
            : obs::runLabel();
        sampler = std::make_unique<obs::IntervalSampler>(
            tm.intervalPath(), tm.intervalPeriod(), label);
        if (!sampler->valid())
            sampler.reset();
    }

    if (obs::DepProfManager::instance().active()) {
        std::string label = obs::runLabel().empty()
            ? cfg.name()
            : obs::runLabel();
        dprof = std::make_unique<obs::DepProfile>("proc", label,
                                                  &statGroup);
        mdpTable.setProfile(dprof.get());
    }
}

Processor::~Processor()
{
    finishIntervalSampling();
    finishDepProfile();
}

void
Processor::run()
{
    while (!haltedFlag && cycle < cfg.maxCycles &&
           !(cfg.maxInsts && pstats.commits.value() >= cfg.maxInsts)) {
        tick();
    }
    // Flush the sampler's trailing partial interval now rather than at
    // destruction, so callers reading the interval file right after
    // run() see the complete time series. Same for the dependence
    // profile: the harness harvests it right after run() returns.
    finishIntervalSampling();
    finishDepProfile();
}

uint64_t
Processor::runTiming(uint64_t max_commits)
{
    uint64_t start = pstats.commits.value();
    while (!haltedFlag && cycle < cfg.maxCycles &&
           pstats.commits.value() - start < max_commits) {
        tick();
    }
    // Drain: discard all speculative state so a functional phase (or
    // the caller) sees a clean architectural boundary.
    if (!rob.empty() || !fetchQueue.empty()) {
        squashYoungerThan(0, archRegs.pc, commitCount,
                          /*repair_bpred=*/false, SquashCause::Drain);
    }
    // The drain takes the time its in-flight work needs: the core
    // clock catches up with the event clock, so the next phase's
    // latencies count from the cycle they are scheduled in.
    // pstats.cycles (and so IPC) still counts only ticked cycles.
    eq.drain();
    cycle = std::max(cycle, eq.curTick());
    // Committed stores already updated architectural memory at commit;
    // force-retire their buffer entries so a functional phase starts
    // from an empty machine.
    while (!sb.empty()) {
        panic_if(!sb.front().committed,
                 "uncommitted store survived the drain squash");
        sb.popFront();
    }
    return pstats.commits.value() - start;
}

uint64_t
Processor::fastForward(uint64_t n)
{
    panic_if(!rob.empty() || !fetchQueue.empty(),
             "fastForward with a non-drained pipeline");

    Executor ex(funcMem, archRegs.pc);
    ex.state() = archRegs;
    ex.state().halted = false;

    Addr last_iblock = invalid_addr;
    unsigned iblock_size = memSys.icacheBlock();

    uint64_t steps = 0;
    while (steps < n && !ex.halted()) {
        StepInfo info = ex.step();
        ++steps;

        Addr block = info.pc & ~Addr(iblock_size - 1);
        if (block != last_iblock) {
            memSys.warmInst(block);
            last_iblock = block;
        }
        if (info.isLoad || info.isStore)
            memSys.warmData(info.memAddr, info.isStore);
        if (info.inst.isControl()) {
            bpred.warmUpdate(info.inst, info.pc, info.taken,
                             info.nextPc);
        }
    }

    archRegs = ex.state();
    commitCount += steps;
    nextFetchTraceIdx = commitCount;
    fetchPc = archRegs.pc;
    if (ex.halted())
        haltedFlag = true;
    return steps;
}

void
Processor::tick()
{
    // Refresh the thread-local trace timestamp so cycle-less components
    // (MdpTable) stamp their lines correctly; skipped entirely when
    // tracing is off.
    if (obs::tracingActive())
        obs::setTraceCycle(cycle);

    eq.runUntil(cycle);
    if (haltedFlag)
        return;

    memPortsLeft = cfg.core.memPorts;
    lsqInPortsLeft = cfg.core.lsqInputPorts;
    fuUsed.fill(0);
    pstats.windowOccupancy.sample(static_cast<double>(rob.size()));

    uint64_t commitsBefore = pstats.commits.value();
    doCommit();
    if (!haltedFlag) {
        releaseStores();
        doIssue();
        doDispatch();
        doFetch();
    }

    if (usesMdpt && faults.enabled())
        injectMdptFaults();
    if (faults.enabled())
        executeHostFault(faults.drawHostFault());

    if (checkLevel > 0) {
        checkInvariants();
        if (!haltedFlag && wdog.expired(cycle)) {
            frec.record(cycle, check::EventKind::WatchdogTrip, 0, 0,
                        wdog.lastProgressAt());
            checkFail(SimErrorKind::Watchdog,
                      strfmt("no commit in %llu cycles (last progress "
                             "at cycle %llu): pipeline livelock",
                             static_cast<unsigned long long>(
                                 wdog.tripInterval()),
                             static_cast<unsigned long long>(
                                 wdog.lastProgressAt())));
        }
    }

    // Commit-slot accounting: every one of this cycle's commitWidth
    // slots is attributed exactly once — k committed, the rest blamed
    // on why the window head could not commit. O(1) per cycle; the
    // residual cause is computed only on non-full cycles. Placed after
    // checkInvariants() so the level-1 conservation check always sees
    // a consistent (cycles, slots) pair.
    unsigned committed =
        static_cast<unsigned>(pstats.commits.value() - commitsBefore);
    cpi.account(committed,
                committed < cfg.core.commitWidth ? classifyResidual()
                                                 : obs::CpiCause::Committed);

    ++cycle;
    ++pstats.cycles;

    if (sampler && sampler->due(cycle))
        emitIntervalSample();

    if (usesMdpt && cycle - lastMdptReset >= cfg.mdp.resetInterval) {
        // Sample occupancy/confidence at the reset boundary — the one
        // moment the predictor's learned state is fully mature — before
        // the flush erases it.
        if (__builtin_expect(dprof != nullptr, 0)) {
            dprof->noteMdptSample(cycle, mdpTable.validEntries(),
                                  mdpTable.meanConfidence());
        }
        mdpTable.reset();
        lastMdptReset = cycle;
    }
}

// ---------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------

void
Processor::doCommit()
{
    unsigned budget = cfg.core.commitWidth;
    while (budget > 0 && !rob.empty()) {
        DynInst &head = rob.front();
        if (!head.done)
            break;

        if (checkLevel > 0) {
            if (head.seq <= lastCommitSeq) {
                checkFail(SimErrorKind::Invariant,
                          strfmt("out-of-order commit: seq %llu after "
                                 "%llu",
                                 static_cast<unsigned long long>(
                                     head.seq),
                                 static_cast<unsigned long long>(
                                     lastCommitSeq)));
            }
            lastCommitSeq = head.seq;
            frec.record(cycle, check::EventKind::Retire, head.seq,
                        head.pc);
            wdog.progress(cycle);
        }

        if (head.si.isHalt()) {
            haltedFlag = true;
            ++commitCount;
            ++pstats.commits;
            CWSIM_TRACE(Commit, "commit seq %llu pc 0x%llx halt",
                        static_cast<unsigned long long>(head.seq),
                        static_cast<unsigned long long>(head.pc));
            if (pipe)
                emitPipeRecord(head, SquashCause::None);
            rob.popFront();
            return;
        }

        if (head.si.writesReg())
            archRegs.writeReg(head.si.rd, head.result);

        if (head.isStore()) {
            SbEntry &entry = sb.slot(head.sbSlot);
            panic_if(entry.seq != head.seq, "store buffer slot mismatch");
            entry.committed = true;
            // Architectural memory is updated at commit; the release
            // queue models the D-cache write timing afterwards.
            funcMem.write(entry.addr, entry.size, entry.data);
            ++pstats.committedStores;
            if (__builtin_expect(dprof != nullptr, 0))
                dprof->noteStoreCommit(head.pc);
        }
        if (head.isLoad()) {
            issuedLoads.clear(rob.slotOf(head));
            ++pstats.committedLoads;
            if (head.fdEvaluated) {
                if (head.fdIsFalse) {
                    ++pstats.falseDepLoads;
                    pstats.falseDepLatency.sample(
                        static_cast<double>(head.fdLatency));
                } else {
                    ++pstats.trueDepStalledLoads;
                }
            }
            if (__builtin_expect(dprof != nullptr, 0)) {
                dprof->noteLoadCommit(head.pc);
                if (head.fdEvaluated) {
                    if (head.fdIsFalse)
                        dprof->noteFalseDep(head.pc, head.fdLatency);
                    else
                        dprof->noteTrueDep(head.pc);
                }
            }
        }

        if (head.si.isControl()) {
            bpred.update(head.si, head.pc, head.actualTaken,
                         head.actualTarget, head.checkpoint.globalHist);
            archRegs.pc =
                head.actualTaken ? head.actualTarget : head.pc + 4;
        } else {
            archRegs.pc = head.pc + 4;
        }

        if (head.si.writesReg()) {
            RegMapEntry &rm = regMap[head.si.rd];
            if (rm.busy && rm.producer == head.seq)
                rm.busy = false;
        }

        if (head.si.isMem())
            --lsqCount;

        CWSIM_TRACE(Commit, "commit seq %llu pc 0x%llx %s",
                    static_cast<unsigned long long>(head.seq),
                    static_cast<unsigned long long>(head.pc),
                    head.si.disassemble().c_str());
        if (pipe)
            emitPipeRecord(head, SquashCause::None);

        rob.popFront();
        ++commitCount;
        ++pstats.commits;
        --budget;
    }
}

void
Processor::releaseStores()
{
    for (size_t i = 0; i < sb.size(); ++i) {
        SbEntry &entry = sb.at(i);
        if (!entry.committed)
            break;
        if (entry.released || entry.releasing)
            continue;
        if (memPortsLeft == 0)
            break;
        InstSeqNum seq = entry.seq;
        bool accepted = memSys.dataAccess(
            entry.addr, entry.size, true, [this, seq]() {
                if (SbEntry *e = sb.findSeq(seq)) {
                    e->releasing = false;
                    e->released = true;
                    // Released before its address became visible: a
                    // load held by that address may go.
                    wakeStoreWaiters(*e);
                }
            });
        if (!accepted)
            break; // bank conflict; retry next cycle
        entry.releasing = true;
        --memPortsLeft;
    }
    while (!sb.empty() && sb.front().released)
        sb.popFront();
}

// ---------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------

void
Processor::registerConsumer(const DynInst &producer,
                            const DynInst &consumer)
{
    std::vector<ConsumerRef> &list = consumers[rob.slotOf(producer)];
    size_t cslot = rob.slotOf(consumer);
    // src1 and src2 of one instruction register back to back; one ref
    // per consumer is enough (broadcast checks both operands).
    if (!list.empty() && list.back().slot == cslot &&
        list.back().seq == consumer.seq) {
        return;
    }
    list.push_back(ConsumerRef{cslot, consumer.seq});
}

void
Processor::captureOperand(DynInst &inst, DynInst::Operand &op,
                          RegId reg)
{
    op.reg = reg;
    if (reg == reg_invalid || reg == reg_zero) {
        op.ready = true;
        op.value = 0;
        return;
    }
    const RegMapEntry &rm = regMap[reg];
    if (!rm.busy) {
        op.ready = true;
        op.value = archRegs.readReg(reg);
        return;
    }
    op.producer = rm.producer;
    op.hasProducer = true;
    DynInst *producer = findInst(rm.producer);
    if (!producer) {
        // Producer committed between renaming and now (can happen after
        // squash-undo restored an already-retired producer).
        op.ready = true;
        op.value = archRegs.readReg(reg);
        return;
    }
    // Even a done producer registers the consumer: a selective replay
    // can un-complete it later and must be able to recall the value.
    registerConsumer(*producer, inst);
    if (producer->done) {
        op.ready = true;
        op.value = producer->result;
    } else {
        op.ready = false;
    }
}

void
Processor::renameDest(DynInst &inst)
{
    if (!inst.si.writesReg())
        return;
    RegMapEntry &rm = regMap[inst.si.rd];
    inst.renamedDest = true;
    inst.prevDestBusy = rm.busy;
    inst.prevDestProducer = rm.producer;
    rm.busy = true;
    rm.producer = inst.seq;
}

void
Processor::doDispatch()
{
    unsigned budget = cfg.core.issueWidth;
    while (budget > 0 && !fetchQueue.empty()) {
        FetchedInst &fi = fetchQueue.front();
        if (fi.readyAt > cycle)
            break;
        if (rob.full())
            break;
        if (fi.si.isMem() && lsqCount >= cfg.core.lsqSize)
            break;
        if (fi.si.isStore() && sb.full())
            break;

        size_t rob_slot = rob.pushBack(DynInst{});
        consumers[rob_slot].clear();
        DynInst &inst = rob.back();
        inst.seq = fi.seq;
        inst.traceIdx = fi.traceIdx;
        inst.pc = fi.pc;
        inst.si = fi.si;
        inst.fetchedAt = fi.fetchedAt;
        inst.dispatchedAt = cycle;
        inst.predTaken = fi.predTaken;
        inst.predTarget = fi.predTarget;
        inst.predTargetKnown = fi.predTargetKnown;
        inst.hasCheckpoint = fi.hasCheckpoint;
        inst.checkpoint = fi.checkpoint;
        inst.memSize = fi.si.memSize();

        captureOperand(inst, inst.src1, fi.si.rs1);
        captureOperand(inst, inst.src2, fi.si.rs2);
        renameDest(inst);

        if (inst.si.isHalt())
            inst.done = true;

        if (inst.isStore()) {
            SbEntry entry;
            entry.seq = inst.seq;
            entry.traceIdx = inst.traceIdx;
            entry.pc = inst.pc;
            entry.size = inst.memSize;
            entry.barrier = policy == SpecPolicy::StoreBarrier &&
                            mdpTable.predictsDependence(inst.pc);
            if (policy == SpecPolicy::SpecSync)
                entry.producerSynonym = mdpTable.synonymOf(inst.pc);
            inst.sbSlot = static_cast<int>(sb.allocate(entry));
            storeWaiters[inst.sbSlot].clear();

            // Fault injection: AS delays address posting directly in
            // postStoreAddr; for single-phase NAS stores the closest
            // equivalent is holding back the whole execution, which
            // widens every younger load's speculation window.
            if (lsqModel == LsqModel::NAS) {
                if (Cycles delay = faults.injectStoreAddrDelay()) {
                    inst.storeExecNotBefore = cycle + delay;
                    ++pstats.injectedAddrDelays;
                    frec.record(cycle,
                                check::EventKind::InjectedAddrDelay,
                                inst.seq, inst.pc, delay);
                }
            }

            if (entry.barrier) {
                if (__builtin_expect(dprof != nullptr, 0))
                    dprof->noteStoreBarrier(inst.pc);
                CWSIM_TRACE(MDP, "STORE predicts dependence: store seq "
                            "%llu pc 0x%llx becomes a barrier",
                            static_cast<unsigned long long>(inst.seq),
                            static_cast<unsigned long long>(inst.pc));
            }
        }

        if (inst.isLoad()) {
            if (policy == SpecPolicy::Selective &&
                mdpTable.predictsDependence(inst.pc)) {
                inst.waitAllStores = true;
                ++pstats.selHolds;
                if (__builtin_expect(dprof != nullptr, 0))
                    dprof->noteSelHold(inst.pc);
                CWSIM_TRACE(MDP, "SEL predicts dependence: load seq "
                            "%llu pc 0x%llx waits for all older stores",
                            static_cast<unsigned long long>(inst.seq),
                            static_cast<unsigned long long>(inst.pc));
            }
            if (policy == SpecPolicy::SpecSync) {
                Synonym syn = mdpTable.synonymOf(inst.pc);
                if (syn != invalid_synonym) {
                    // Closest preceding store producing this synonym.
                    const SbEntry *e =
                        sb.youngestSynonymProducerBefore(syn, inst.seq);
                    if (e) {
                        inst.hasSyncWait = true;
                        inst.waitedSync = true;
                        inst.syncWaitStore = e->seq;
                        ++pstats.syncWaits;
                        if (__builtin_expect(dprof != nullptr, 0)) {
                            dprof->noteSyncWait(inst.pc, e->pc,
                                                inst.seq - e->seq);
                        }
                        CWSIM_TRACE(MDP, "SYNC: load seq %llu pc "
                                    "0x%llx synchronizes on store "
                                    "seq %llu (synonym %u)",
                                    static_cast<unsigned long long>(
                                        inst.seq),
                                    static_cast<unsigned long long>(
                                        inst.pc),
                                    static_cast<unsigned long long>(
                                        e->seq),
                                    static_cast<unsigned>(syn));
                    }
                }
            }
            if (oracle) {
                const auto *set = oracle->producersOf(inst.traceIdx);
                if (set) {
                    inst.oracleProducers = set->stores;
                    inst.oracleProducerCount = set->count;
                }
            }
        }

        if (inst.si.isMem())
            ++lsqCount;
        if (issueReady(inst))
            readyBits.set(rob_slot);

        fetchQueue.pop_front();
        --budget;
        // The front end has caught up with the last squash's refetch;
        // subsequent empty-window cycles are ordinary front-end lag.
        refetchCause = SquashCause::None;
    }
}

// ---------------------------------------------------------------------
// Fetch.
// ---------------------------------------------------------------------

void
Processor::doFetch()
{
    if (fetchHalted || fetchStalledOnSeq != 0)
        return;

    const size_t fetch_queue_cap = 4 * cfg.core.fetchWidth;
    unsigned iblock = memSys.icacheBlock();
    auto block_of = [iblock](Addr pc) { return pc & ~Addr(iblock - 1); };

    auto request_block = [this](Addr block) {
        if (pendingIBlocks.count(block))
            return;
        if (pendingIBlocks.size() >= cfg.core.maxFetchRequests)
            return;
        bool accepted = memSys.instAccess(
            block, [this, block]() { pendingIBlocks.erase(block); });
        if (accepted)
            pendingIBlocks.insert(block);
    };

    unsigned insts = 0;
    unsigned blocks = 1;
    unsigned preds = 0;

    Addr cur_block = block_of(fetchPc);
    if (!memSys.l1i().isResident(cur_block)) {
        request_block(cur_block);
        return;
    }
    // Next-line prefetch (Table 2 allows 4 in-flight fetch requests).
    Addr next_block = cur_block + iblock;
    if (!memSys.l1i().isResident(next_block))
        request_block(next_block);

    while (insts < cfg.core.fetchWidth &&
           fetchQueue.size() < fetch_queue_cap) {
        if (block_of(fetchPc) != cur_block) {
            ++blocks;
            if (blocks > cfg.core.fetchMaxBlocks)
                break;
            cur_block = block_of(fetchPc);
            if (!memSys.l1i().isResident(cur_block)) {
                request_block(cur_block);
                break;
            }
        }

        const StaticInst &si = decoder.lookup(fetchPc);

        FetchedInst fi;
        fi.seq = nextSeq++;
        fi.traceIdx = nextFetchTraceIdx++;
        fi.pc = fetchPc;
        fi.si = si;
        fi.readyAt = cycle + cfg.core.fetchToDispatch;
        fi.fetchedAt = cycle;
        CWSIM_TRACE(Fetch, "fetch seq %llu pc 0x%llx %s",
                    static_cast<unsigned long long>(fi.seq),
                    static_cast<unsigned long long>(fi.pc),
                    si.disassemble().c_str());

        if (si.isHalt()) {
            fetchQueue.push_back(fi);
            ++pstats.fetchedInsts;
            fetchHalted = true;
            break;
        }

        if (si.isControl()) {
            if (preds >= cfg.bpred.predictionsPerCycle)
                break;
            ++preds;
            auto pred = bpred.predict(si, fetchPc);
            fi.predTaken = pred.taken;
            fi.predTarget = pred.target;
            fi.predTargetKnown = pred.targetKnown;
            fi.hasCheckpoint = true;
            fi.checkpoint = pred.checkpoint;
            fetchQueue.push_back(fi);
            ++pstats.fetchedInsts;
            ++insts;

            if (pred.taken && pred.targetKnown) {
                fetchPc = pred.target;
            } else if (pred.taken && !pred.targetKnown) {
                // Indirect target unknown: stall until it executes.
                fetchStalledOnSeq = fi.seq;
                break;
            } else {
                fetchPc += 4;
            }
            continue;
        }

        fetchQueue.push_back(fi);
        ++pstats.fetchedInsts;
        ++insts;
        fetchPc += 4;
    }
}

void
Processor::resumeFetch(Addr target)
{
    fetchPc = target;
    fetchStalledOnSeq = 0;
}

// ---------------------------------------------------------------------
// Completion, resolution, squash.
// ---------------------------------------------------------------------

DynInst *
Processor::findInst(InstSeqNum seq)
{
    // Window entries are sorted by sequence number, but squashes leave
    // gaps, so binary-search by position.
    size_t lo = 0;
    size_t hi = rob.size();
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        DynInst &inst = rob.at(mid);
        if (inst.seq == seq)
            return &inst;
        if (inst.seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return nullptr;
}

bool
Processor::loadHasStaleByteFrom(const DynInst &load,
                                const SbEntry &entry) const
{
    for (unsigned i = 0; i < load.memSize; ++i) {
        if (entry.coversByte(load.effAddr + i) &&
            load.loadByteSource[i] < entry.seq) {
            return true;
        }
    }
    return false;
}

bool
Processor::loadForwardedFrom(const DynInst &load,
                             InstSeqNum store_seq) const
{
    for (unsigned i = 0; i < load.memSize; ++i) {
        if (load.loadByteSource[i] == store_seq)
            return true;
    }
    return false;
}

void
Processor::broadcastResult(const DynInst &producer)
{
    // Walk the producer's consumer list instead of the whole window.
    // Refs to squashed consumers (dead slot, or a reused slot holding
    // a different seq) are compacted away as they are found.
    std::vector<ConsumerRef> &list = consumers[rob.slotOf(producer)];
    size_t keep = 0;
    for (size_t i = 0; i < list.size(); ++i) {
        const ConsumerRef ref = list[i];
        if (!slotHolds(ref.slot, ref.seq))
            continue;
        list[keep++] = ref;
        DynInst &inst = rob.slot(ref.slot);
        bool arrived = false;
        if (inst.src1.hasProducer && !inst.src1.ready &&
            inst.src1.producer == producer.seq) {
            inst.src1.ready = true;
            inst.src1.value = producer.result;
            arrived = true;
        }
        if (inst.src2.hasProducer && !inst.src2.ready &&
            inst.src2.producer == producer.seq) {
            inst.src2.ready = true;
            inst.src2.value = producer.result;
            arrived = true;
        }
        // An arrival can make the consumer ready; a parked load whose
        // base register was recalled re-gates with its new address.
        if (arrived && issueReady(inst))
            markReady(ref.slot);
    }
    list.resize(keep);
}

void
Processor::unbroadcast(const DynInst &producer)
{
    std::vector<ConsumerRef> &list = consumers[rob.slotOf(producer)];
    size_t keep = 0;
    for (size_t i = 0; i < list.size(); ++i) {
        const ConsumerRef ref = list[i];
        if (!slotHolds(ref.slot, ref.seq))
            continue;
        list[keep++] = ref;
        DynInst &inst = rob.slot(ref.slot);
        if (inst.src1.hasProducer &&
            inst.src1.producer == producer.seq) {
            inst.src1.ready = false;
            // A load may have address-generated from the stale value
            // while blocked on a port; the cached address is wrong
            // once the operand is recalled.
            if (inst.isLoad() && !inst.memIssued)
                inst.effAddr = invalid_addr;
        }
        if (inst.src2.hasProducer && inst.src2.producer == producer.seq)
            inst.src2.ready = false;
    }
    list.resize(keep);
}

bool
Processor::consumerCapturedResult(const DynInst &inst) const
{
    // Has this instruction acted on its captured operand values in a
    // way that outlives the operands themselves? Issued instructions
    // obviously have; so has a two-phase store that posted its (stale)
    // address or data to the store buffer without fully executing.
    if (inst.issued || inst.memIssued)
        return true;
    if (inst.isStore() && inst.sbSlot >= 0) {
        const SbEntry &entry = sb.slot(inst.sbSlot);
        return entry.addrValid || entry.dataValid;
    }
    return false;
}

bool
Processor::anyConsumerIssued(const DynInst &producer) const
{
    const std::vector<ConsumerRef> &list =
        consumers[rob.slotOf(producer)];
    for (const ConsumerRef &ref : list) {
        if (!slotHolds(ref.slot, ref.seq))
            continue;
        const DynInst &inst = rob.slot(ref.slot);
        bool consumes =
            (inst.src1.hasProducer &&
             inst.src1.producer == producer.seq) ||
            (inst.src2.hasProducer && inst.src2.producer == producer.seq);
        if (consumes && consumerCapturedResult(inst))
            return true;
    }
    return false;
}

void
Processor::completeInst(DynInst &inst)
{
    inst.done = true;
    inst.completedAt = cycle;
    readyBits.clear(rob.slotOf(inst));
    if (inst.si.writesReg())
        broadcastResult(inst);
    if (inst.si.isControl()) {
        resolveControl(inst);
    } else if (fetchStalledOnSeq == inst.seq) {
        // Defensive: only control instructions stall fetch.
        fetchStalledOnSeq = 0;
    }
}

void
Processor::resolveControl(DynInst &inst)
{
    if (inst.si.isBranch()) {
        inst.actualTaken =
            exec::branchTaken(inst.si.op, inst.src1.value,
                              inst.src2.value);
        inst.actualTarget = branchTarget(inst.si, inst.pc);
    } else {
        inst.actualTaken = true;
        inst.actualTarget = inst.si.isIndirect()
            ? static_cast<Addr>(static_cast<uint32_t>(inst.src1.value))
            : branchTarget(inst.si, inst.pc);
    }

    bool mispredict;
    if (inst.si.isBranch()) {
        mispredict = inst.predTaken != inst.actualTaken ||
                     (inst.actualTaken &&
                      inst.predTarget != inst.actualTarget);
    } else if (inst.predTargetKnown) {
        mispredict = inst.predTarget != inst.actualTarget;
    } else {
        mispredict = false; // fetch stalled; nothing fetched after it
    }

    Addr next_pc = inst.actualTaken ? inst.actualTarget : inst.pc + 4;

    if (mispredict) {
        ++pstats.branchMispredicts;
        CWSIM_TRACE(Recovery, "branch mispredict: seq %llu pc 0x%llx "
                    "-> 0x%llx",
                    static_cast<unsigned long long>(inst.seq),
                    static_cast<unsigned long long>(inst.pc),
                    static_cast<unsigned long long>(next_pc));
        bool repaired = false;
        if (inst.si.isBranch()) {
            bpred.repairAndResolve(inst.checkpoint, inst.actualTaken);
            repaired = true;
        }
        squashYoungerThan(inst.seq, next_pc, inst.traceIdx + 1,
                          /*repair_bpred=*/!repaired,
                          SquashCause::BranchMispredict);
    } else if (fetchStalledOnSeq == inst.seq) {
        resumeFetch(next_pc);
    }
}

void
Processor::squashYoungerThan(InstSeqNum keep_seq, Addr restart_pc,
                             TraceIndex restart_trace_idx,
                             bool repair_bpred, SquashCause cause)
{
    if (repair_bpred) {
        // Repair to the state just before the oldest squashed
        // prediction (which includes every older, surviving update).
        const BPredCheckpoint *cp = nullptr;
        for (size_t i = 0; i < rob.size() && !cp; ++i) {
            const DynInst &inst = rob.at(i);
            if (inst.seq > keep_seq && inst.hasCheckpoint)
                cp = &inst.checkpoint;
        }
        if (!cp) {
            for (const FetchedInst &fi : fetchQueue) {
                if (fi.seq > keep_seq && fi.hasCheckpoint) {
                    cp = &fi.checkpoint;
                    break;
                }
            }
        }
        if (cp)
            bpred.repair(*cp);
    }

    unsigned squashed = 0;
    while (!rob.empty() && rob.back().seq > keep_seq) {
        DynInst &inst = rob.back();
        size_t slot = rob.slotOf(inst);
        readyBits.clear(slot);
        parkedBits.clear(slot);
        unpostedWaiters.clear(slot);
        issuedLoads.clear(slot);
        if (inst.renamedDest) {
            RegMapEntry &rm = regMap[inst.si.rd];
            rm.busy = inst.prevDestBusy;
            rm.producer = inst.prevDestProducer;
        }
        if (inst.si.isMem())
            --lsqCount;
        ++pstats.squashedInsts;
        ++squashed;
        if (pipe)
            emitPipeRecord(inst, cause);
        rob.truncate(1);
    }

    if (pipe) {
        // Fetched-but-never-dispatched instructions also get a (mostly
        // empty) timeline record so the trace accounts for every fetch.
        for (const FetchedInst &fi : fetchQueue) {
            obs::PipeViewWriter::Record r;
            r.seq = fi.seq;
            r.pc = fi.pc;
            r.fetch = fi.fetchedAt;
            r.disasm = fi.si.disassemble() +
                       strfmt(" [squash: %s]", toString(cause));
            pipe->write(r);
        }
    }

    CWSIM_TRACE(Recovery,
                "squash (%s): %u insts younger than seq %llu, "
                "restart pc 0x%llx",
                toString(cause), squashed,
                static_cast<unsigned long long>(keep_seq),
                static_cast<unsigned long long>(restart_pc));

    frec.record(cycle, check::EventKind::Squash, keep_seq, restart_pc,
                squashed);

    sb.squashYoungerThan(keep_seq);

    fetchQueue.clear();
    fetchPc = restart_pc;
    nextFetchTraceIdx = restart_trace_idx;
    fetchStalledOnSeq = 0;
    fetchHalted = false;
    refetchCause = cause;
}

void
Processor::emitPipeRecord(const DynInst &inst, SquashCause cause)
{
    obs::PipeViewWriter::Record r;
    r.seq = inst.seq;
    r.pc = inst.pc;

    // Record fields are in cycles; the writer converts to ticks.
    r.fetch = inst.fetchedAt;
    // This model has no distinct decode/rename stages; mirror the
    // neighbouring stage times so Konata draws a contiguous bar.
    r.decode = r.fetch;
    r.rename = inst.dispatchedAt;
    r.dispatch = inst.dispatchedAt;
    r.issue = inst.issued ? inst.issuedAt : 0;
    r.complete = inst.done ? inst.completedAt : 0;
    // Squashed instructions never retire (time 0 = stage not reached).
    r.retire = cause == SquashCause::None ? cycle : 0;
    if (inst.isStore() && cause == SquashCause::None)
        r.storeComplete = r.retire;

    std::string annot;
    if (inst.timesReplayed)
        annot += strfmt(" [replay x%u]", unsigned{inst.timesReplayed});
    if (inst.waitedSync)
        annot += " [sync-wait]";
    if (inst.waitAllStores)
        annot += " [sel-hold]";
    if (inst.fdEvaluated && inst.fdIsFalse) {
        annot += strfmt(" [false-dep %lluc]",
                        static_cast<unsigned long long>(inst.fdLatency));
    }
    if (inst.speculativeLoad)
        annot += " [spec-load]";
    if (cause != SquashCause::None)
        annot += strfmt(" [squash: %s]", toString(cause));
    r.disasm = inst.si.disassemble() + annot;

    pipe->write(r);
}

obs::IntervalCounters
Processor::intervalCounters() const
{
    obs::IntervalCounters now;
    now.commits = pstats.commits.value();
    now.violations = pstats.memOrderViolations.value();
    now.replays = pstats.loadReplays.value();
    now.falseDepLoads = pstats.falseDepLoads.value();
    now.occupancySum = pstats.windowOccupancy.sum();
    now.occupancyCount = pstats.windowOccupancy.count();
    return now;
}

void
Processor::emitIntervalSample()
{
    sampler->sample(cycle, intervalCounters());
}

void
Processor::finishIntervalSampling()
{
    if (sampler)
        sampler->finalize(cycle, intervalCounters());
}

void
Processor::finishDepProfile()
{
    if (!dprof || dprofWritten)
        return;
    dprofWritten = true;
    // Final predictor snapshot: the interval since the last reset
    // boundary would otherwise be invisible.
    if (usesMdpt) {
        dprof->noteMdptSample(cycle, mdpTable.validEntries(),
                              mdpTable.meanConfidence());
    }
    obs::DepProfManager::instance().writeRun(*dprof);
}

obs::CpiCause
Processor::classifyResidual() const
{
    using obs::CpiCause;

    // Empty window: either the front end is refilling after a squash
    // (blame the squash's cause) or it simply has not caught up.
    if (rob.empty()) {
        switch (refetchCause) {
          case SquashCause::MemOrderViolation:
          case SquashCause::InjectedViolation:
            return CpiCause::MemDepSquash;
          case SquashCause::BranchMispredict:
            return CpiCause::FetchBranch;
          default:
            return CpiCause::FrontEndIdle;
        }
    }

    const DynInst &head = rob.front();
    // A done head with leftover slots only happens on the halt cycle
    // (commit stops at HALT); nothing architectural was lost.
    if (head.done)
        return CpiCause::FrontEndIdle;
    // A head that is re-executing already paid for its first execution;
    // the extra cycles are miss-speculation recovery cost.
    if (head.timesReplayed > 0)
        return CpiCause::MemDepSquash;

    CpiCause cause = CpiCause::Exec;
    if (head.isLoad()) {
        if (head.memIssued) {
            // In flight: AS loads spend the first asLatency cycles in
            // the address-scheduler pipeline, the rest in the cache.
            Tick elapsed = cycle - head.issuedAt;
            cause = (lsqModel == LsqModel::AS &&
                     elapsed < Tick{cfg.mdp.asLatency})
                ? CpiCause::AddrSched
                : CpiCause::CacheMiss;
        } else if (!head.src1.ready || head.dispatchedAt == cycle) {
            // Waiting for its base register, or dispatched after this
            // cycle's issue phase and not yet gated.
            cause = CpiCause::Exec;
        } else {
            // Address-ready but unissued: blame the policy gate.
            // doIssue visited the head this cycle or left it parked,
            // and nothing since has changed an older store, so asking
            // again gives the answer the head got.
            switch (loadMayIssue(head).block) {
              case GateBlock::Barrier:
                cause = CpiCause::StoreBarrier;
                break;
              case GateBlock::Sync:
                cause = CpiCause::SyncWait;
                break;
              case GateBlock::TrueDep:
                cause = CpiCause::TrueDep;
                break;
              case GateBlock::Ambiguous:
                // The false-dep probe (oracle pre-pass) tells us
                // whether this hold protects a real dependence; with
                // no oracle every hold is charged as false.
                cause = (head.fdStallStarted && !head.fdIsFalse)
                    ? CpiCause::TrueDep
                    : CpiCause::FalseDep;
                break;
              case GateBlock::None:
                cause = CpiCause::Exec; // Port/FU starvation.
                break;
            }
        }
    }

    // Execution-latency loss hurts doubly when dispatch is also
    // blocked: reclassify so window pressure is visible.
    if (cause == CpiCause::Exec && rob.full())
        cause = CpiCause::WindowFull;
    return cause;
}

} // namespace cwsim
