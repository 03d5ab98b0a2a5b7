#include "split/split_window.hh"

#include <array>

#include "base/addr_range.hh"
#include "base/logging.hh"
#include "base/sim_error.hh"
#include "check/watchdog.hh"
#include "obs/trace.hh"

namespace cwsim
{

SplitWindowSim::SplitWindowSim(const SplitConfig &cfg,
                               const std::vector<TraceEntry> &trace)
    : cfg(cfg), nodes(trace.size()), mdpt(MdpConfig{}),
      dynFlags(trace.size(), 0), doneAt(trace.size(), 0),
      addrPostedAt(trace.size(), 0),
      sourceSeen(trace.size(), invalid_trace_index),
      notBefore(trace.size(), 0), fetchedAt(trace.size(), 0),
      issuedAt(trace.size(), 0), timesSquashed(trace.size(), 0),
      headCommit(0), headChunk(0),
      fetchCursor(cfg.numUnits, invalid_trace_index), globalCursor(0),
      curCycle(0), numViolations(0), numCommitted(0), numLoads(0),
      cpi(cfg.commitWidth)
{
    fatal_if(cfg.numUnits == 0 || cfg.chunkSize == 0,
             "split config needs at least one unit and chunk");
    fatal_if(cfg.policy != SpecPolicy::No &&
                 cfg.policy != SpecPolicy::Naive &&
                 cfg.policy != SpecPolicy::SpecSync,
             "the split-window model supports NO, NAV and SYNC");

    pipe = obs::TraceManager::instance().pipeView();
    if (pipe) {
        disasms.reserve(trace.size());
        for (const TraceEntry &te : trace)
            disasms.push_back(te.inst.disassemble());
    }

    if (obs::DepProfManager::instance().active()) {
        dprof = std::make_unique<obs::DepProfile>(
            "split",
            obs::runLabel().empty() ? "split" : obs::runLabel());
        mdpt.setProfile(dprof.get());
    }

    // Precompute register producers from the trace.
    std::array<TraceIndex, num_arch_regs> reg_writer;
    reg_writer.fill(invalid_trace_index);

    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &te = trace[i];
        Node &node = nodes[i];
        node.chunk = static_cast<unsigned>(i / cfg.chunkSize);
        node.latency = te.inst.latency();
        node.isLoad = te.inst.isLoad();
        node.isStore = te.inst.isStore();
        node.pc = te.pc;
        node.addr = te.memAddr;
        node.size = te.memSize;

        auto lookup = [&](RegId reg) {
            return reg == reg_invalid || reg == reg_zero
                ? invalid_trace_index
                : reg_writer[reg];
        };
        node.src1Producer = lookup(te.inst.rs1);
        node.src2Producer = lookup(te.inst.rs2);

        if (node.isLoad)
            ++numLoads;
        if (te.inst.writesReg())
            reg_writer[te.inst.rd] = i;
    }

    for (unsigned u = 0; u < cfg.numUnits; ++u) {
        TraceIndex start = static_cast<TraceIndex>(u) * cfg.chunkSize;
        fetchCursor[u] = start < nodes.size() ? start
                                              : invalid_trace_index;
    }
}

bool
SplitWindowSim::regReady(TraceIndex producer,
                         unsigned consumer_chunk) const
{
    if (producer == invalid_trace_index || producer < headCommit)
        return true; // none, or committed
    if (!has(producer, DynDone))
        return false;
    Cycles forward = nodes[producer].chunk != consumer_chunk
                         ? cfg.interUnitLatency
                         : 0;
    return doneAt[producer] + forward <= curCycle;
}

bool
SplitWindowSim::loadMayIssue(TraceIndex idx, TraceIndex &source) const
{
    // One walk over the older in-flight instructions gathers what
    // every mechanism needs. A load with no synonym to wait on is
    // refused at the first hold the walk meets; a SYNC load's walk
    // runs to the end, since the closest producer decides first.
    const Node &node = nodes[idx];
    const bool nas = cfg.lsqModel == LsqModel::NAS;
    const bool hold_ambiguous = cfg.policy == SpecPolicy::No;
    Synonym syn = cfg.policy == SpecPolicy::SpecSync
        ? mdpt.synonymOf(node.pc)
        : invalid_synonym;
    TraceIndex producer = invalid_trace_index; // closest SYNC producer
    TraceIndex youngest = invalid_trace_index; // forwarding source
    bool all_older_fetched = true;
    bool true_dep = false;

    for (TraceIndex j = headCommit; j < idx; ++j) {
        uint8_t f = dynFlags[j];
        if (!(f & DynFetched)) {
            // Invisible to any scheduler: ambiguous by definition.
            if (hold_ambiguous)
                return false;
            all_older_fetched = false;
            continue;
        }
        const Node &older = nodes[j];
        if (!older.isStore)
            continue;
        if (syn != invalid_synonym && mdpt.synonymOf(older.pc) == syn)
            producer = j;
        bool done = f & DynDone;
        bool visible = nas
            ? done
            : (f & DynAddrPosted) && addrPostedAt[j] <= curCycle;
        if (!visible && hold_ambiguous)
            return false; // an older store's address is unknown
        if ((done || visible) &&
            rangesOverlap(older.addr, older.size, node.addr, node.size)) {
            if (done) {
                youngest = j;
            } else {
                // AS: a known true dependence; the load waits.
                true_dep = true;
                if (syn == invalid_synonym)
                    return false;
            }
        }
    }

    // SYNC: a load whose PC carries a synonym waits for the closest
    // older store instance producing the same synonym. If no such
    // store is visible yet but older instructions remain unfetched,
    // the load keeps waiting — the synchronizing signal may simply not
    // have arrived from an earlier unit (Multiscalar-style wait).
    if (producer != invalid_trace_index) {
        if (!has(producer, DynDone) ||
            doneAt[producer] + cfg.interUnitLatency > curCycle) {
            // Per refused cycle, so the counter reads as cycles spent
            // synchronizing on this edge.
            if (__builtin_expect(dprof != nullptr, 0)) {
                dprof->noteSyncWait(node.pc, nodes[producer].pc,
                                    idx - producer);
            }
            return false;
        }
    } else if (syn != invalid_synonym && !all_older_fetched) {
        return false; // the producer may not be fetched yet
    }
    source = youngest;
    return !true_dep;
}

void
SplitWindowSim::executeStore(TraceIndex idx)
{
    const Node &store = nodes[idx];
    set(idx, DynDone);
    issuedAt[idx] = curCycle;
    doneAt[idx] = curCycle;

    // Detect the oldest younger load that consumed a stale value.
    for (TraceIndex j = idx + 1;
         j < nodes.size() && nodes[j].chunk <=
             headChunk + cfg.numUnits; ++j) {
        const Node &load = nodes[j];
        if (!load.isLoad || !has(j, DynDone))
            continue;
        bool overlap = rangesOverlap(store.addr, store.size,
                                     load.addr, load.size);
        if (!overlap)
            continue;
        if (sourceSeen[j] != invalid_trace_index &&
            sourceSeen[j] >= idx) {
            continue; // already forwarded from this store or younger
        }
        ++numViolations;
        if (__builtin_expect(dprof != nullptr, 0)) {
            dprof->noteViolation(
                store.pc, load.pc, j - idx,
                store.addr <= load.addr &&
                    store.addr + store.size >= load.addr + load.size);
        }
        CWSIM_TRACE(Split, "violation: load idx %llu pc 0x%llx "
                    "vs store idx %llu pc 0x%llx addr 0x%llx",
                    static_cast<unsigned long long>(j),
                    static_cast<unsigned long long>(load.pc),
                    static_cast<unsigned long long>(idx),
                    static_cast<unsigned long long>(store.pc),
                    static_cast<unsigned long long>(store.addr));
        if (cfg.policy == SpecPolicy::SpecSync)
            mdpt.pair(load.pc, store.pc);
        squashFrom(j);
        return;
    }
}

void
SplitWindowSim::squashFrom(TraceIndex idx)
{
    unsigned squashed = 0;
    for (TraceIndex j = idx; j < nodes.size(); ++j) {
        // Only in-flight chunks can have made progress.
        if (nodes[j].chunk > headChunk + cfg.numUnits)
            break;
        if (!(dynFlags[j] &
              (DynFetched | DynDone | DynAddrPosted))) {
            continue;
        }
        dynFlags[j] &= static_cast<uint8_t>(~(DynDone | DynAddrPosted));
        sourceSeen[j] = invalid_trace_index;
        notBefore[j] = curCycle + cfg.squashPenalty;
        ++timesSquashed[j];
        ++squashed;
    }
    CWSIM_TRACE(Split, "squash: %u insts from idx %llu, re-dispatch "
                "at cycle %llu",
                squashed, static_cast<unsigned long long>(idx),
                static_cast<unsigned long long>(curCycle +
                                                cfg.squashPenalty));
}

uint64_t
SplitWindowSim::run()
{
    const uint64_t max_cycles = 100'000'000;
    const TraceIndex n = nodes.size();
    if (n == 0)
        return 0;

    check::Watchdog wdog(cfg.watchdogInterval);

    while (headCommit < n && curCycle < max_cycles) {
        if (obs::tracingActive())
            obs::setTraceCycle(curCycle);

        // ---- fetch ----
        if (cfg.continuousFetch) {
            // One in-order stream feeding a sliding window: older
            // instructions are always fetched before younger ones.
            TraceIndex window_end =
                headCommit +
                static_cast<TraceIndex>(cfg.numUnits) * cfg.chunkSize;
            unsigned budget =
                cfg.unitFetchWidth * cfg.numUnits;
            while (budget > 0 && globalCursor < n &&
                   globalCursor < window_end) {
                set(globalCursor, DynFetched);
                fetchedAt[globalCursor] = curCycle;
                ++globalCursor;
                --budget;
            }
        } else {
            // Each in-flight chunk fetches independently: a later
            // unit's loads can be fetched before an earlier unit's
            // stores.
            for (unsigned u = 0; u < cfg.numUnits; ++u) {
                TraceIndex cursor = fetchCursor[u];
                if (cursor == invalid_trace_index)
                    continue;
                unsigned chunk = nodes[cursor].chunk;
                if (chunk >= headChunk + cfg.numUnits)
                    continue; // not yet in flight
                TraceIndex chunk_end = std::min<TraceIndex>(
                    static_cast<TraceIndex>(chunk + 1) * cfg.chunkSize,
                    n);
                unsigned budget = cfg.unitFetchWidth;
                while (budget > 0 && cursor < chunk_end) {
                    set(cursor, DynFetched);
                    fetchedAt[cursor] = curCycle;
                    ++cursor;
                    --budget;
                }
                if (cursor == chunk_end) {
                    // This slot's next assigned chunk.
                    TraceIndex next =
                        static_cast<TraceIndex>(chunk + cfg.numUnits) *
                        cfg.chunkSize;
                    fetchCursor[u] =
                        next < n ? next : invalid_trace_index;
                } else {
                    fetchCursor[u] = cursor;
                }
            }
        }

        // ---- execute: per unit, oldest-first, bounded issue ----
        // Continuous mode issues from one sliding window with a global
        // budget; split mode gives each in-flight chunk its own budget.
        unsigned first_chunk = headChunk;
        unsigned last_chunk = std::min<unsigned>(
            headChunk + cfg.numUnits + (cfg.continuousFetch ? 1 : 0),
            static_cast<unsigned>((n + cfg.chunkSize - 1) /
                                  cfg.chunkSize));
        unsigned budget = cfg.unitIssueWidth * cfg.numUnits;
        for (unsigned chunk = first_chunk; chunk < last_chunk;
             ++chunk) {
            if (!cfg.continuousFetch)
                budget = cfg.unitIssueWidth;
            TraceIndex begin =
                static_cast<TraceIndex>(chunk) * cfg.chunkSize;
            TraceIndex end =
                std::min<TraceIndex>(begin + cfg.chunkSize, n);
            for (TraceIndex i = std::max(begin, headCommit);
                 i < end && budget > 0; ++i) {
                const Node &node = nodes[i];
                uint8_t f = dynFlags[i];
                if (!(f & DynFetched) || notBefore[i] > curCycle)
                    continue;

                // AS stores post addresses as soon as the base register
                // arrives (no issue slot consumed).
                if (node.isStore && cfg.lsqModel == LsqModel::AS &&
                    !(f & DynAddrPosted) &&
                    regReady(node.src1Producer, node.chunk)) {
                    set(i, DynAddrPosted);
                    addrPostedAt[i] = curCycle + cfg.asLatency;
                }

                if (f & DynDone)
                    continue;

                if (node.isStore) {
                    if (regReady(node.src1Producer, node.chunk) &&
                        regReady(node.src2Producer, node.chunk)) {
                        --budget;
                        executeStore(i);
                    }
                    continue;
                }

                if (node.isLoad) {
                    TraceIndex source = invalid_trace_index;
                    if (!regReady(node.src1Producer, node.chunk) ||
                        !loadMayIssue(i, source)) {
                        continue;
                    }
                    --budget;
                    sourceSeen[i] = source;
                    if (__builtin_expect(dprof != nullptr, 0)) {
                        dprof->noteLoadExec(
                            node.pc, source != invalid_trace_index);
                    }
                    set(i, DynDone);
                    issuedAt[i] = curCycle;
                    doneAt[i] = curCycle + cfg.memLatency +
                                (cfg.lsqModel == LsqModel::AS
                                     ? cfg.asLatency
                                     : 0);
                    continue;
                }

                // Plain computational / control work.
                if (regReady(node.src1Producer, node.chunk) &&
                    regReady(node.src2Producer, node.chunk)) {
                    --budget;
                    set(i, DynDone);
                    issuedAt[i] = curCycle;
                    doneAt[i] = curCycle + node.latency;
                }
            }
        }

        // ---- commit: global, in order ----
        unsigned commits = 0;
        while (headCommit < n && commits < cfg.commitWidth) {
            const Node &head = nodes[headCommit];
            if (!has(headCommit, DynDone) ||
                doneAt[headCommit] > curCycle) {
                break;
            }
            if (__builtin_expect(dprof != nullptr, 0)) {
                if (head.isLoad)
                    dprof->noteLoadCommit(head.pc);
                else if (head.isStore)
                    dprof->noteStoreCommit(head.pc);
            }
            if (pipe) {
                // Record fields are cycles; the writer scales to ticks.
                obs::PipeViewWriter::Record r;
                r.seq = headCommit + 1; // pipeview seqs start at 1
                r.pc = head.pc;
                r.fetch = fetchedAt[headCommit];
                r.decode = r.fetch;
                r.rename = r.fetch;
                r.dispatch = r.fetch;
                r.issue = issuedAt[headCommit];
                r.complete = doneAt[headCommit];
                r.retire = curCycle;
                if (head.isStore)
                    r.storeComplete = r.retire;
                r.disasm = disasms[headCommit];
                if (timesSquashed[headCommit]) {
                    r.disasm +=
                        strfmt(" [squashed x%u]",
                               unsigned{timesSquashed[headCommit]});
                }
                pipe->write(r);
            }
            ++headCommit;
            ++numCommitted;
            ++commits;
        }
        // Commit-slot accounting: blame this cycle's leftover slots on
        // why the next-to-commit instruction is not done yet.
        cpi.account(commits, commits < cfg.commitWidth
                                 ? classifyResidual()
                                 : obs::CpiCause::Committed);

        if (commits > 0)
            wdog.progress(curCycle);
        if (wdog.expired(curCycle)) {
            const Node &head = nodes[headCommit];
            throw SimError(
                SimErrorKind::Watchdog,
                strfmt("split-window: no commit in %llu cycles",
                       static_cast<unsigned long long>(
                           cfg.watchdogInterval)),
                __FILE__, __LINE__,
                strfmt("head %llu/%zu (chunk %u, pc 0x%llx): "
                       "fetched=%d done=%d addrPosted=%d "
                       "notBefore=%llu, headChunk %u\n",
                       static_cast<unsigned long long>(headCommit),
                       nodes.size(), head.chunk,
                       static_cast<unsigned long long>(head.pc),
                       has(headCommit, DynFetched),
                       has(headCommit, DynDone),
                       has(headCommit, DynAddrPosted),
                       static_cast<unsigned long long>(
                           notBefore[headCommit]),
                       headChunk));
        }

        // Advance the chunk window; arm fetch for newly in-flight
        // chunks.
        unsigned new_head_chunk =
            headCommit < n
                ? nodes[headCommit].chunk
                : static_cast<unsigned>((n - 1) / cfg.chunkSize);
        // Slot fetch cursors self-advance to their next assigned
        // chunk; advancing headChunk just widens the in-flight window.
        headChunk = new_head_chunk;

        ++curCycle;
    }

    panic_if(headCommit < n, "split-window simulation did not converge");
    panic_if(cpi.totalSlots() != curCycle * uint64_t{cfg.commitWidth} ||
                 cpi.slot(obs::CpiCause::Committed) != numCommitted,
             "split-window CPI-stack conservation broken: %llu slots / "
             "%llu committed over %llu cycles x width %u",
             static_cast<unsigned long long>(cpi.totalSlots()),
             static_cast<unsigned long long>(
                 cpi.slot(obs::CpiCause::Committed)),
             static_cast<unsigned long long>(curCycle),
             cfg.commitWidth);
    if (dprof) {
        // Final predictor snapshot, then hand the block to the shared
        // writer (SYNC is the only split policy with MDPT state, but
        // the sample is cheap and keeps the block shape uniform).
        dprof->noteMdptSample(curCycle, mdpt.validEntries(),
                              mdpt.meanConfidence());
        obs::DepProfManager::instance().writeRun(*dprof);
    }
    return curCycle;
}

obs::CpiCause
SplitWindowSim::classifyResidual() const
{
    using obs::CpiCause;

    const TraceIndex n = nodes.size();
    // Everything committed: only the trailing cycle's spare slots.
    if (headCommit >= n)
        return CpiCause::FrontEndIdle;

    const Node &head = nodes[headCommit];
    if (!has(headCommit, DynFetched))
        return CpiCause::FrontEndIdle;
    // Squash penalty wait or post-squash re-execution: recovery cost.
    if (timesSquashed[headCommit] > 0)
        return CpiCause::MemDepSquash;

    if (head.isLoad && has(headCommit, DynDone)) {
        // In flight (doneAt > curCycle). AS loads spend the first
        // asLatency cycles in the address-scheduler pipeline.
        return (cfg.lsqModel == LsqModel::AS &&
                curCycle - issuedAt[headCommit] < Tick{cfg.asLatency})
            ? CpiCause::AddrSched
            : CpiCause::CacheMiss;
    }
    // Executing, or waiting for operands or an issue slot. The load
    // gate never holds the head: nothing older than it is in flight.
    return CpiCause::Exec;
}

} // namespace cwsim
