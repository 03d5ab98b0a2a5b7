/**
 * @file
 * google-benchmark microbenchmarks for the simulator's hot structures:
 * MDPT lookup/training, branch predictor lookups, cache accesses, the
 * event queue, functional memory, instruction decode, store-buffer
 * forwarding and the oracle's dependence lookup. These guard
 * the simulator's own performance (host-side), not the modelled
 * machine.
 */

#include <benchmark/benchmark.h>

#include "base/random.hh"
#include "bpred/bpred.hh"
#include "cpu/store_buffer.hh"
#include "isa/builder.hh"
#include "isa/static_inst.hh"
#include "mdp/mdp_table.hh"
#include "mdp/oracle.hh"
#include "mem/functional_memory.hh"
#include "mem/timing_cache.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

using namespace cwsim;

namespace
{

void
BM_MdptLookup(benchmark::State &state)
{
    MdpTable table{MdpConfig{}};
    // Pre-train a working set of static PCs.
    for (unsigned i = 0; i < 256; ++i)
        table.pair(0x1000 + 8 * i, 0x9000 + 8 * i);
    Random rng(1);
    for (auto _ : state) {
        Addr pc = 0x1000 + 8 * (rng.next() & 255);
        benchmark::DoNotOptimize(table.synonymOf(pc));
    }
}
BENCHMARK(BM_MdptLookup);

void
BM_MdptTrain(benchmark::State &state)
{
    MdpTable table{MdpConfig{}};
    Random rng(2);
    for (auto _ : state) {
        Addr load_pc = 0x1000 + 8 * (rng.next() & 1023);
        Addr store_pc = 0x9000 + 8 * (rng.next() & 1023);
        benchmark::DoNotOptimize(table.pair(load_pc, store_pc));
    }
}
BENCHMARK(BM_MdptTrain);

void
BM_BpredPredictUpdate(benchmark::State &state)
{
    BranchPredictor bp{BPredConfig{}};
    StaticInst br(Opcode::BNE, reg_invalid, ir(1), ir(2), -4);
    Random rng(3);
    for (auto _ : state) {
        Addr pc = 0x2000 + 4 * (rng.next() & 4095);
        auto pred = bp.predict(br, pc);
        bool taken = rng.chance(0.6);
        bp.update(br, pc, taken, branchTarget(br, pc),
                  pred.checkpoint.globalHist);
        if (pred.taken != taken)
            bp.repairAndResolve(pred.checkpoint, taken);
    }
}
BENCHMARK(BM_BpredPredictUpdate);

void
BM_CacheHit(benchmark::State &state)
{
    EventQueue eq;
    MemConfig mem_cfg;
    MainMemory mem(mem_cfg, eq);
    TimingCache cache(mem_cfg.dcache, 0, eq, mem);
    // Warm a small working set.
    for (Addr a = 0; a < 8 * 1024; a += 32)
        cache.probeWarm(a, false);
    Random rng(4);
    uint64_t sink = 0;
    for (auto _ : state) {
        Addr addr = (rng.next() % (8 * 1024)) & ~Addr(7);
        cache.access(addr, 8, false, [&sink] { ++sink; });
        eq.runUntil(eq.curTick() + 1);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_CacheHit);

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue eq;
    uint64_t sink = 0;
    for (auto _ : state) {
        eq.scheduleIn(3, [&sink] { ++sink; });
        eq.runUntil(eq.curTick() + 1);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire);

/**
 * One pending event of the hold model: when it fires it reschedules
 * itself 1..16 ticks out. 32 bytes, the size of the core's completion
 * captures.
 */
struct HoldEvent
{
    EventQueue *eq;
    Random *rng;
    uint64_t *fired;
    uint64_t id;

    void
    operator()() const
    {
        ++*fired;
        eq->scheduleIn(1 + rng->below(16), *this);
    }
};
static_assert(sizeof(HoldEvent) == 32);

void
BM_EventQueueHold(benchmark::State &state)
{
    // The hold model: a fixed population of pending events, the shape
    // of the core's queue (completions and cache fills in flight). One
    // iteration is one tick; items are fired events.
    EventQueue eq;
    Random rng(6);
    uint64_t fired = 0;
    for (int64_t i = 0; i < state.range(0); ++i) {
        eq.scheduleIn(1 + rng.below(16),
                      HoldEvent{&eq, &rng, &fired,
                                static_cast<uint64_t>(i)});
    }
    for (auto _ : state)
        eq.runUntil(eq.curTick() + 1);
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(256);

void
BM_FunctionalMemoryReadWrite(benchmark::State &state)
{
    FunctionalMemory mem;
    Random rng(5);
    for (auto _ : state) {
        Addr addr = rng.next() % (1 << 20);
        mem.write(addr, 8, addr);
        benchmark::DoNotOptimize(mem.read(addr, 8));
    }
}
BENCHMARK(BM_FunctionalMemoryReadWrite);

void
BM_DecodeInstruction(benchmark::State &state)
{
    StaticInst lw(Opcode::LW, ir(5), ir(3), reg_invalid, 16);
    uint32_t word = lw.encode();
    for (auto _ : state)
        benchmark::DoNotOptimize(StaticInst::decode(word));
}
BENCHMARK(BM_DecodeInstruction);

void
BM_StoreBufferForward(benchmark::State &state)
{
    // state.range(0) executed 8-byte stores, 64 bytes apart; per
    // iteration one load no store overlaps and one that forwards from
    // the oldest store, so its search walks every entry.
    const size_t n = static_cast<size_t>(state.range(0));
    StoreBuffer sb(n);
    for (size_t i = 0; i < n; ++i) {
        SbEntry e;
        e.seq = i + 1;
        e.traceIdx = i;
        e.size = 8;
        size_t slot = sb.allocate(e);
        sb.postAddr(slot, 0x10000 + 64 * i, 0, 0);
        sb.postData(slot, i);
        sb.setExecuted(slot, 0);
    }
    for (auto _ : state) {
        uint64_t value = 0;
        InstSeqNum sources[8] = {};
        benchmark::DoNotOptimize(
            sb.forward(0x10000 + 16, 8, n + 1, value, sources));
        benchmark::DoNotOptimize(
            sb.forward(0x10000, 8, n + 1, value, sources));
        benchmark::DoNotOptimize(value);
    }
}
BENCHMARK(BM_StoreBufferForward)->Arg(16)->Arg(64);

void
BM_OracleLookup(benchmark::State &state)
{
    // Dispatch's lookup, in trace order: a load with a producing store
    // at about one trace index in twelve, over a million indices.
    constexpr TraceIndex n = 1 << 20;
    OracleDeps deps;
    Random rng(6);
    for (TraceIndex idx = 0; idx < n; ++idx) {
        if (rng.below(12) == 0) {
            OracleDeps::ProducerSet set;
            set.stores[0] = idx / 2;
            set.count = 1;
            deps.record(idx, set);
        }
    }
    TraceIndex idx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(deps.producersOf(idx));
        idx = (idx + 1) & (n - 1);
    }
}
BENCHMARK(BM_OracleLookup);

} // anonymous namespace

BENCHMARK_MAIN();
