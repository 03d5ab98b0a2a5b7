/**
 * @file
 * The timing side of the memory hierarchy: banked, set-associative,
 * lockup-free caches with bounded primary/secondary MSHRs, and the
 * fixed-latency main memory behind them.
 *
 * Caches are tag-only: data values always come from the store buffer or
 * FunctionalMemory. Timing parameters follow Table 2 of the paper, e.g.
 * an L1 miss that hits in the unified L2 completes in
 * 8 + (32B / 16B-per-chunk) * 1 = 10 cycles, and an L2 miss fills its
 * 128-byte block from main memory in 34 + 8 * 2 = 50 cycles.
 */

#ifndef CWSIM_MEM_TIMING_CACHE_HH
#define CWSIM_MEM_TIMING_CACHE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace cwsim
{

/** Completion callback for a timing access. */
using MemDoneFn = InplaceFunction;

/** Anything a cache can forward misses to. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Try to start an access at the current tick.
     *
     * @param addr First byte accessed.
     * @param size Bytes requested (a block size for refills).
     * @param write True for stores / dirty refills.
     * @param done Invoked when the data is available.
     * @return False if the request was rejected (busy bank / MSHRs
     *         exhausted); the caller must retry on a later tick.
     */
    virtual bool access(Addr addr, unsigned size, bool write,
                        MemDoneFn done) = 0;
};

/** Infinite-capacity main memory with fixed base + transfer latency. */
class MainMemory : public MemLevel
{
  public:
    MainMemory(const MemConfig &cfg, EventQueue &eq);

    bool access(Addr addr, unsigned size, bool write,
                MemDoneFn done) override;

    stats::Scalar numReads;
    stats::Scalar numWrites;

  private:
    EventQueue &eq;
    Cycles baseLatency;
    Cycles perChunkLatency;
};

class TimingCache : public MemLevel
{
  public:
    /**
     * @param cfg Geometry and latency of this cache.
     * @param transfer_per_chunk Added response latency per 4-word chunk
     *        of the requested size (0 for L1s, 1 for the L2).
     * @param eq The simulation event queue.
     * @param next The level misses are forwarded to.
     */
    TimingCache(const CacheConfig &cfg, Cycles transfer_per_chunk,
                EventQueue &eq, MemLevel &next);

    bool access(Addr addr, unsigned size, bool write,
                MemDoneFn done) override;

    /**
     * Functional warm-up access used during the fast-forward phase of
     * sampled simulation: updates tags and LRU state with zero latency
     * and no resource constraints.
     */
    void probeWarm(Addr addr, bool write);

    /** True if the block containing @p addr is currently resident. */
    bool isResident(Addr addr) const;

    const std::string &name() const { return cacheName; }

    // Statistics.
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar mshrMerges;
    stats::Scalar bankRejects;
    stats::Scalar mshrRejects;
    stats::Scalar fills;

    void registerStats(stats::StatGroup &group);

  private:
    struct Line
    {
        Addr tag = invalid_addr;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0;
    };

    struct Mshr
    {
        std::vector<MemDoneFn> targets;
        unsigned bank = 0;
        bool write = false;
    };

    Addr blockAddr(Addr addr) const { return addr & ~Addr(blockMask); }
    /** Block-interleaved banking: the block number's low bits. */
    unsigned
    bankOf(Addr block) const
    {
        return static_cast<unsigned>((block >> blockShift) & bankMask);
    }
    unsigned
    setOf(Addr block) const
    {
        return static_cast<unsigned>((block >> setShift) & setMask);
    }

    /** Install @p block, evicting LRU; returns the victim line. */
    Line &fillLine(Addr block, bool write);

    void issueToNext(Addr block, bool write);
    void handleFill(Addr block);

    std::string cacheName;
    unsigned blockSize;
    unsigned blockMask;
    unsigned numBanks;
    unsigned setsPerBank;
    /** Block size, bank count and sets per bank are powers of two. */
    unsigned blockShift;
    unsigned bankMask;
    unsigned setShift;
    unsigned setMask;
    unsigned assoc;
    Cycles hitLatency;
    Cycles transferPerChunk;
    unsigned primaryLimit;
    unsigned secondaryLimit;

    EventQueue &eq;
    MemLevel &next;

    std::vector<Line> lines;        ///< [bank][set][way] flattened.
    std::vector<Tick> bankBusyUntil;
    std::vector<unsigned> primaryPerBank;
    /** Outstanding misses, by block address. */
    std::unordered_map<Addr, Mshr> mshrs;
    uint64_t useCounter;
};

/** The full hierarchy: L1I + L1D in front of a unified L2 and memory. */
class MemorySystem
{
  public:
    MemorySystem(const MemConfig &cfg, EventQueue &eq);

    /** Timing access from the LSQ / store buffer. */
    bool
    dataAccess(Addr addr, unsigned size, bool write, MemDoneFn done)
    {
        return dcache.access(addr, size, write, std::move(done));
    }

    /** Timing access from the fetch unit (one cache block). */
    bool
    instAccess(Addr addr, MemDoneFn done)
    {
        return icache.access(addr, icacheBlockSize, false,
                             std::move(done));
    }

    /** Warm-up probes used during fast-forward. */
    void warmData(Addr addr, bool write);
    void warmInst(Addr addr);

    unsigned dcacheBlock() const { return dcacheBlockSize; }
    unsigned icacheBlock() const { return icacheBlockSize; }

    TimingCache &l1d() { return dcache; }
    TimingCache &l1i() { return icache; }
    TimingCache &unified() { return l2; }

    void registerStats(stats::StatGroup &group);

  private:
    MainMemory mainMem;
    TimingCache l2;
    TimingCache dcache;
    TimingCache icache;
    unsigned dcacheBlockSize;
    unsigned icacheBlockSize;
};

} // namespace cwsim

#endif // CWSIM_MEM_TIMING_CACHE_HH
