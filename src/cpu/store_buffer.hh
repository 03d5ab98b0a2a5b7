/**
 * @file
 * The store buffer (Table 2: 128 entries): holds every in-flight
 * store's address/data from execution until it has been released to the
 * D-cache after commit. It provides memory renaming — speculative store
 * data lives here, loads forward from it byte-wise ("combines store
 * requests for load forwarding"), and architectural memory is only
 * updated at commit.
 *
 * Under the AS model a store posts its address (and later its data)
 * into its entry as the operands arrive; `addrVisibleAt` models the
 * address-based scheduler's latency before loads can see the address.
 *
 * The store buffer is the core's one record of store ordering: both
 * LSQ models ask it which older stores a load must still respect.
 * A NAS store posts its address and data together when it executes,
 * so under NAS the unposted set below is exactly the unexecuted
 * stores; an AS store posts its address early, visible asLatency
 * cycles later.
 *
 * Every query searches the age-ordered FIFO itself, from the entry it
 * asks about. Seq and trace index both ascend in FIFO order (a squash
 * truncates the tail and refetch resumes after the survivors; a
 * fast-forward restarts trace indices only on an empty buffer), so
 * findSeq/findTraceIdx binary-search positions, and forwarding scans
 * backward from the youngest entry older than the load. Beside the
 * FIFO it keeps
 *   - slot bitmaps of the stores whose address is still unposted and
 *     of the unexecuted barrier stores, walked in age order for the
 *     oldest (the ambiguity test of the NO/SEL hold and the AS
 *     scheduler; the STORE gate),
 *   - short lists of the stores whose posted address is not yet
 *     visible and of the address-only stores (posted address, data
 *     pending: the AS scheduler's known-true-dependence test), and
 *   - a forwarding filter: per hash bucket of 8-byte address blocks,
 *     a count of the entries holding both an address and data that
 *     touch a block of the bucket. A load whose blocks all count zero
 *     has nothing to forward, and forward() returns before its scan
 *     (a Bloom-filtered LSQ search, as in Sethumadhavan et al.,
 *     MICRO 2003).
 * Entry fields that feed these (addr/data/executed, and the barrier
 * prediction and size fixed at allocate) may only be written through
 * the mutating API below; the release flags (committed, releasing,
 * released) may be poked directly via slot(). selfCheck() rebuilds
 * every one from the queue and is run at check level 2.
 */

#ifndef CWSIM_CPU_STORE_BUFFER_HH
#define CWSIM_CPU_STORE_BUFFER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/addr_range.hh"
#include "base/circular_queue.hh"
#include "base/slot_bitmap.hh"
#include "base/types.hh"
#include "mdp/mdp_table.hh"

namespace cwsim
{

struct SbEntry
{
    InstSeqNum seq = 0;
    TraceIndex traceIdx = 0;
    Addr pc = 0;

    Addr addr = invalid_addr;
    unsigned size = 0;
    uint64_t data = 0;

    bool addrValid = false;
    bool dataValid = false;
    /** AS: tick at which the posted address becomes visible to loads. */
    Tick addrVisibleAt = 0;

    /** Address and data both available (the store has "issued"). */
    bool executed = false;
    Tick executedAt = 0;

    bool committed = false;
    bool releasing = false;
    bool released = false;

    /** STORE policy: this store is predicted to be a barrier. */
    bool barrier = false;
    /** SYNC: synonym this store produces (invalid if none). */
    Synonym producerSynonym = invalid_synonym;

    bool
    overlaps(Addr a, unsigned s) const
    {
        return addrValid && rangesOverlap(addr, size, a, s);
    }

    /** Does this store write the byte at @p byte_addr? */
    bool
    coversByte(Addr byte_addr) const
    {
        return addrValid && rangeCoversByte(addr, size, byte_addr);
    }

    uint8_t
    byteAt(Addr byte_addr) const
    {
        return static_cast<uint8_t>(data >> (8 * (byte_addr - addr)));
    }
};

class StoreBuffer
{
  public:
    explicit StoreBuffer(size_t capacity)
        : q(capacity), addrUnposted(capacity),
          unexecutedBarriers(capacity)
    {
    }

    // ---- FIFO shape (CircularQueue passthrough) ---------------------
    size_t capacity() const { return q.capacity(); }
    size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }
    bool full() const { return q.full(); }
    SbEntry &front() { return q.front(); }
    const SbEntry &front() const { return q.front(); }
    SbEntry &back() { return q.back(); }
    const SbEntry &back() const { return q.back(); }
    SbEntry &at(size_t pos) { return q.at(pos); }
    const SbEntry &at(size_t pos) const { return q.at(pos); }
    /**
     * Direct slot access. Writing a field the bitmaps or lists track
     * through this would corrupt them — use the mutating API; only the
     * commit and release flags are fair game.
     */
    SbEntry &slot(size_t idx) { return q.slot(idx); }
    const SbEntry &slot(size_t idx) const { return q.slot(idx); }

    // ---- lifecycle ---------------------------------------------------
    /**
     * Dispatch a store: append it. The entry carries its dispatch-time
     * predictions (barrier, producerSynonym).
     * @return its stable slot.
     */
    size_t allocate(SbEntry entry);

    /** Retire the (released) head entry. */
    void popFront();

    /** Squash: drop uncommitted tail entries younger than @p keep. */
    void squashYoungerThan(InstSeqNum keep);

    // ---- execution-state mutation -----------------------------------
    /**
     * Post the effective address. @p visible_at models the address
     * scheduler's latency (== @p now for single-phase NAS stores).
     */
    void postAddr(size_t slot_idx, Addr addr, Tick visible_at,
                  Tick now);

    /** Post the store data. */
    void postData(size_t slot_idx, uint64_t data);

    /** Mark address+data complete (the store has "issued"). */
    void setExecuted(size_t slot_idx, Tick now);

    /**
     * Selective replay: forget address, data and executed state; the
     * store will re-post both.
     */
    void invalidateForReplay(size_t slot_idx);

    // ---- queries -----------------------------------------------------
    /** Lookup by sequence number (nullptr if not resident). */
    const SbEntry *
    findSeq(InstSeqNum seq) const
    {
        return findBy(&SbEntry::seq, seq);
    }

    /** Lookup by trace index (nullptr if not resident). */
    const SbEntry *
    findTraceIdx(TraceIndex idx) const
    {
        return findBy(&SbEntry::traceIdx, idx);
    }

    /** The stable slot of resident entry @p entry. */
    size_t slotOf(const SbEntry &entry) const { return q.slotOf(entry); }

    /** Is slot @p idx still the resident entry of store @p seq? */
    bool
    holds(size_t idx, InstSeqNum seq) const
    {
        return q.slotLive(idx) && q.slot(idx).seq == seq;
    }

    /**
     * Ambiguity: does a store older than @p seq, not yet released,
     * have no visible address at @p now? Under NAS: is any older
     * store unexecuted?
     */
    bool
    ambiguousOlderThan(InstSeqNum seq, Tick now) const
    {
        return unpostedOlderThan(seq) ||
               invisibleOlderThan(seq, now) != nullptr;
    }

    /** Ambiguity, first case: is a store older than @p seq unposted? */
    bool
    unpostedOlderThan(InstSeqNum seq) const
    {
        const SbEntry *oldest = oldestIn(addrUnposted);
        return oldest && oldest->seq < seq;
    }

    /**
     * Ambiguity, second case: a store older than @p seq, not yet
     * released, whose posted address is still invisible at @p now
     * (nullptr if none).
     */
    const SbEntry *invisibleOlderThan(InstSeqNum seq, Tick now) const;

    /**
     * Drop the in-flight address refs that are visible at @p now.
     * Visibility is monotone, so a dropped ref is never needed again;
     * called once per cycle to keep invisibleOlderThan's scan short.
     */
    void expireVisibleAddrs(Tick now);

    /** STORE: the oldest unexecuted barrier older than @p seq. */
    const SbEntry *
    barrierOlderThan(InstSeqNum seq) const
    {
        const SbEntry *oldest = oldestIn(unexecutedBarriers);
        return oldest && oldest->seq < seq ? oldest : nullptr;
    }

    /**
     * Address-scheduler dependence: a store older than @p seq whose
     * address is visible at @p now, overlaps [addr, addr+size), and
     * whose data has not arrived (the load must wait for it; nullptr
     * if none).
     */
    const SbEntry *blockingOlderStore(Addr addr, unsigned size,
                                      InstSeqNum seq, Tick now) const;

    /**
     * Forwarding: each byte i of [addr, addr+size) (size <= 8) from
     * the youngest store older than @p before whose data covers it.
     * ORs the byte into bits [8i, 8i+8) of @p value and, when
     * @p sources is non-null, stores that store's seq in sources[i];
     * bytes no such store writes are left alone. Returns 0 without a
     * search when the forwarding filter counts no store with data in
     * any block the load touches.
     * @return a mask with bit i set for each forwarded byte i.
     */
    unsigned forward(Addr addr, unsigned size, InstSeqNum before,
                     uint64_t &value, InstSeqNum *sources) const;

    /**
     * SYNC dispatch: the youngest uncommitted store older than
     * @p before producing @p syn (nullptr if none).
     */
    const SbEntry *youngestSynonymProducerBefore(Synonym syn,
                                                 InstSeqNum before) const;

    /**
     * Check the FIFO's orders and rebuild the bitmaps and lists from
     * it and compare (check level 2).
     * @param now Current cycle, for visibility-list validation.
     * @return "" when consistent, else a complaint.
     */
    std::string selfCheck(Tick now) const;

  private:
    struct SlotRef
    {
        size_t slot = 0;
        InstSeqNum seq = 0;
    };

    /** Is (slot, seq) still the resident entry it was recorded for? */
    bool
    refValid(const SlotRef &ref) const
    {
        return holds(ref.slot, ref.seq);
    }

    /** The first FIFO position whose @p field is not below @p key. */
    template <class Key>
    size_t
    lowerBound(Key SbEntry::*field, Key key) const
    {
        size_t lo = 0;
        size_t hi = q.size();
        while (lo < hi) {
            size_t mid = lo + (hi - lo) / 2;
            if (q.at(mid).*field < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    /** The entry whose @p field is @p key (nullptr if none). */
    template <class Key>
    const SbEntry *
    findBy(Key SbEntry::*field, Key key) const
    {
        size_t pos = lowerBound(field, key);
        return pos < q.size() && q.at(pos).*field == key ? &q.at(pos)
                                                         : nullptr;
    }

    /** The oldest entry whose bit is set in @p bits (nullptr if none). */
    const SbEntry *
    oldestIn(const SlotBitmap &bits) const
    {
        if (q.empty())
            return nullptr;
        size_t idx = bits.firstInAge(q.slotOf(q.front()));
        return idx == SlotBitmap::npos ? nullptr : &q.slot(idx);
    }

    /** Clear @p slot_idx's bits and list refs (it is leaving). */
    void forget(size_t slot_idx);
    static void eraseRef(std::vector<SlotRef> &v, size_t slot_idx);

    // ---- forwarding filter -------------------------------------------
    /** 8-byte address blocks, hashed into this many buckets. */
    static constexpr size_t fwd_buckets = 1024;
    using FwdCounts = std::array<uint32_t, fwd_buckets>;

    static size_t
    fwdBucket(Addr byte_addr)
    {
        return (byte_addr >> 3) & (fwd_buckets - 1);
    }

    /**
     * Add @p delta to the buckets of the first and the last byte of
     * [addr, addr+size): every block an access of at most 8 bytes
     * touches, with the byte addresses wrapping as forward()'s do.
     */
    static void
    countBlocks(FwdCounts &counts, Addr addr, unsigned size, int delta)
    {
        counts[fwdBucket(addr)] += delta;
        counts[fwdBucket(addr + size - 1)] += delta;
    }

    CircularQueue<SbEntry> q;

    /** Entries with no posted address. */
    SlotBitmap addrUnposted;

    /** Unexecuted barrier entries. */
    SlotBitmap unexecutedBarriers;

    /**
     * Entries whose posted address is not visible yet (addrVisibleAt
     * in the future when posted). Compacted by expireVisibleAddrs as
     * they become visible, and as they die; bounded by stores posted
     * within asLatency.
     */
    std::vector<SlotRef> addrInFlight;

    /** Entries with a posted address awaiting data (AS two-phase). */
    std::vector<SlotRef> awaitingData;

    /**
     * The forwarding filter: per bucket, two counts per entry with
     * both address and data (one for its first byte's block, one for
     * its last's).
     */
    FwdCounts fwdCount{};
};

} // namespace cwsim

#endif // CWSIM_CPU_STORE_BUFFER_HH
