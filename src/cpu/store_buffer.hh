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
 * StoreBuffer is an *indexed* FIFO: alongside the age-ordered circular
 * queue it maintains
 *   - O(1) seq -> slot and traceIdx -> slot lookup maps,
 *   - a byte-granular ByteSeqIndex over executed store data (the
 *     forwarding lookup: youngest older store writing a byte),
 *   - an age-ordered set of stores whose address is still unknown and
 *     a small list of stores whose posted address is not yet visible
 *     (the ambiguity test of the NO/SEL hold and the AS scheduler),
 *   - a list of address-only stores (posted address, data pending —
 *     the AS scheduler's known-true-dependence test),
 *   - an age-ordered set of unexecuted barrier stores (the STORE
 *     gate), and
 *   - per-synonym producer lists (the SYNC dispatch lookup).
 * Entry fields that feed an index (addr/data/executed, and the
 * barrier/producerSynonym predictions fixed at allocate) may only be
 * written through the mutating API below; the release flags
 * (committed, releasing, released) may be poked directly via slot().
 * selfCheck() rebuilds every index from the queue and is run at check
 * level 2.
 */

#ifndef CWSIM_CPU_STORE_BUFFER_HH
#define CWSIM_CPU_STORE_BUFFER_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/addr_range.hh"
#include "base/arena.hh"
#include "base/byte_index.hh"
#include "base/circular_queue.hh"
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
    explicit StoreBuffer(size_t capacity) : q(capacity) {}

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
     * Direct slot access. Writing an indexed field through this would
     * corrupt the indexes — use the mutating API; only the commit and
     * release flags are fair game.
     */
    SbEntry &slot(size_t idx) { return q.slot(idx); }
    const SbEntry &slot(size_t idx) const { return q.slot(idx); }

    // ---- lifecycle ---------------------------------------------------
    /**
     * Dispatch a store: append and index. The entry carries its
     * dispatch-time predictions (barrier, producerSynonym).
     * @return its stable slot.
     */
    size_t allocate(SbEntry entry);

    /** Retire the (released) head entry and unindex it. */
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
    /** O(1) lookup by sequence number (nullptr if not resident). */
    SbEntry *findSeq(InstSeqNum seq);
    const SbEntry *findSeq(InstSeqNum seq) const;

    /** O(1) lookup by trace index (nullptr if not resident). */
    const SbEntry *findTraceIdx(TraceIndex idx) const;

    /** The stable slot of resident entry @p entry. */
    size_t slotOf(const SbEntry &entry) const { return q.slotOf(entry); }

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
        return !addrUnposted.empty() && *addrUnposted.begin() < seq;
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
        if (unexecutedBarriers.empty() ||
            *unexecutedBarriers.begin() >= seq) {
            return nullptr;
        }
        return findSeq(*unexecutedBarriers.begin());
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
     * Forwarding: the youngest store older than @p before with valid
     * data covering @p byte_addr. @return true and fill @p out.
     */
    bool
    newestDataBefore(Addr byte_addr, InstSeqNum before,
                     ByteSeqIndex::Ref &out) const
    {
        return dataBytes.newestBefore(byte_addr, before, out);
    }

    /**
     * SYNC dispatch: the youngest uncommitted store older than
     * @p before producing @p syn (nullptr if none).
     */
    const SbEntry *youngestSynonymProducerBefore(Synonym syn,
                                                 InstSeqNum before) const;

    /**
     * Rebuild every index from the queue and compare (check level 2).
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
        return slotLive(ref.slot) && q.slot(ref.slot).seq == ref.seq;
    }

    bool slotLive(size_t slot_idx) const;
    void unindexEntry(const SbEntry &entry, size_t slot_idx);
    static void eraseRef(ArenaVec<SlotRef> &v, size_t slot_idx);

    CircularQueue<SbEntry> q;

    // All index containers draw from the per-run arena: their nodes
    // churn once per store, never outlive the Processor, and are
    // reclaimed wholesale between runs.
    ArenaMap<InstSeqNum, size_t> bySeq;
    ArenaMap<TraceIndex, size_t> byTrace;

    /** Bytes of entries with addrValid && dataValid. */
    ByteSeqIndex dataBytes;

    /** Seqs of resident entries with no posted address, age-ordered. */
    ArenaSet<InstSeqNum> addrUnposted;

    /**
     * Entries whose posted address is not visible yet (addrVisibleAt
     * in the future when posted). Compacted by expireVisibleAddrs as
     * they become visible, and as they die; bounded by stores posted
     * within asLatency.
     */
    ArenaVec<SlotRef> addrInFlight;

    /** Entries with a posted address awaiting data (AS two-phase). */
    ArenaVec<SlotRef> awaitingData;

    /** Seqs of resident unexecuted barrier entries, age-ordered. */
    ArenaSet<InstSeqNum> unexecutedBarriers;

    /** SYNC: producer entries per synonym, in allocation (age) order. */
    ArenaMap<Synonym, ArenaVec<SlotRef>> bySynonym;
};

} // namespace cwsim

#endif // CWSIM_CPU_STORE_BUFFER_HH
