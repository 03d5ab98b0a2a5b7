#include "cpu/store_buffer.hh"

#include "base/str.hh"

namespace cwsim
{

void
StoreBuffer::eraseRef(std::vector<SlotRef> &v, size_t slot_idx)
{
    for (size_t i = v.size(); i-- > 0;) {
        if (v[i].slot == slot_idx)
            v.erase(v.begin() + i);
    }
}

size_t
StoreBuffer::allocate(SbEntry entry)
{
    panic_if(entry.addrValid || entry.dataValid || entry.executed,
             "store allocated with execution state already set");
    bool barrier = entry.barrier;
    size_t slot_idx = q.pushBack(std::move(entry));
    addrUnposted.set(slot_idx);
    if (barrier)
        unexecutedBarriers.set(slot_idx);
    return slot_idx;
}

void
StoreBuffer::forget(size_t slot_idx)
{
    addrUnposted.clear(slot_idx);
    unexecutedBarriers.clear(slot_idx);
    eraseRef(addrInFlight, slot_idx);
    eraseRef(awaitingData, slot_idx);
}

void
StoreBuffer::popFront()
{
    forget(q.slotOf(q.front()));
    q.popFront();
}

void
StoreBuffer::squashYoungerThan(InstSeqNum keep)
{
    // Committed entries are never squashed: stop at the first one from
    // the tail, exactly like the historical truncation loop.
    while (!q.empty() && !q.back().committed && q.back().seq > keep) {
        forget(q.slotOf(q.back()));
        q.truncate(1);
    }
}

void
StoreBuffer::postAddr(size_t slot_idx, Addr addr, Tick visible_at,
                      Tick now)
{
    SbEntry &entry = q.slot(slot_idx);
    panic_if(entry.addrValid, "postAddr on entry with a posted address");
    entry.addr = addr;
    entry.addrValid = true;
    entry.addrVisibleAt = visible_at;
    addrUnposted.clear(slot_idx);
    if (visible_at > now)
        addrInFlight.push_back(SlotRef{slot_idx, entry.seq});
    if (!entry.dataValid)
        awaitingData.push_back(SlotRef{slot_idx, entry.seq});
}

void
StoreBuffer::postData(size_t slot_idx, uint64_t data)
{
    SbEntry &entry = q.slot(slot_idx);
    panic_if(entry.dataValid, "postData on entry with posted data");
    entry.data = data;
    entry.dataValid = true;
    if (entry.addrValid) {
        // Usually the last-posted entry; the back-scan is O(1) for
        // single-phase (NAS) stores, which post address then data in
        // the same cycle.
        eraseRef(awaitingData, slot_idx);
    }
}

void
StoreBuffer::setExecuted(size_t slot_idx, Tick now)
{
    SbEntry &entry = q.slot(slot_idx);
    panic_if(!entry.addrValid || !entry.dataValid,
             "setExecuted on an incomplete store");
    entry.executed = true;
    entry.executedAt = now;
    unexecutedBarriers.clear(slot_idx);
}

void
StoreBuffer::invalidateForReplay(size_t slot_idx)
{
    SbEntry &entry = q.slot(slot_idx);
    eraseRef(addrInFlight, slot_idx);
    eraseRef(awaitingData, slot_idx);
    entry.addr = invalid_addr;
    entry.addrValid = false;
    entry.dataValid = false;
    entry.executed = false;
    addrUnposted.set(slot_idx);
    if (entry.barrier)
        unexecutedBarriers.set(slot_idx);
}

const SbEntry *
StoreBuffer::invisibleOlderThan(InstSeqNum seq, Tick now) const
{
    for (const SlotRef &ref : addrInFlight) {
        if (!refValid(ref))
            continue;
        const SbEntry &entry = q.slot(ref.slot);
        if (entry.addrValid && now < entry.addrVisibleAt &&
            entry.seq < seq && !entry.released) {
            return &entry;
        }
    }
    return nullptr;
}

void
StoreBuffer::expireVisibleAddrs(Tick now)
{
    // A posted address never un-posts without passing through
    // invalidateForReplay, which drops the ref, so a visible or dead
    // ref can go.
    size_t keep = 0;
    for (size_t i = 0; i < addrInFlight.size(); ++i) {
        const SlotRef ref = addrInFlight[i];
        if (!refValid(ref))
            continue;
        const SbEntry &entry = q.slot(ref.slot);
        if (!entry.addrValid || now >= entry.addrVisibleAt)
            continue;
        addrInFlight[keep++] = ref;
    }
    addrInFlight.resize(keep);
}

const SbEntry *
StoreBuffer::blockingOlderStore(Addr addr, unsigned size,
                                InstSeqNum seq, Tick now) const
{
    // postData erases a ref once its data arrives.
    for (const SlotRef &ref : awaitingData) {
        if (!refValid(ref))
            continue;
        const SbEntry &entry = q.slot(ref.slot);
        if (entry.seq < seq && now >= entry.addrVisibleAt &&
            !entry.released && entry.overlaps(addr, size)) {
            return &entry;
        }
    }
    return nullptr;
}

unsigned
StoreBuffer::forward(Addr addr, unsigned size, InstSeqNum before,
                     uint64_t &value, InstSeqNum *sources) const
{
    // Youngest first from the youngest entry older than the load, so
    // the first writer a byte meets is its youngest older writer.
    const unsigned all = (1u << size) - 1;
    unsigned got = 0;
    for (size_t pos = lowerBound(&SbEntry::seq, before);
         pos-- > 0 && got != all;) {
        const SbEntry &entry = q.at(pos);
        if (!entry.dataValid || !entry.overlaps(addr, size))
            continue;
        for (unsigned i = 0; i < size; ++i) {
            Addr byte_addr = addr + i;
            if ((got >> i & 1) || !entry.coversByte(byte_addr))
                continue;
            got |= 1u << i;
            value |= static_cast<uint64_t>(entry.byteAt(byte_addr))
                     << (8 * i);
            if (sources)
                sources[i] = entry.seq;
        }
    }
    return got;
}

const SbEntry *
StoreBuffer::youngestSynonymProducerBefore(Synonym syn,
                                           InstSeqNum before) const
{
    // Youngest first; committed entries form the FIFO's prefix, so
    // the first one ends the search.
    for (size_t pos = q.size(); pos-- > 0;) {
        const SbEntry &entry = q.at(pos);
        if (entry.committed)
            break;
        if (entry.seq < before && entry.producerSynonym == syn)
            return &entry;
    }
    return nullptr;
}

std::string
StoreBuffer::selfCheck(Tick now) const
{
    size_t n_unposted = 0;
    size_t n_barriers = 0;
    for (size_t i = 0; i < q.size(); ++i) {
        const SbEntry &e = q.at(i);
        size_t slot_idx = q.slotOf(e);

        if (i > 0 && q.at(i - 1).seq >= e.seq)
            return strfmt("SB seq order broken at pos %zu", i);
        if (i > 0 && q.at(i - 1).traceIdx >= e.traceIdx)
            return strfmt("SB trace order broken at pos %zu", i);
        if (i > 0 && e.committed && !q.at(i - 1).committed)
            return strfmt("SB committed entry at pos %zu follows an "
                          "uncommitted one", i);

        if (addrUnposted.test(slot_idx) != !e.addrValid) {
            return strfmt("addrUnposted bit wrong for seq %llu",
                          static_cast<unsigned long long>(e.seq));
        }
        n_unposted += !e.addrValid;
        if (e.addrValid && now < e.addrVisibleAt) {
            bool found = false;
            for (const SlotRef &ref : addrInFlight)
                found |= ref.slot == slot_idx && ref.seq == e.seq;
            if (!found) {
                return strfmt("addrInFlight missing seq %llu",
                              static_cast<unsigned long long>(e.seq));
            }
        }

        if (e.addrValid && !e.dataValid) {
            bool found = false;
            for (const SlotRef &ref : awaitingData)
                found |= ref.slot == slot_idx && ref.seq == e.seq;
            if (!found) {
                return strfmt("awaitingData missing seq %llu",
                              static_cast<unsigned long long>(e.seq));
            }
        }

        bool barrier = e.barrier && !e.executed;
        if (unexecutedBarriers.test(slot_idx) != barrier) {
            return strfmt("unexecutedBarriers %s seq %llu",
                          barrier ? "missing" : "holds",
                          static_cast<unsigned long long>(e.seq));
        }
        n_barriers += barrier;
    }

    // Bits on slots no entry occupies.
    if (addrUnposted.count() != n_unposted)
        return strfmt("addrUnposted has %zu bits, expected %zu",
                      addrUnposted.count(), n_unposted);
    if (unexecutedBarriers.count() != n_barriers)
        return strfmt("unexecutedBarriers has %zu bits, expected %zu",
                      unexecutedBarriers.count(), n_barriers);

    // Lazily-compacted lists may hold stale refs, but every live ref
    // must describe its entry truthfully.
    for (const SlotRef &ref : addrInFlight) {
        if (!refValid(ref))
            continue;
        if (!q.slot(ref.slot).addrValid)
            return "addrInFlight ref to unposted address";
    }
    for (const SlotRef &ref : awaitingData) {
        if (!refValid(ref))
            continue;
        const SbEntry &e = q.slot(ref.slot);
        if (!e.addrValid || e.dataValid)
            return "awaitingData ref to wrong-state entry";
    }
    return "";
}

} // namespace cwsim
