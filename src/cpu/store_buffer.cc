#include "cpu/store_buffer.hh"

#include "base/str.hh"

namespace cwsim
{

bool
StoreBuffer::slotLive(size_t slot_idx) const
{
    return q.slotLive(slot_idx);
}

void
StoreBuffer::eraseRef(ArenaVec<SlotRef> &v, size_t slot_idx)
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
    InstSeqNum seq = entry.seq;
    TraceIndex trace_idx = entry.traceIdx;
    Synonym syn = entry.producerSynonym;
    bool barrier = entry.barrier;
    size_t slot_idx = q.pushBack(std::move(entry));
    bySeq.emplace(seq, slot_idx);
    byTrace.emplace(trace_idx, slot_idx);
    addrUnposted.insert(seq);
    if (barrier)
        unexecutedBarriers.insert(seq);
    if (syn != invalid_synonym)
        bySynonym[syn].push_back(SlotRef{slot_idx, seq});
    return slot_idx;
}

void
StoreBuffer::unindexEntry(const SbEntry &entry, size_t slot_idx)
{
    bySeq.erase(entry.seq);
    byTrace.erase(entry.traceIdx);
    if (entry.addrValid && entry.dataValid)
        dataBytes.remove(entry.addr, entry.size, entry.seq);
    addrUnposted.erase(entry.seq);
    eraseRef(addrInFlight, slot_idx);
    eraseRef(awaitingData, slot_idx);
    if (entry.barrier)
        unexecutedBarriers.erase(entry.seq);
    if (entry.producerSynonym != invalid_synonym) {
        auto it = bySynonym.find(entry.producerSynonym);
        if (it != bySynonym.end()) {
            eraseRef(it->second, slot_idx);
            // Keep the list even when empty: the synonym working set
            // is small and the same producer PC allocates again soon.
        }
    }
}

void
StoreBuffer::popFront()
{
    const SbEntry &entry = q.front();
    unindexEntry(entry, q.slotOf(entry));
    q.popFront();
}

void
StoreBuffer::squashYoungerThan(InstSeqNum keep)
{
    // Committed entries are never squashed: stop at the first one from
    // the tail, exactly like the historical truncation loop.
    while (!q.empty() && !q.back().committed && q.back().seq > keep) {
        const SbEntry &entry = q.back();
        unindexEntry(entry, q.slotOf(entry));
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
    addrUnposted.erase(entry.seq);
    if (visible_at > now)
        addrInFlight.push_back(SlotRef{slot_idx, entry.seq});
    if (entry.dataValid)
        dataBytes.add(entry.addr, entry.size, entry.seq, slot_idx);
    else
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
        dataBytes.add(entry.addr, entry.size, entry.seq, slot_idx);
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
    if (entry.barrier)
        unexecutedBarriers.erase(entry.seq);
}

void
StoreBuffer::invalidateForReplay(size_t slot_idx)
{
    SbEntry &entry = q.slot(slot_idx);
    if (entry.addrValid && entry.dataValid)
        dataBytes.remove(entry.addr, entry.size, entry.seq);
    eraseRef(addrInFlight, slot_idx);
    eraseRef(awaitingData, slot_idx);
    entry.addr = invalid_addr;
    entry.addrValid = false;
    entry.dataValid = false;
    entry.executed = false;
    addrUnposted.insert(entry.seq);
    if (entry.barrier)
        unexecutedBarriers.insert(entry.seq);
}

SbEntry *
StoreBuffer::findSeq(InstSeqNum seq)
{
    auto it = bySeq.find(seq);
    return it == bySeq.end() ? nullptr : &q.slot(it->second);
}

const SbEntry *
StoreBuffer::findSeq(InstSeqNum seq) const
{
    auto it = bySeq.find(seq);
    return it == bySeq.end() ? nullptr : &q.slot(it->second);
}

const SbEntry *
StoreBuffer::findTraceIdx(TraceIndex idx) const
{
    auto it = byTrace.find(idx);
    return it == byTrace.end() ? nullptr : &q.slot(it->second);
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

const SbEntry *
StoreBuffer::youngestSynonymProducerBefore(Synonym syn,
                                           InstSeqNum before) const
{
    auto it = bySynonym.find(syn);
    if (it == bySynonym.end())
        return nullptr;
    // Allocation order == age order; walk youngest-first.
    const ArenaVec<SlotRef> &v = it->second;
    for (size_t i = v.size(); i-- > 0;) {
        if (!refValid(v[i]))
            continue;
        const SbEntry &entry = q.slot(v[i].slot);
        if (entry.seq < before && !entry.committed)
            return &entry;
    }
    return nullptr;
}

std::string
StoreBuffer::selfCheck(Tick now) const
{
    size_t n_data_bytes = 0;
    size_t n_unposted = 0;
    size_t n_barriers = 0;
    for (size_t i = 0; i < q.size(); ++i) {
        const SbEntry &e = q.at(i);
        size_t slot_idx = q.slotOf(e);

        if (i > 0 && q.at(i - 1).seq >= e.seq)
            return strfmt("SB seq order broken at pos %zu", i);

        auto seq_it = bySeq.find(e.seq);
        if (seq_it == bySeq.end() || seq_it->second != slot_idx) {
            return strfmt("bySeq missing/wrong for seq %llu",
                          static_cast<unsigned long long>(e.seq));
        }
        auto trc_it = byTrace.find(e.traceIdx);
        if (trc_it == byTrace.end() || trc_it->second != slot_idx) {
            return strfmt("byTrace missing/wrong for trace %llu",
                          static_cast<unsigned long long>(e.traceIdx));
        }

        if (!e.addrValid) {
            ++n_unposted;
            if (!addrUnposted.count(e.seq)) {
                return strfmt("addrUnposted missing seq %llu",
                              static_cast<unsigned long long>(e.seq));
            }
        } else if (now < e.addrVisibleAt) {
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

        if (e.addrValid && e.dataValid) {
            n_data_bytes += e.size;
            for (unsigned b = 0; b < e.size; ++b) {
                // The youngest indexed writer of this byte at or below
                // e.seq must be e itself.
                ByteSeqIndex::Ref ref;
                if (!dataBytes.newestBefore(e.addr + b, e.seq + 1,
                                            ref) ||
                    ref.seq != e.seq || ref.slot != slot_idx) {
                    return strfmt("dataBytes missing byte 0x%llx of "
                                  "seq %llu",
                                  static_cast<unsigned long long>(
                                      e.addr + b),
                                  static_cast<unsigned long long>(
                                      e.seq));
                }
            }
        }

        if (e.barrier && !e.executed) {
            ++n_barriers;
            if (!unexecutedBarriers.count(e.seq)) {
                return strfmt("unexecutedBarriers missing seq %llu",
                              static_cast<unsigned long long>(e.seq));
            }
        }

        if (e.producerSynonym != invalid_synonym) {
            auto syn_it = bySynonym.find(e.producerSynonym);
            bool found = false;
            if (syn_it != bySynonym.end()) {
                for (const SlotRef &ref : syn_it->second)
                    found |= ref.slot == slot_idx && ref.seq == e.seq;
            }
            if (!found) {
                return strfmt("bySynonym missing seq %llu",
                              static_cast<unsigned long long>(e.seq));
            }
        }
    }

    if (bySeq.size() != q.size())
        return strfmt("bySeq has %zu entries, SB %zu", bySeq.size(),
                      q.size());
    if (byTrace.size() != q.size())
        return strfmt("byTrace has %zu entries, SB %zu", byTrace.size(),
                      q.size());
    if (addrUnposted.size() != n_unposted)
        return strfmt("addrUnposted has %zu entries, expected %zu",
                      addrUnposted.size(), n_unposted);
    if (unexecutedBarriers.size() != n_barriers)
        return strfmt("unexecutedBarriers has %zu entries, expected %zu",
                      unexecutedBarriers.size(), n_barriers);
    if (dataBytes.size() != n_data_bytes)
        return strfmt("dataBytes indexes %zu bytes, expected %zu",
                      dataBytes.size(), n_data_bytes);
    if (std::string err = dataBytes.selfCheck(); !err.empty())
        return "dataBytes: " + err;

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
    for (const auto &[syn, v] : bySynonym) {
        for (const SlotRef &ref : v) {
            if (!refValid(ref))
                return "bySynonym holds a dead ref";
            if (q.slot(ref.slot).producerSynonym != syn)
                return "bySynonym ref with mismatched synonym";
        }
    }
    return "";
}

} // namespace cwsim
