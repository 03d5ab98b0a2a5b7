#include "mdp/mdp_table.hh"

#include "base/intmath.hh"
#include "base/logging.hh"
#include "obs/trace.hh"

namespace cwsim
{

MdpTable::MdpTable(const MdpConfig &cfg)
    : assoc(cfg.mdptAssoc), counterBits(cfg.counterBits),
      predictThreshold(cfg.predictThreshold), nextSynonym(0),
      useCounter(0)
{
    fatal_if(cfg.mdptAssoc == 0, "MDPT associativity must be at least 1");
    fatal_if(cfg.mdptEntries % cfg.mdptAssoc != 0,
             "MDPT entries not divisible by associativity");
    sets = cfg.mdptEntries / cfg.mdptAssoc;
    fatal_if(!isPowerOf2(sets), "MDPT set count must be a power of two");
    entries.assign(static_cast<size_t>(sets) * assoc, Entry{});
    for (Entry &e : entries)
        e.confidence = SatCounter(counterBits, 0);
}

unsigned
MdpTable::indexOf(Addr pc) const
{
    return static_cast<unsigned>((pc >> 2) & (sets - 1));
}

MdpTable::Entry *
MdpTable::find(Addr pc)
{
    size_t base = static_cast<size_t>(indexOf(pc)) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = entries[base + w];
        if (e.valid && e.tag == pc) {
            e.lastUse = ++useCounter;
            return &e;
        }
    }
    return nullptr;
}

const MdpTable::Entry *
MdpTable::find(Addr pc) const
{
    size_t base = static_cast<size_t>(indexOf(pc)) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        const Entry &e = entries[base + w];
        if (e.valid && e.tag == pc)
            return &e;
    }
    return nullptr;
}

MdpTable::Entry &
MdpTable::allocate(Addr pc)
{
    if (Entry *hit = find(pc))
        return *hit;

    size_t base = static_cast<size_t>(indexOf(pc)) * assoc;
    Entry *victim = &entries[base];
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = entries[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    ++allocations;
    if (__builtin_expect(dprof != nullptr, 0)) {
        // The victim still holding valid state means LRU displaced a
        // live prediction: attribute the eviction to the displaced PC.
        if (victim->valid)
            dprof->noteMdptEvict(victim->tag);
        dprof->noteMdptAlloc(pc);
    }
    victim->valid = true;
    victim->tag = pc;
    victim->confidence = SatCounter(counterBits, 0);
    victim->synonym = invalid_synonym;
    victim->lastUse = ++useCounter;
    return *victim;
}

bool
MdpTable::recordMissSpeculation(Addr pc)
{
    Entry &e = allocate(pc);
    e.confidence.increment();
    bool predicts = e.confidence.value() >= predictThreshold;
    if (__builtin_expect(dprof != nullptr, 0))
        dprof->noteMdptMissSpec(pc);
    CWSIM_TRACE(MDP, "miss-speculation recorded: pc 0x%llx "
                "confidence %u%s",
                static_cast<unsigned long long>(pc),
                e.confidence.value(),
                predicts ? " (predicting)" : "");
    return predicts;
}

bool
MdpTable::predictsDependence(Addr pc) const
{
    const Entry *e = find(pc);
    return e && e->confidence.value() >= predictThreshold;
}

Synonym
MdpTable::synonymOf(Addr pc) const
{
    const Entry *e = find(pc);
    return e ? e->synonym : invalid_synonym;
}

Synonym
MdpTable::pair(Addr load_pc, Addr store_pc)
{
    // Capture the store's synonym by value before touching the load:
    // allocate(load_pc) can evict the store's entry from the shared set
    // (same-set at low associativity), after which the reference would
    // alias the load's freshly reset entry and the store's existing
    // chain membership would be read as invalid.
    Synonym store_syn = allocate(store_pc).synonym;
    Entry &load_e = allocate(load_pc);

    // Reuse an existing synonym from either side so that chains merge
    // (the level of indirection of Section 3.6); prefer the store's.
    Synonym syn = store_syn;
    if (syn == invalid_synonym)
        syn = load_e.synonym;
    bool merged = syn != invalid_synonym;
    if (!merged)
        syn = nextSynonym++;
    if (__builtin_expect(dprof != nullptr, 0))
        dprof->noteMdptPair(load_pc, store_pc, merged);

    // Re-find the store: it may have been evicted by the load's
    // allocation, in which case only the load keeps the synonym (one
    // set slot cannot hold both). Probe without a recency bump — the
    // allocate above already counted as the store's use.
    size_t store_base = static_cast<size_t>(indexOf(store_pc)) * assoc;
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = entries[store_base + w];
        if (e.valid && e.tag == store_pc) {
            e.synonym = syn;
            break;
        }
    }
    load_e.synonym = syn;
    ++pairings;
    CWSIM_TRACE(MDP, "paired load pc 0x%llx with store pc 0x%llx "
                "under synonym %llu",
                static_cast<unsigned long long>(load_pc),
                static_cast<unsigned long long>(store_pc),
                static_cast<unsigned long long>(syn));
    return syn;
}

size_t
MdpTable::validEntries() const
{
    size_t n = 0;
    for (const Entry &e : entries)
        n += e.valid ? 1 : 0;
    return n;
}

double
MdpTable::meanConfidence() const
{
    uint64_t sum = 0;
    size_t n = 0;
    for (const Entry &e : entries) {
        if (!e.valid)
            continue;
        sum += e.confidence.value();
        ++n;
    }
    return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

bool
MdpTable::dropRandomEntry(Random &rng)
{
    size_t valid = validEntries();
    if (valid == 0)
        return false;
    size_t pick = rng.below(valid);
    for (Entry &e : entries) {
        if (!e.valid)
            continue;
        if (pick-- == 0) {
            e.valid = false;
            e.tag = invalid_addr;
            e.confidence = SatCounter(counterBits, 0);
            e.synonym = invalid_synonym;
            return true;
        }
    }
    return false;
}

bool
MdpTable::corruptRandomEntry(Random &rng)
{
    size_t valid = validEntries();
    if (valid == 0)
        return false;
    size_t pick = rng.below(valid);
    for (Entry &e : entries) {
        if (!e.valid)
            continue;
        if (pick-- == 0) {
            // Scramble prediction state only; the tag stays put so the
            // entry keeps mapping to a real static instruction.
            e.confidence = SatCounter(
                counterBits,
                static_cast<unsigned>(
                    rng.below((1ull << counterBits))));
            if (nextSynonym > 0 && rng.chance(0.5))
                e.synonym = static_cast<Synonym>(
                    rng.below(nextSynonym));
            else
                e.synonym = invalid_synonym;
            return true;
        }
    }
    return false;
}

std::string
MdpTable::sanityCheck() const
{
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (!e.valid) {
            if (e.synonym != invalid_synonym)
                return "invalid entry carries a synonym";
            continue;
        }
        if (e.tag == invalid_addr)
            return "valid entry with invalid tag";
        size_t set = i / assoc;
        if (indexOf(e.tag) != set)
            return "entry tag maps to a different set";
        if (e.synonym != invalid_synonym && e.synonym >= nextSynonym)
            return "synonym above the allocation high-water mark";
        if (e.lastUse > useCounter)
            return "recency stamp from the future";
        if (e.confidence.value() >= (1u << counterBits))
            return "confidence counter out of range";
    }
    return "";
}

void
MdpTable::reset()
{
    for (Entry &e : entries) {
        e.valid = false;
        e.tag = invalid_addr;
        e.confidence = SatCounter(counterBits, 0);
        e.synonym = invalid_synonym;
    }
    ++resets;
    CWSIM_TRACE(MDP, "table reset #%llu",
                static_cast<unsigned long long>(resets.value()));
}

} // namespace cwsim
