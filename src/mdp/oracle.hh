/**
 * @file
 * The oracle disambiguator and the functional pre-pass that builds it.
 *
 * The pre-pass runs the program through the functional interpreter and
 * records, for every committed dynamic load, the trace index of the
 * most recent store that wrote any byte the load reads. Because the
 * ISA is deterministic, committed-path trace indices in the timing run
 * line up exactly with the pre-pass, so the NAS/ORACLE configuration
 * can wake each load the moment its producing store has executed —
 * "perfect, a priori knowledge of all memory dependences" (Section
 * 3.2).
 *
 * The pre-pass also yields the committed-path trace (consumed by the
 * split-window model of Section 3.7), workload characteristics for
 * Table 1, and golden architectural state for the equivalence tests.
 */

#ifndef CWSIM_MDP_ORACLE_HH
#define CWSIM_MDP_ORACLE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace cwsim
{

/**
 * Per-dynamic-load producing-store information, indexed by trace
 * index in O(1): one bit per trace index up to the last recorded load
 * says whether that load has producers, each 64-bit word of bits
 * carries the number of sets recorded before it (its rank), and the
 * sets sit in one vector in trace order. A lookup is a bit test and a
 * popcount.
 */
class OracleDeps
{
  public:
    /**
     * The distinct stores that produce at least one byte of a load,
     * oldest first. A load reads at most 8 bytes, so at most 8 stores.
     * Partial overlaps make the full set necessary: waking the load
     * after only the youngest producer would forward stale bytes from
     * the ranges the other producers cover.
     */
    struct ProducerSet
    {
        std::array<TraceIndex, 8> stores{};
        uint8_t count = 0;
    };

    /**
     * Trace index of the last store conflicting with the load at trace
     * index @p load_idx, or invalid_trace_index if the load has no
     * producer.
     */
    TraceIndex
    producerOf(TraceIndex load_idx) const
    {
        const ProducerSet *set = producersOf(load_idx);
        return set ? set->stores[set->count - 1] : invalid_trace_index;
    }

    /**
     * All distinct byte producers, or nullptr if the load has none.
     * The pointer stays valid until the next record() or
     * shrinkToFit().
     */
    const ProducerSet *
    producersOf(TraceIndex load_idx) const
    {
        TraceIndex w = load_idx / 64;
        if (w >= words.size())
            return nullptr;
        const Word &word = words[w];
        uint64_t bit = uint64_t(1) << (load_idx % 64);
        if (!(word.bits & bit))
            return nullptr;
        return &sets[word.rank + std::popcount(word.bits & (bit - 1))];
    }

    /** Record the set of the load at @p load_idx, past every earlier. */
    void
    record(TraceIndex load_idx, const ProducerSet &set)
    {
        while (words.size() <= load_idx / 64)
            words.push_back(Word{0, sets.size()});
        Word &word = words.back();
        uint64_t bit = uint64_t(1) << (load_idx % 64);
        panic_if(load_idx / 64 + 1 != words.size() ||
                     (word.bits & ~(bit - 1)),
                 "oracle record for trace index %llu out of order",
                 static_cast<unsigned long long>(load_idx));
        word.bits |= bit;
        sets.push_back(set);
    }

    /** Release the spare capacity growth left (the pre-pass's end). */
    void
    shrinkToFit()
    {
        words.shrink_to_fit();
        sets.shrink_to_fit();
    }

    size_t size() const { return sets.size(); }

  private:
    struct Word
    {
        uint64_t bits;
        /** Sets recorded for trace indices below this word's first. */
        uint64_t rank;
    };

    std::vector<Word> words;
    std::vector<ProducerSet> sets;
};

/** One committed-path instruction, as the split-window model needs it. */
struct TraceEntry
{
    Addr pc = 0;
    StaticInst inst;
    Addr memAddr = invalid_addr;
    uint8_t memSize = 0;
    bool taken = false;
};

struct PrepassOptions
{
    /** Stop after this many committed instructions (0 = run to HALT). */
    uint64_t maxInsts = 0;
    /** Record the full committed trace (split-window model input). */
    bool recordTrace = false;
};

struct PrepassResult
{
    OracleDeps deps;
    std::vector<TraceEntry> trace;

    uint64_t instCount = 0;
    uint64_t loadCount = 0;
    uint64_t storeCount = 0;
    uint64_t branchCount = 0;
    uint64_t takenBranches = 0;
    uint64_t fpOps = 0;
    bool halted = false;

    /** Golden final state for the equivalence tests. */
    ArchState finalState;
    uint64_t memFingerprint = 0;
};

/** Run the functional pre-pass over @p program. */
PrepassResult runPrepass(const Program &program,
                         const PrepassOptions &opts = {});

} // namespace cwsim

#endif // CWSIM_MDP_ORACLE_HH
