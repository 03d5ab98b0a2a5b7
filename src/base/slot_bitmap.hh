/**
 * @file
 * A fixed-capacity bitmap over the stable slot indices of a
 * CircularQueue, used to iterate sparse subsets (e.g. the ready
 * instructions of the window, or its memory-issued loads) in age
 * order without scanning every slot.
 *
 * A queue whose head sits at slot h holds its elements oldest first
 * in slots [h, cap), then, wrapped, in [0, h); firstInAge/nextInAge
 * walk the set bits in that order. Iteration uses one find-first-set
 * per 64 slots, and is safe against arbitrary concurrent set/clear of
 * bits at positions other than the one being advanced from: each step
 * re-reads the words from scratch.
 */

#ifndef CWSIM_BASE_SLOT_BITMAP_HH
#define CWSIM_BASE_SLOT_BITMAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace cwsim
{

class SlotBitmap
{
  public:
    static constexpr size_t npos = ~size_t(0);

    explicit SlotBitmap(size_t capacity)
        : cap(capacity), words((capacity + 63) / 64, 0)
    {
        panic_if(capacity == 0, "SlotBitmap capacity must be > 0");
    }

    size_t capacity() const { return cap; }

    void
    set(size_t idx)
    {
        words[idx >> 6] |= uint64_t(1) << (idx & 63);
    }

    void
    clear(size_t idx)
    {
        words[idx >> 6] &= ~(uint64_t(1) << (idx & 63));
    }

    bool
    test(size_t idx) const
    {
        return (words[idx >> 6] >> (idx & 63)) & 1;
    }

    void
    reset()
    {
        for (uint64_t &w : words)
            w = 0;
    }

    bool
    none() const
    {
        for (uint64_t w : words) {
            if (w)
                return false;
        }
        return true;
    }

    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t w : words)
            n += static_cast<size_t>(__builtin_popcountll(w));
        return n;
    }

    /** The first set bit at index >= @p from, or npos. */
    size_t
    nextSet(size_t from) const
    {
        if (from >= cap)
            return npos;
        size_t wi = from >> 6;
        uint64_t w = words[wi] & (~uint64_t(0) << (from & 63));
        while (true) {
            if (w) {
                size_t idx =
                    (wi << 6) +
                    static_cast<size_t>(__builtin_ctzll(w));
                return idx < cap ? idx : npos;
            }
            if (++wi >= words.size())
                return npos;
            w = words[wi];
        }
    }

    /**
     * The oldest set bit of a queue whose head is slot @p head: the
     * first in [head, cap), else the first in [0, head); npos if none.
     */
    size_t
    firstInAge(size_t head) const
    {
        return orWrapped(nextSet(head), head);
    }

    /**
     * The set bit after @p after in age order from @p head (see
     * firstInAge), or npos. @p after need not be set any more.
     */
    size_t
    nextInAge(size_t after, size_t head) const
    {
        size_t idx = nextSet(after + 1);
        if (after < head)
            return idx < head ? idx : npos;
        return orWrapped(idx, head);
    }

  private:
    /** @p idx from a search of [x, cap), x >= head; else wrap. */
    size_t
    orWrapped(size_t idx, size_t head) const
    {
        if (idx != npos || head == 0)
            return idx;
        idx = nextSet(0);
        return idx < head ? idx : npos;
    }

    size_t cap;
    std::vector<uint64_t> words;
};

} // namespace cwsim

#endif // CWSIM_BASE_SLOT_BITMAP_HH
