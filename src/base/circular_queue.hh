/**
 * @file
 * A fixed-capacity circular FIFO used for the reorder buffer, load/store
 * queue, fetch queue and store buffer. Elements keep stable slot indices
 * while resident, and the structure supports truncation from the tail
 * (squash invalidation).
 */

#ifndef CWSIM_BASE_CIRCULAR_QUEUE_HH
#define CWSIM_BASE_CIRCULAR_QUEUE_HH

#include <cstddef>
#include <new>
#include <vector>

#include "base/logging.hh"

namespace cwsim
{

template <typename T>
class CircularQueue
{
  public:
    explicit CircularQueue(size_t capacity)
        : slots(capacity), headIdx(0), count(0)
    {
        panic_if(capacity == 0, "CircularQueue capacity must be > 0");
    }

    size_t capacity() const { return slots.size(); }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == slots.size(); }

    /** Append to the tail; returns the element's stable slot index. */
    size_t
    pushBack(T value)
    {
        panic_if(full(), "pushBack on full CircularQueue");
        size_t slot = physIndex(count);
        slots[slot] = std::move(value);
        ++count;
        return slot;
    }

    /**
     * Append a value-initialized element, built in its slot rather
     * than moved in from a temporary; returns it.
     */
    T &
    emplaceBack()
    {
        panic_if(full(), "emplaceBack on full CircularQueue");
        T &elem = slots[physIndex(count)];
        elem.~T();
        new (&elem) T();
        ++count;
        return elem;
    }

    /** Remove the head element. */
    void
    popFront()
    {
        panic_if(empty(), "popFront on empty CircularQueue");
        ++headIdx;
        if (headIdx == slots.size())
            headIdx = 0;
        --count;
    }

    /** Drop the @p n youngest elements (tail truncation / squash). */
    void
    truncate(size_t n)
    {
        panic_if(n > count, "truncate(%zu) with only %zu elements", n,
                 count);
        count -= n;
    }

    T &front() { return slots[headIdx]; }
    const T &front() const { return slots[headIdx]; }

    T &back() { return at(count - 1); }
    const T &back() const { return at(count - 1); }

    /** Element @p pos positions from the head (0 == head). */
    T &
    at(size_t pos)
    {
        panic_if(pos >= count, "CircularQueue::at(%zu) size %zu", pos,
                 count);
        return slots[physIndex(pos)];
    }

    const T &
    at(size_t pos) const
    {
        panic_if(pos >= count, "CircularQueue::at(%zu) size %zu", pos,
                 count);
        return slots[physIndex(pos)];
    }

    /**
     * Stable slot index of logical position @p pos. Wrap by
     * subtraction rather than %: both operands are < size, and the
     * hardware divide sits in every window walk's inner loop.
     */
    size_t
    physIndex(size_t pos) const
    {
        size_t idx = headIdx + pos;
        if (idx >= slots.size())
            idx -= slots.size();
        return idx;
    }

    /** Direct access by stable slot index. */
    T &slot(size_t idx) { return slots[idx]; }
    const T &slot(size_t idx) const { return slots[idx]; }

    /**
     * Is @p idx the stable slot of a currently-resident element?
     * truncate() only shrinks the count, so tail slots keep their old
     * contents — a slot index recorded before a squash can name a dead
     * element whose fields still look plausible. Index structures that
     * hold slot references must check liveness before dereferencing.
     */
    bool
    slotLive(size_t idx) const
    {
        size_t pos = idx >= headIdx ? idx - headIdx
                                    : idx + slots.size() - headIdx;
        return pos < count;
    }

    /** Stable slot of @p elem, a reference into this queue's storage. */
    size_t
    slotOf(const T &elem) const
    {
        return static_cast<size_t>(&elem - slots.data());
    }

    void
    clear()
    {
        headIdx = 0;
        count = 0;
    }

  private:
    std::vector<T> slots;
    size_t headIdx;
    size_t count;
};

} // namespace cwsim

#endif // CWSIM_BASE_CIRCULAR_QUEUE_HH
