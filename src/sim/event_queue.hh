/**
 * @file
 * A deterministic event queue driving the event-driven portions of the
 * simulator (cache-miss completions, memory transfers).
 *
 * The CPU pipeline itself is cycle-stepped; each core cycle first drains
 * all events scheduled at or before the current tick. Events with equal
 * ticks fire in (priority, insertion-order) order so simulations are
 * bit-reproducible.
 */

#ifndef CWSIM_SIM_EVENT_QUEUE_HH
#define CWSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "base/inplace_function.hh"
#include "base/types.hh"

namespace cwsim
{

class EventQueue
{
  public:
    using Callback = InplaceFunction;

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * Scheduling in the past (when < curTick()) is a simulator bug.
     */
    void schedule(Tick when, Callback cb, int priority = 0);

    /** Convenience: schedule @p delay ticks from now. */
    void
    scheduleIn(Cycles delay, Callback cb, int priority = 0)
    {
        schedule(curTick_ + delay, std::move(cb), priority);
    }

    /**
     * Advance time to @p now, firing every event with when <= now in
     * order. Events may schedule further events, including at the
     * current tick.
     */
    void runUntil(Tick now);

    /** Fire everything remaining, advancing time as needed. */
    void drain();

    Tick curTick() const { return curTick_; }
    bool empty() const { return heap.empty(); }
    size_t size() const { return heap.size(); }

    uint64_t scheduledCount() const { return numScheduled; }
    uint64_t firedCount() const { return numFired; }

    /** Discard all pending events and reset time and counters. */
    void reset();

  private:
    /**
     * What the heap orders: 24 bytes per event. The callback waits in
     * pool[slot], so sifting moves no callable.
     */
    struct Key
    {
        Tick when;
        int32_t priority;
        uint32_t slot;
        uint64_t seq;
    };
    static_assert(sizeof(Key) == 24, "event keys must stay 24 bytes");

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** Pop the earliest event, advance time to it and run it. */
    void fireNext();

    /** A binary heap under Later: heap.front() fires next. */
    std::vector<Key> heap;
    /** Pending callbacks by slot; freeSlots lists the empty ones. */
    std::vector<Callback> pool;
    std::vector<uint32_t> freeSlots;
    Tick curTick_ = 0;
    uint64_t nextSeq = 0;
    uint64_t numScheduled = 0;
    uint64_t numFired = 0;
};

} // namespace cwsim

#endif // CWSIM_SIM_EVENT_QUEUE_HH
