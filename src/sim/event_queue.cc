#include "sim/event_queue.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cwsim
{

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    panic_if(when < curTick_,
             "event scheduled in the past (when=%llu, now=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(curTick_));
    uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<uint32_t>(pool.size());
        pool.push_back(std::move(cb));
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
        pool[slot] = std::move(cb);
    }
    heap.push_back(Key{when, priority, slot, nextSeq++});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++numScheduled;
}

void
EventQueue::fireNext()
{
    std::pop_heap(heap.begin(), heap.end(), Later{});
    Key k = heap.back();
    heap.pop_back();
    curTick_ = k.when;
    ++numFired;
    // Move out before running: the callback may schedule new events,
    // which can reuse this slot or grow the pool.
    Callback cb = std::move(pool[k.slot]);
    freeSlots.push_back(k.slot);
    cb();
}

void
EventQueue::runUntil(Tick now)
{
    while (!heap.empty() && heap.front().when <= now)
        fireNext();
    if (curTick_ < now)
        curTick_ = now;
}

void
EventQueue::drain()
{
    while (!heap.empty())
        fireNext();
}

void
EventQueue::reset()
{
    heap.clear();
    pool.clear();
    freeSlots.clear();
    curTick_ = 0;
    nextSeq = 0;
    // Counters too: a reused queue must not bleed scheduled/fired
    // counts from a previous run into the next one's statistics.
    numScheduled = 0;
    numFired = 0;
}

} // namespace cwsim
