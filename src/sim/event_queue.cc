#include "sim/event_queue.hh"

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
    heap.push(Entry{when, priority, nextSeq++, std::move(cb)});
    ++numScheduled;
}

void
EventQueue::fireNext()
{
    // Move out before popping: the callback may schedule new events.
    // pop() only destroys the moved-from top, so the cast is safe.
    Entry e = std::move(const_cast<Entry &>(heap.top()));
    heap.pop();
    curTick_ = e.when;
    ++numFired;
    e.cb();
}

void
EventQueue::runUntil(Tick now)
{
    while (!heap.empty() && heap.top().when <= now)
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
    heap = decltype(heap)();
    curTick_ = 0;
    nextSeq = 0;
    // Counters too: a reused queue must not bleed scheduled/fired
    // counts from a previous run into the next one's statistics.
    numScheduled = 0;
    numFired = 0;
}

} // namespace cwsim
