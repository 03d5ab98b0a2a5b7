/**
 * @file
 * An n-bit saturating counter, the workhorse of every predictor in the
 * branch-prediction and memory-dependence-prediction subsystems.
 */

#ifndef CWSIM_BASE_SAT_COUNTER_HH
#define CWSIM_BASE_SAT_COUNTER_HH

#include <cstdint>

#include "base/logging.hh"

namespace cwsim
{

class SatCounter
{
  public:
    /**
     * @param num_bits Width of the counter (1..16).
     * @param initial Initial (and post-reset) count.
     */
    explicit SatCounter(unsigned num_bits = 2, unsigned initial = 0)
    {
        panic_if(num_bits == 0 || num_bits > 16,
                 "SatCounter width %u out of range", num_bits);
        unsigned max_count = (1u << num_bits) - 1;
        panic_if(initial > max_count,
                 "SatCounter initial value %u exceeds max %u", initial,
                 max_count);
        maxCount = static_cast<uint16_t>(max_count);
        initialCount = static_cast<uint16_t>(initial);
        count = initialCount;
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        if (count < maxCount)
            ++count;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (count > 0)
            --count;
    }

    void reset() { count = initialCount; }

    unsigned value() const { return count; }
    unsigned max() const { return maxCount; }
    bool saturated() const { return count == maxCount; }

    /** True when the counter is in its upper half (the "taken" side). */
    bool
    isSet() const
    {
        return count > maxCount / 2;
    }

  private:
    // 16 bits each: the branch predictor holds three 64K-entry tables.
    uint16_t maxCount;
    uint16_t initialCount;
    uint16_t count;
};

static_assert(sizeof(SatCounter) == 6, "SatCounter is three uint16_t");

} // namespace cwsim

#endif // CWSIM_BASE_SAT_COUNTER_HH
