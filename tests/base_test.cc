/**
 * @file
 * Unit tests for the base substrate: bitfields, integer math, the
 * deterministic PRNG, saturating counters, circular queues and string
 * helpers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <thread>

#include "base/addr_range.hh"
#include "base/bitfield.hh"
#include "base/circular_queue.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/sat_counter.hh"
#include "base/sim_error.hh"
#include "base/slot_bitmap.hh"
#include "base/str.hh"

namespace cwsim
{
namespace
{

TEST(Bitfield, MaskWidths)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(16), 0xffffu);
    EXPECT_EQ(mask(32), 0xffffffffu);
    EXPECT_EQ(mask(64), ~uint64_t(0));
}

TEST(Bitfield, ExtractBits)
{
    uint64_t v = 0xdeadbeefcafef00dull;
    EXPECT_EQ(bits(v, 3, 0), 0xdu);
    EXPECT_EQ(bits(v, 15, 0), 0xf00du);
    EXPECT_EQ(bits(v, 63, 48), 0xdeadu);
    EXPECT_EQ(bits(v, 0), 1u);
    EXPECT_EQ(bits(v, 1), 0u);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 15, 0, 0x1234), 0x1234u);
    EXPECT_EQ(insertBits(0xffffffff, 15, 8, 0), 0xffff00ffu);
    EXPECT_EQ(insertBits(0, 31, 26, 0x3f), 0xfc000000u);
}

TEST(Bitfield, SignExtend)
{
    EXPECT_EQ(sext(0x8000, 16), -32768);
    EXPECT_EQ(sext(0x7fff, 16), 32767);
    EXPECT_EQ(sext(0xffff, 16), -1);
    EXPECT_EQ(sext(0xff, 8), -1);
    EXPECT_EQ(sext(0x7f, 8), 127);
    EXPECT_EQ(sext(0x2000000, 26), -33554432);
}

TEST(IntMath, PowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(4097));
}

TEST(IntMath, Logs)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(0x1234, 16), 0x1230u);
    EXPECT_EQ(alignUp(0x1234, 16), 0x1240u);
    EXPECT_EQ(alignUp(0x1240, 16), 0x1240u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(RandomTest, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RandomTest, BelowStaysInRange)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RandomTest, RangeInclusive)
{
    Random r(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(RandomTest, RealInUnitInterval)
{
    Random r(99);
    for (int i = 0; i < 1000; ++i) {
        double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(SatCounterTest, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.value(), 0u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounterTest, IsSetThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.isSet());
    c.increment();
    EXPECT_FALSE(c.isSet()); // 1 of max 3: lower half
    c.increment();
    EXPECT_TRUE(c.isSet());  // 2 of max 3: upper half
}

TEST(SatCounterTest, ResetRestoresInitial)
{
    SatCounter c(3, 2);
    c.increment();
    c.increment();
    c.reset();
    EXPECT_EQ(c.value(), 2u);
}

TEST(CircularQueueTest, FifoOrder)
{
    CircularQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 3);
    q.popFront();
    EXPECT_EQ(q.front(), 2);
}

TEST(CircularQueueTest, WrapAround)
{
    CircularQueue<int> q(3);
    q.pushBack(1);
    q.pushBack(2);
    q.popFront();
    q.pushBack(3);
    q.pushBack(4);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.at(0), 2);
    EXPECT_EQ(q.at(1), 3);
    EXPECT_EQ(q.at(2), 4);
}

TEST(CircularQueueTest, TruncateDropsYoungest)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.pushBack(i);
    q.truncate(2);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.back(), 3);
    // The queue can be refilled after truncation.
    q.pushBack(42);
    EXPECT_EQ(q.back(), 42);
}

TEST(CircularQueueTest, StableSlotIndices)
{
    CircularQueue<int> q(4);
    size_t s0 = q.pushBack(10);
    size_t s1 = q.pushBack(11);
    q.popFront();
    EXPECT_EQ(q.slot(s1), 11);
    size_t s2 = q.pushBack(12);
    EXPECT_NE(s2, s1);
    EXPECT_EQ(q.slot(s0), 10); // stale but stable storage
}

TEST(AddrRangeTest, OverlapBasics)
{
    EXPECT_TRUE(rangesOverlap(0x100, 4, 0x102, 4));
    EXPECT_TRUE(rangesOverlap(0x102, 4, 0x100, 4));
    EXPECT_TRUE(rangesOverlap(0x100, 8, 0x102, 2));
    EXPECT_FALSE(rangesOverlap(0x100, 4, 0x104, 4));
    EXPECT_FALSE(rangesOverlap(0x104, 4, 0x100, 4));
}

TEST(AddrRangeTest, OverlapAtAddressSpaceWrap)
{
    // End-exclusive bounds computed as addr + size overflow to zero at
    // the top of the address space and defeat a < comparison; the
    // subtraction form must not.
    Addr top = ~Addr(0) - 3;
    EXPECT_TRUE(rangesOverlap(top, 4, ~Addr(0) - 1, 2));
    EXPECT_TRUE(rangesOverlap(~Addr(0) - 1, 2, top, 4));
    EXPECT_TRUE(rangesOverlap(top, 4, ~Addr(0), 1));
    EXPECT_FALSE(rangesOverlap(top, 4, 0, 4));
    EXPECT_FALSE(rangesOverlap(0, 4, top, 4));

    EXPECT_TRUE(rangeCoversByte(top, 4, ~Addr(0)));
    EXPECT_TRUE(rangeCoversByte(top, 4, top));
    EXPECT_FALSE(rangeCoversByte(top, 4, 0));
    EXPECT_FALSE(rangeCoversByte(top, 4, top - 1));
}

TEST(SlotBitmapTest, SetClearIterate)
{
    SlotBitmap bm(130); // forces a partial final word
    EXPECT_TRUE(bm.none());
    EXPECT_EQ(bm.nextSet(0), SlotBitmap::npos);
    bm.set(0);
    bm.set(63);
    bm.set(64);
    bm.set(129);
    EXPECT_EQ(bm.count(), 4u);
    EXPECT_EQ(bm.nextSet(0), 0u);
    EXPECT_EQ(bm.nextSet(1), 63u);
    EXPECT_EQ(bm.nextSet(64), 64u);
    EXPECT_EQ(bm.nextSet(65), 129u);
    EXPECT_EQ(bm.nextSet(130), SlotBitmap::npos);
    bm.clear(63);
    EXPECT_EQ(bm.nextSet(1), 64u);

    // Age order from a wrapped head: [head, cap), then [0, head).
    auto walk = [&bm](size_t head) {
        std::vector<size_t> order;
        for (size_t s = bm.firstInAge(head); s != SlotBitmap::npos;
             s = bm.nextInAge(s, head)) {
            order.push_back(s);
        }
        return order;
    };
    EXPECT_EQ(walk(0), (std::vector<size_t>{0, 64, 129}));
    EXPECT_EQ(walk(64), (std::vector<size_t>{64, 129, 0}));
    EXPECT_EQ(walk(65), (std::vector<size_t>{129, 0, 64}));
    EXPECT_EQ(walk(129), (std::vector<size_t>{129, 0, 64}));
    // Walking on from the last slot wraps to the oldest wrapped bit
    // and stops short of the head.
    EXPECT_EQ(bm.nextInAge(129, 65), 0u);
    EXPECT_EQ(bm.nextInAge(129, 0), SlotBitmap::npos);
    EXPECT_EQ(bm.nextInAge(64, 65), SlotBitmap::npos);
    // A bit set behind the walk, between it and the head, is still
    // visited; one before the head is not.
    bm.set(100);
    EXPECT_EQ(bm.nextInAge(64, 65), SlotBitmap::npos);
    EXPECT_EQ(bm.nextInAge(0, 65), 64u);
    EXPECT_EQ(walk(65), (std::vector<size_t>{100, 129, 0, 64}));
    bm.clear(100);

    bm.reset();
    EXPECT_TRUE(bm.none());
    for (size_t head : {size_t{0}, size_t{1}, size_t{64}, size_t{129}}) {
        EXPECT_EQ(bm.firstInAge(head), SlotBitmap::npos);
        EXPECT_EQ(bm.nextInAge(head, head), SlotBitmap::npos);
        EXPECT_TRUE(walk(head).empty());
    }
}

TEST(StrTest, Strfmt)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 5, "ok"), "x=5 y=ok");
    EXPECT_EQ(strfmt("%05.1f", 3.14), "003.1");
    EXPECT_EQ(strfmt("empty"), "empty");
}

TEST(StrTest, SplitAndTrim)
{
    auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(trim("  hi \n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_TRUE(startsWith("NAS/SYNC", "NAS"));
    EXPECT_FALSE(startsWith("AS", "NAS"));
}

TEST(StrTest, EnvUint64)
{
    unsetenv("CWSIM_TEST_KNOB");
    EXPECT_EQ(envUint64("CWSIM_TEST_KNOB", 1, 7), 7u);

    setenv("CWSIM_TEST_KNOB", "42", 1);
    EXPECT_EQ(envUint64("CWSIM_TEST_KNOB", 1, 7), 42u);

    // Below the minimum: warned and ignored.
    setenv("CWSIM_TEST_KNOB", "3", 1);
    EXPECT_EQ(envUint64("CWSIM_TEST_KNOB", 10, 7), 7u);

    // Malformed values fall back instead of silently truncating.
    for (const char *bad : {"", "abc", "12abc", "-4", "1e3",
                            "99999999999999999999999999"}) {
        setenv("CWSIM_TEST_KNOB", bad, 1);
        EXPECT_EQ(envUint64("CWSIM_TEST_KNOB", 1, 7), 7u)
            << "value: '" << bad << "'";
    }
    unsetenv("CWSIM_TEST_KNOB");
}

TEST(StrTest, ParseDouble)
{
    double v = -1;
    for (auto [text, want] :
         {std::pair<const char *, double>{"0", 0.0}, {"-2", -2.0},
          {"2.5", 2.5}, {".5", 0.5}, {"1e3", 1000.0}, {"-1.5e-3", -1.5e-3},
          {"22.689530685920577", 22.689530685920577}}) {
        ASSERT_TRUE(parseDouble(text, v)) << "'" << text << "'";
        EXPECT_EQ(v, want) << "'" << text << "'";
    }

    // Only the whole string, and only a finite value; a rejection
    // leaves the output untouched.
    v = 7;
    for (const char *bad :
         {"", " 2", "2 ", "+2", "2s", "1.5abc", "0x10", "inf", "-inf",
          "infinity", "nan", "-nan", "1e999", "-1e999", "1,5", "."}) {
        EXPECT_FALSE(parseDouble(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7.0) << "'" << bad << "'";
    }
}

TEST(StrTest, ParseSeconds)
{
    double v = -1;
    for (auto [text, want] :
         {std::pair<const char *, double>{"0", 0.0}, {"2", 2.0},
          {"2.5", 2.5}, {".5", 0.5}, {"1e3", 1000.0},
          {"1000000000", max_seconds}}) {
        ASSERT_TRUE(parseSeconds(text, v)) << "'" << text << "'";
        EXPECT_DOUBLE_EQ(v, want) << "'" << text << "'";
    }

    // Only the whole string, finite and not negative; a rejection
    // leaves the output untouched.
    v = 7;
    for (const char *bad :
         {"", " 2", "2 ", "+2", "-1", "-0", "2s", "0x10", "inf",
          "infinity", "nan", "-nan", "1e400", "1000000001", "1,5"}) {
        EXPECT_FALSE(parseSeconds(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7.0) << "'" << bad << "'";
    }
}

TEST(SimErrorTrap, NestsOnOneThread)
{
    EXPECT_FALSE(errorTrapActive());
    EXPECT_EQ(errorTrapDepth(), 0);
    {
        ScopedErrorTrap outer;
        EXPECT_EQ(errorTrapDepth(), 1);
        {
            ScopedErrorTrap inner;
            EXPECT_EQ(errorTrapDepth(), 2);
            EXPECT_THROW(panic("inner"), SimError);
        }
        // The inner trap is gone but the outer still converts.
        EXPECT_EQ(errorTrapDepth(), 1);
        EXPECT_THROW(fatal("outer"), SimError);
    }
    EXPECT_FALSE(errorTrapActive());
}

/**
 * Regression: two OVERLAPPING traps on different threads must each
 * catch only their own SimError. The promises force the overlap: both
 * traps are armed before either thread panics, so a process-global
 * trap slot (rather than a per-thread one) would mis-route or
 * double-count.
 */
TEST(SimErrorTrap, OverlappingTrapsOnTwoThreads)
{
    std::promise<void> aArmed, bArmed;
    auto aReady = aArmed.get_future();
    auto bReady = bArmed.get_future();

    auto run = [](const char *msg, std::promise<void> &mine,
                  std::future<void> &other) -> std::string {
        ScopedErrorTrap trap;
        mine.set_value();
        other.wait();
        try {
            panic("%s", msg);
        } catch (const SimError &e) {
            return e.message();
        }
        return "not caught";
    };

    auto a = std::async(std::launch::async, [&] {
        return run("boom A", aArmed, bReady);
    });
    auto b = std::async(std::launch::async, [&] {
        return run("boom B", bArmed, aReady);
    });

    EXPECT_EQ(a.get(), "boom A");
    EXPECT_EQ(b.get(), "boom B");
    // Neither worker's trap leaked into this thread.
    EXPECT_FALSE(errorTrapActive());
}

TEST(SimErrorTrap, WorkerTrapDoesNotArmOtherThreads)
{
    ScopedErrorTrap trap; // armed on the main test thread
    bool worker_armed = true;
    std::thread([&] { worker_armed = errorTrapActive(); }).join();
    EXPECT_FALSE(worker_armed);
    EXPECT_TRUE(errorTrapActive());
}

} // anonymous namespace
} // namespace cwsim
