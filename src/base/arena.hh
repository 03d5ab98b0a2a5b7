/**
 * @file
 * A no-op stand-in for the retired per-run arena (DESIGN.md §15).
 * Nothing allocates here. Its one caller, the benchmark's in-process
 * run loop (cwbench/inproc.cc), still calls runArena().reset() after
 * each run; this header keeps that building until a change to the
 * benchmark removes the call and, with it, this file.
 */

#ifndef CWSIM_BASE_ARENA_HH
#define CWSIM_BASE_ARENA_HH

namespace cwsim
{

struct RunArena
{
    void reset() {}
};

inline RunArena &
runArena()
{
    static RunArena arena;
    return arena;
}

} // namespace cwsim

#endif // CWSIM_BASE_ARENA_HH
