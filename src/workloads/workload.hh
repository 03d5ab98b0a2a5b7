/**
 * @file
 * The cwsim workload suite: 18 synthetic kernels standing in for the
 * SPEC'95 programs of the paper's Table 1.
 *
 * SPEC'95 binaries are unavailable, so each kernel is written against
 * the cwsim ISA to approximate its namesake's *memory dependence
 * behaviour* — the dynamic load/store mix of Table 1 and the program's
 * qualitative dependence idioms (hash-table read-modify-write for
 * 129.compress, record copying for 147.vortex, array recurrences for
 * the FP codes, and so on). The goal is reproducing the paper's
 * tradeoffs, not its absolute IPCs; see DESIGN.md for the substitution
 * rationale and bench/table1_characteristics for measured-vs-paper
 * numbers.
 */

#ifndef CWSIM_WORKLOADS_WORKLOAD_HH
#define CWSIM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace cwsim
{

struct Workload
{
    std::string name;      ///< e.g. "129.compress"
    std::string shortName; ///< e.g. "129" (how the paper labels plots)
    bool isFp = false;     ///< SPECfp'95-like vs SPECint'95-like.
    Program program;

    // Paper Table 1 reference values (for reporting, not simulation).
    double paperLoadPct = 0;
    double paperStorePct = 0;
    double paperIcMillions = 0;
    std::string paperSamplingRatio;
};

namespace workloads
{

/**
 * Scale knob: approximate dynamic (committed) instruction count the
 * kernel should execute. Kernels derive their iteration counts from it;
 * actual counts vary by a few percent.
 */
constexpr uint64_t default_scale = 100'000;

/**
 * The smallest scale a kernel is built at, and so the floor of every
 * scale input (the bench and cwsimd --scale, CWSIM_SCALE, a submit's
 * scale). Far below it kernels do not halt: at scale 5 none of the 18
 * finishes within 20M instructions.
 */
constexpr uint64_t min_scale = 1000;

/** Names of all 18 kernels, SPECint first (paper Table 1 order). */
const std::vector<std::string> &allNames();
const std::vector<std::string> &intNames();
const std::vector<std::string> &fpNames();

/** Build one kernel by full or short name; fatal below min_scale. */
Workload build(const std::string &name,
               uint64_t scale = default_scale);

/** Build the whole suite. */
std::vector<Workload> buildAll(uint64_t scale = default_scale);

} // namespace workloads
} // namespace cwsim

#endif // CWSIM_WORKLOADS_WORKLOAD_HH
