#include "obs/interval.hh"

#include "base/jsonl.hh"
#include "base/logging.hh"

namespace cwsim
{
namespace obs
{

IntervalSampler::IntervalSampler(const std::string &path,
                                 uint64_t period, std::string label)
    : out(std::fopen(path.c_str(), "a")), periodCycles(period),
      nextSampleAt(period), label(std::move(label))
{
    if (!out) {
        warn("interval stats: cannot open %s; sampling disabled",
             path.c_str());
    }
}

IntervalSampler::~IntervalSampler()
{
    if (out)
        std::fclose(out);
}

void
IntervalSampler::sample(Tick cycle, const IntervalCounters &now)
{
    while (nextSampleAt <= cycle)
        nextSampleAt += periodCycles;
    if (!out)
        return;

    uint64_t cycles = cycle - lastCycle;
    uint64_t commits = now.commits - last.commits;
    uint64_t occ_n = now.occupancyCount - last.occupancyCount;
    double occ_mean =
        occ_n ? (now.occupancySum - last.occupancySum) / occ_n : 0.0;

    // One fprintf per line: with line buffering the whole record lands
    // in one write, so concurrent samplers appending to the same file
    // cannot shear a line.
    std::fprintf(
        out,
        "{\"label\":\"%s\",\"cycle\":%llu,\"interval\":%llu,"
        "\"commits\":%llu,\"ipc\":%.6f,\"violations\":%llu,"
        "\"replays\":%llu,\"false_dep_loads\":%llu,"
        "\"window_occupancy\":%.4f}\n",
        jsonEscape(label).c_str(),
        static_cast<unsigned long long>(cycle),
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(commits),
        cycles ? static_cast<double>(commits) / cycles : 0.0,
        static_cast<unsigned long long>(now.violations -
                                        last.violations),
        static_cast<unsigned long long>(now.replays - last.replays),
        static_cast<unsigned long long>(now.falseDepLoads -
                                        last.falseDepLoads),
        occ_mean);
    std::fflush(out);

    last = now;
    lastCycle = cycle;
    ++samples;
}

void
IntervalSampler::finalize(Tick cycle, const IntervalCounters &now)
{
    if (!out || cycle <= lastCycle)
        return;
    sample(cycle, now);
}

} // namespace obs
} // namespace cwsim
