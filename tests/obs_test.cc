/**
 * @file
 * Tests for the observability layer (src/obs/): trace-flag parsing,
 * TraceManager output gating, O3PipeView format validation, the
 * interval-stats sampler, and an end-to-end pipeline-traced Processor
 * run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "cpu/processor.hh"
#include "isa/static_inst.hh"
#include "mem/functional_memory.hh"
#include "obs/interval.hh"
#include "obs/pipeview.hh"
#include "obs/trace.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "cwsim_obs_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Every test starts and ends with a pristine global TraceManager. */
class ObsTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        obs::TraceManager::instance().resetForTesting();
        obs::setRunLabel("");
    }
    void TearDown() override
    {
        obs::TraceManager::instance().resetForTesting();
        obs::setRunLabel("");
    }
};

TEST_F(ObsTest, FlagNamesRoundTrip)
{
    for (size_t i = 0; i < obs::num_trace_flags; ++i) {
        auto flag = static_cast<obs::TraceFlag>(i);
        obs::TraceFlag parsed;
        ASSERT_TRUE(
            obs::traceFlagFromName(obs::traceFlagName(flag), parsed));
        EXPECT_EQ(parsed, flag);
    }
    obs::TraceFlag dummy;
    EXPECT_FALSE(obs::traceFlagFromName("NoSuchFlag", dummy));
    EXPECT_FALSE(obs::traceFlagFromName("mdp", dummy)); // case matters
}

TEST_F(ObsTest, ConfigureEnablesListedFlagsOnly)
{
    obs::TraceManager &tm = obs::TraceManager::instance();
    EXPECT_FALSE(tm.anyEnabled());
    EXPECT_FALSE(obs::tracingActive());

    ASSERT_TRUE(tm.configure("MDP,Recovery"));
    EXPECT_TRUE(obs::tracingActive());
    EXPECT_TRUE(tm.enabled(obs::TraceFlag::MDP));
    EXPECT_TRUE(tm.enabled(obs::TraceFlag::Recovery));
    EXPECT_FALSE(tm.enabled(obs::TraceFlag::Fetch));
    EXPECT_FALSE(tm.enabled(obs::TraceFlag::LSQ));
}

TEST_F(ObsTest, ConfigureAllEnablesEverything)
{
    obs::TraceManager &tm = obs::TraceManager::instance();
    ASSERT_TRUE(tm.configure("all"));
    for (size_t i = 0; i < obs::num_trace_flags; ++i)
        EXPECT_TRUE(tm.enabled(static_cast<obs::TraceFlag>(i)));
}

TEST_F(ObsTest, ConfigureRejectsUnknownNameWithoutSideEffects)
{
    obs::TraceManager &tm = obs::TraceManager::instance();
    std::string err;
    EXPECT_FALSE(tm.configure("MDP,Bogus", &err));
    EXPECT_NE(err.find("Bogus"), std::string::npos);
    EXPECT_NE(err.find("Recovery"), std::string::npos); // valid list
    // The whole spec is validated before anything is enabled.
    EXPECT_FALSE(tm.enabled(obs::TraceFlag::MDP));
    EXPECT_FALSE(tm.anyEnabled());
}

TEST_F(ObsTest, TracePointWritesWhenEnabledOnly)
{
    std::string path = tmpPath("trace.log");
    std::remove(path.c_str());
    obs::TraceManager &tm = obs::TraceManager::instance();
    tm.setOutputPath(path);

    // Disabled: the macro must not touch the output at all.
    obs::setTraceCycle(41);
    CWSIM_TRACE(MDP, "invisible %d", 1);
    EXPECT_EQ(slurp(path), "");

    ASSERT_TRUE(tm.configure("MDP"));
    obs::setTraceCycle(42);
    obs::setRunLabel("129.compress NAS/NAV");
    CWSIM_TRACE(MDP, "visible %d", 2);
    CWSIM_TRACE(Recovery, "still invisible"); // flag not enabled

    tm.resetForTesting(); // closes the file
    std::string text = slurp(path);
    EXPECT_NE(text.find("42: MDP: [129.compress NAS/NAV] visible 2"),
              std::string::npos);
    EXPECT_EQ(text.find("invisible"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(ObsTest, ValidatePipeViewLine)
{
    EXPECT_EQ(
        obs::validatePipeViewLine(
            "O3PipeView:fetch:5000:0x00000040:0:12:lw r3, 0(r5)"),
        "");
    EXPECT_EQ(obs::validatePipeViewLine("O3PipeView:issue:5500"), "");
    EXPECT_EQ(obs::validatePipeViewLine("O3PipeView:retire:6000"), "");
    EXPECT_EQ(obs::validatePipeViewLine(
                  "O3PipeView:retire:6000:store:6500"),
              "");

    EXPECT_NE(obs::validatePipeViewLine("garbage"), "");
    EXPECT_NE(obs::validatePipeViewLine("O3PipeView:warp:100"), "");
    EXPECT_NE(obs::validatePipeViewLine("O3PipeView:issue:abc"), "");
    EXPECT_NE(obs::validatePipeViewLine("O3PipeView:fetch:100"), "");
    EXPECT_NE(obs::validatePipeViewLine(
                  "O3PipeView:fetch:100:40:0:1:nop"),
              ""); // pc must be 0x<hex>
    EXPECT_NE(obs::validatePipeViewLine(
                  "O3PipeView:retire:6000:load:6500"),
              "");
}

TEST_F(ObsTest, PipeViewWriterRoundTripsThroughValidator)
{
    std::string path = tmpPath("pipeview.out");
    {
        obs::PipeViewWriter writer(path);
        ASSERT_TRUE(writer.valid());
        obs::PipeViewWriter::Record r;
        r.seq = 1;
        r.pc = 0x40;
        r.disasm = "lw r3, 0(r5) [replay x2]";
        r.fetch = 10;
        r.decode = 10;
        r.rename = 11;
        r.dispatch = 11;
        r.issue = 12;
        r.complete = 14;
        r.retire = 15;
        writer.write(r);

        r.seq = 2;
        r.disasm = "sw r3, 4(r5)";
        r.retire = 16;
        r.storeComplete = 16;
        writer.write(r);

        // A squashed instruction: only fetch reached, retire 0.
        obs::PipeViewWriter::Record sq;
        sq.seq = 3;
        sq.pc = 0x48;
        sq.disasm = "addi r1, r1, 1 [squash: mem-order]";
        sq.fetch = 12;
        writer.write(sq);
        EXPECT_EQ(writer.recordsWritten(), 3u);
    }

    std::ifstream in(path);
    size_t records = 0;
    EXPECT_EQ(obs::validatePipeViewStream(in, &records), "");
    EXPECT_EQ(records, 3u);

    // Ticks scale by pipeview_ticks_per_cycle (fetch at cycle 10).
    std::string text = slurp(path);
    EXPECT_NE(text.find(strfmt("O3PipeView:fetch:%llu",
                               static_cast<unsigned long long>(
                                   10 * obs::pipeview_ticks_per_cycle))),
              std::string::npos);
    std::remove(path.c_str());
}

TEST_F(ObsTest, ValidatorRejectsTruncatedAndMisorderedStreams)
{
    std::istringstream truncated(
        "O3PipeView:fetch:100:0x40:0:1:nop\n"
        "O3PipeView:decode:100\n");
    size_t records = 99;
    EXPECT_NE(obs::validatePipeViewStream(truncated, &records), "");

    std::istringstream misordered(
        "O3PipeView:fetch:100:0x40:0:1:nop\n"
        "O3PipeView:issue:120\n");
    EXPECT_NE(obs::validatePipeViewStream(misordered, nullptr), "");
}

TEST_F(ObsTest, IntervalSamplerComputesDeltas)
{
    std::string path = tmpPath("intervals.jsonl");
    std::remove(path.c_str());
    {
        obs::IntervalSampler sampler(path, 1000, "unit test");
        ASSERT_TRUE(sampler.valid());
        EXPECT_FALSE(sampler.due(999));
        EXPECT_TRUE(sampler.due(1000));

        obs::IntervalCounters c;
        c.commits = 2500;
        c.violations = 3;
        c.occupancySum = 97000;
        c.occupancyCount = 1000;
        sampler.sample(1000, c);
        EXPECT_FALSE(sampler.due(1000));
        EXPECT_TRUE(sampler.due(2000));

        c.commits = 4000; // +1500 this interval
        c.violations = 3;
        c.replays = 7;
        c.occupancySum = 197000;
        c.occupancyCount = 2000;
        sampler.sample(2000, c);
        EXPECT_EQ(sampler.samplesWritten(), 2u);
    }

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("label"), "unit test");
    EXPECT_EQ(fields.at("cycle"), "1000");
    EXPECT_EQ(fields.at("interval"), "1000");
    EXPECT_EQ(fields.at("commits"), "2500");
    EXPECT_EQ(fields.at("violations"), "3");
    EXPECT_EQ(std::stod(fields.at("ipc")), 2.5);
    EXPECT_EQ(std::stod(fields.at("window_occupancy")), 97.0);

    ASSERT_TRUE(std::getline(in, line));
    fields.clear();
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("cycle"), "2000");
    EXPECT_EQ(fields.at("commits"), "1500"); // delta, not total
    EXPECT_EQ(fields.at("replays"), "7");
    EXPECT_EQ(std::stod(fields.at("ipc")), 1.5);
    EXPECT_EQ(std::stod(fields.at("window_occupancy")), 100.0);
    std::remove(path.c_str());
}

TEST_F(ObsTest, IntervalSamplerFinalizeFlushesTrailingPartialInterval)
{
    std::string path = tmpPath("intervals_tail.jsonl");
    std::remove(path.c_str());
    {
        // Run length 2750 with period 1000: two full intervals plus a
        // 750-cycle tail that only finalize() can emit.
        obs::IntervalSampler sampler(path, 1000, "tail test");
        ASSERT_TRUE(sampler.valid());
        obs::IntervalCounters c;
        c.commits = 1000;
        sampler.sample(1000, c);
        c.commits = 2100;
        sampler.sample(2000, c);
        c.commits = 2700;
        sampler.finalize(2750, c);
        EXPECT_EQ(sampler.samplesWritten(), 3u);
        // A second finalize at the same cycle must not double-emit.
        sampler.finalize(2750, c);
        EXPECT_EQ(sampler.samplesWritten(), 3u);
    }

    std::ifstream in(path);
    std::string line;
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(std::getline(in, line));
    ASSERT_TRUE(std::getline(in, line));
    ASSERT_TRUE(std::getline(in, line)); // the flushed tail
    ASSERT_TRUE(parseFlatJson(line, fields));
    EXPECT_EQ(fields.at("cycle"), "2750");
    EXPECT_EQ(fields.at("interval"), "750");
    EXPECT_EQ(fields.at("commits"), "600");
    EXPECT_FALSE(std::getline(in, line));
    std::remove(path.c_str());

    // A run whose length lands exactly on a period boundary must NOT
    // gain an extra empty sample from finalize().
    std::string exact_path = tmpPath("intervals_exact.jsonl");
    std::remove(exact_path.c_str());
    {
        obs::IntervalSampler sampler(exact_path, 1000, "exact");
        obs::IntervalCounters c;
        c.commits = 500;
        sampler.sample(1000, c);
        sampler.finalize(1000, c);
        EXPECT_EQ(sampler.samplesWritten(), 1u);
    }
    std::remove(exact_path.c_str());
}

TEST_F(ObsTest, ProcessorEmitsValidPipelineTraceAndIntervals)
{
    std::string pipe_path = tmpPath("proc_pipeview.out");
    std::string interval_path = tmpPath("proc_intervals.jsonl");
    std::remove(interval_path.c_str());

    obs::TraceManager &tm = obs::TraceManager::instance();
    ASSERT_TRUE(tm.setPipeViewPath(pipe_path));
    tm.setInterval(500, interval_path);

    Workload w = workloads::build("129.compress", 4000);
    PrepassResult pre = runPrepass(w.program);
    ASSERT_TRUE(pre.halted);

    // NAS/NAV: naive speculation actually miss-speculates, so the
    // trace exercises the squash annotations too.
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    cfg.maxCycles = 10'000'000;
    obs::setRunLabel("129.compress " + cfg.name());
    Processor proc(cfg, w.program, &pre.deps);
    proc.run();
    ASSERT_TRUE(proc.halted());

    // Tracing must not perturb the simulation itself.
    EXPECT_EQ(proc.procStats().commits.value(), pre.instCount);

    tm.resetForTesting(); // close the pipeview file before reading

    std::ifstream in(pipe_path);
    ASSERT_TRUE(in.good());
    size_t records = 0;
    EXPECT_EQ(obs::validatePipeViewStream(in, &records), "");
    // Every commit produced a record (squashed insts add more).
    EXPECT_GE(records, static_cast<size_t>(pre.instCount));

    // Interval JSONL: every line parses field-for-field.
    std::ifstream intervals(interval_path);
    ASSERT_TRUE(intervals.good());
    std::string line;
    size_t interval_lines = 0;
    uint64_t total_commits = 0;
    while (std::getline(intervals, line)) {
        std::map<std::string, std::string> fields;
        ASSERT_TRUE(parseFlatJson(line, fields)) << line;
        for (const char *key :
             {"label", "cycle", "interval", "commits", "ipc",
              "violations", "replays", "false_dep_loads",
              "window_occupancy"}) {
            EXPECT_EQ(fields.count(key), 1u) << key << ": " << line;
        }
        EXPECT_EQ(fields.at("label"), "129.compress " + cfg.name());
        total_commits += std::stoull(fields.at("commits"));
        ++interval_lines;
    }
    EXPECT_GT(interval_lines, 0u);
    // Interval deltas sum to exactly the total: run() flushes the
    // trailing partial interval, so no commits are lost after the
    // last period boundary.
    EXPECT_EQ(total_commits, pre.instCount);

    std::remove(pipe_path.c_str());
    std::remove(interval_path.c_str());
}

TEST_F(ObsTest, SampledPhasesCompleteSingleCycleOpsOneCycleAfterIssue)
{
    // The paper's sampling methodology (Section 3.1): timing phases
    // alternate with functional fast-forwards. Each phase ends with a
    // drain that fires every pending event, which can carry the event
    // clock past the core clock; the next phase must still time its
    // instructions from the cycle they issue in. The O3PipeView issue
    // and complete stamps show it: every committed single-cycle op
    // completes one cycle after it issued.
    std::string pipe_path = tmpPath("sampled_pipeview.out");
    obs::TraceManager &tm = obs::TraceManager::instance();
    ASSERT_TRUE(tm.setPipeViewPath(pipe_path));

    Workload w = workloads::build("104.hydro2d", 40'000);
    PrepassResult pre = runPrepass(w.program);
    ASSERT_TRUE(pre.halted);
    SimConfig cfg = withPolicy(makeW128Config(), LsqModel::NAS,
                               SpecPolicy::Naive);
    Processor proc(cfg, w.program, &pre.deps);
    unsigned phases = 0;
    while (!proc.halted()) {
        proc.runTiming(4000);
        ++phases;
        if (proc.halted() || proc.fastForward(8000) == 0)
            break;
    }
    ASSERT_GT(phases, 2u);
    EXPECT_EQ(proc.memory().fingerprint(), pre.memFingerprint);
    tm.resetForTesting(); // close the pipeview file before reading

    FunctionalMemory code;
    w.program.loadInto(code);
    std::ifstream in(pipe_path);
    ASSERT_TRUE(in.good());
    std::string line;
    Addr pc = 0;
    uint64_t issue = 0, complete = 0, checked = 0, late = 0;
    std::string firstLate;
    while (std::getline(in, line)) {
        std::vector<std::string> f = split(line, ':');
        ASSERT_GE(f.size(), 3u) << line;
        const std::string &stage = f[1];
        uint64_t tick = std::stoull(f[2]);
        if (stage == "fetch") {
            pc = std::stoull(f.at(3), nullptr, 16);
        } else if (stage == "issue") {
            issue = tick;
        } else if (stage == "complete") {
            complete = tick;
        } else if (stage == "retire" && tick != 0) {
            StaticInst si = StaticInst::decode(
                static_cast<uint32_t>(code.read(pc, 4)));
            if (si.isMem() || si.latency() != 1)
                continue;
            ++checked;
            if (complete != issue + obs::pipeview_ticks_per_cycle) {
                if (late++ == 0) {
                    firstLate = strfmt(
                        "%s at 0x%llx: issue %llu, complete %llu",
                        si.disassemble().c_str(),
                        static_cast<unsigned long long>(pc),
                        static_cast<unsigned long long>(issue),
                        static_cast<unsigned long long>(complete));
                }
            }
        }
    }
    EXPECT_GT(checked, 5'000u);
    EXPECT_EQ(late, 0u) << "first late op: " << firstLate;
    std::remove(pipe_path.c_str());
}

TEST_F(ObsTest, ReleaseModeTracePointCompilesToNothingObservable)
{
    // With no flags enabled, a trace point must leave no trace output
    // anywhere. (The CI trace-smoke job asserts the same property on a
    // whole bench binary's stdout+stderr.)
    std::string path = tmpPath("silent.log");
    std::remove(path.c_str());
    obs::TraceManager &tm = obs::TraceManager::instance();
    tm.setOutputPath(path);
    for (int i = 0; i < 1000; ++i)
        CWSIM_TRACE(Recovery, "never formatted %d", i);
    tm.resetForTesting();
    EXPECT_EQ(slurp(path), "");
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace cwsim
