/**
 * @file
 * A seeded, deterministic mutation fuzzer for the readers of outside
 * input: the config text parser, the run-record parser, the
 * dependence-profile loader, the assembler, the four command lines
 * and the daemon's submit decoder. Each is fed mutants of real inputs
 * — byte flips, truncations, deleted or duplicated fields and lines,
 * sign and digit edits, and for argv dropped, repeated, joined or
 * split arguments — and must reject what it cannot read through its
 * normal path: a false return or an error string, or a SimError of
 * kind Fatal under a ScopedErrorTrap for the config parser, the
 * assembler and the benches' command line. A crash or a hang fails
 * the test binary; any other exception fails the test. Run records
 * the parser accepts must also survive a write-and-parse round trip
 * unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "base/cli.hh"
#include "base/jsonl.hh"
#include "base/random.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "isa/asm_parser.hh"
#include "mdp/dep_profile.hh"
#include "sim/config.hh"
#include "sim/config_parse.hh"
#include "svc/client.hh"
#include "svc/server.hh"
#include "svc/spec.hh"
#include "sweep/bench_cli.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"

namespace cwsim
{
namespace
{

/** Mutants per reader. */
constexpr int mutations = 12'000;

std::vector<std::string>
sourceLines(const std::string &relative)
{
    std::ifstream in(std::string(CWSIM_SOURCE_DIR) + "/" + relative);
    EXPECT_TRUE(in) << "cannot open " << relative;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
join(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

/** Bytes the readers treat specially, plus a few they never expect. */
constexpr char interesting[] = "0123456789-+.eExX\"\\,:{}[]= #\n\t\x01\xff";

/** Positions of the bytes of @p text equal to @p c. */
std::vector<size_t>
positionsOf(const std::string &text, char c)
{
    std::vector<size_t> out;
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == c)
            out.push_back(i);
    }
    return out;
}

/** Apply one random edit to @p s; @p sep separates its fields. */
void
mutateOnce(Random &rng, std::string &s, char sep)
{
    if (s.empty()) {
        s = std::string(1, interesting[rng.below(sizeof interesting - 1)]);
        return;
    }
    size_t pos = rng.below(s.size());
    switch (rng.below(10)) {
      case 0: // byte flip
        s[pos] = static_cast<char>(rng.below(256));
        break;
      case 1: // replace with a byte the readers treat specially
        s[pos] = interesting[rng.below(sizeof interesting - 1)];
        break;
      case 2: // truncate
        s.resize(pos);
        break;
      case 3: // delete a short range
        s.erase(pos, 1 + rng.below(16));
        break;
      case 4: { // delete or duplicate a field or line
        std::vector<size_t> cuts = positionsOf(s, sep);
        cuts.insert(cuts.begin(), 0);
        cuts.push_back(s.size());
        size_t i = rng.below(cuts.size() - 1);
        std::string field = s.substr(cuts[i], cuts[i + 1] - cuts[i]);
        if (rng.below(2))
            s.erase(cuts[i], field.size());
        else
            s.insert(cuts[i + 1], field);
        break;
      }
      case 5: { // move a field or line
        std::vector<std::string> parts = split(s, sep);
        size_t a = rng.below(parts.size()), b = rng.below(parts.size());
        std::swap(parts[a], parts[b]);
        s.clear();
        for (size_t i = 0; i < parts.size(); ++i)
            s += (i ? std::string(1, sep) : "") + parts[i];
        break;
      }
      case 6: // sign edit
        s.insert(pos, rng.below(2) ? "-" : "+");
        break;
      case 7: { // digit edit at a digit, if there is one nearby
        for (size_t i = pos; i < s.size(); ++i) {
            if (s[i] >= '0' && s[i] <= '9') {
                s[i] = static_cast<char>('0' + rng.below(10));
                break;
            }
        }
        break;
      }
      case 8: // overflow or pad a number
        s.insert(pos, rng.below(2) ? "99999999999999999999" : "000");
        break;
      default: // exponent, fraction or hex spellings
        s.insert(pos, rng.below(2) ? "e308" : (rng.below(2) ? ".5"
                                                             : "0x"));
        break;
    }
}

std::string
mutant(Random &rng, const std::string &seed, char sep)
{
    std::string s = seed;
    int edits = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < edits; ++i)
        mutateOnce(rng, s, sep);
    return s;
}

/** The lines of serializeConfig(@p cfg) that parseConfigText reads. */
std::string
settableText(const SimConfig &cfg)
{
    static const std::vector<std::string> keys = configKeys();
    std::string out;
    for (const std::string &line : split(serializeConfig(cfg), '\n')) {
        std::string key = line.substr(0, line.find('='));
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            out += line + "\n";
    }
    return out;
}

TEST(ParserFuzz, ConfigTextRejectsThroughSimError)
{
    // One line per accepted key, with values off the defaults, plus a
    // comment and a blank line.
    SimConfig custom = withPolicy(makeW64Config(), LsqModel::AS,
                                  SpecPolicy::SpecSync, 2);
    custom.check.faults.mdptDropRate = 0.125;
    const std::string seed = "# fuzz seed\n\n" + settableText(custom);
    {
        ScopedErrorTrap trap;
        ASSERT_EQ(serializeConfig(parseConfigText(seed)),
                  serializeConfig(custom));
    }

    Random rng(0xc0f1);
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < mutations; ++i) {
        std::string text = mutant(rng, seed, '\n');
        ScopedErrorTrap trap;
        try {
            SimConfig cfg = parseConfigText(text);
            ++accepted;
            // What the parser accepted prints back to text it reads
            // to the same config (the isolate job line's path).
            EXPECT_EQ(serializeConfig(parseConfigText(settableText(cfg))),
                      serializeConfig(cfg))
                << text;
        } catch (const SimError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "escaped as " << e.what() << ":\n" << text;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, RunRecordsRejectByReturningFalse)
{
    std::vector<std::string> seeds =
        sourceLines("tests/golden/fig2_scale4000.jsonl");
    for (const std::string &line :
         sourceLines("tests/golden/figs_scale2000.jsonl")) {
        seeds.push_back(line);
    }
    ASSERT_FALSE(seeds.empty());

    Random rng(0x5eed5);
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < mutations; ++i) {
        std::string line =
            mutant(rng, seeds[rng.below(seeds.size())], ',');
        try {
            std::map<std::string, std::string> fields;
            harness::RunResult r;
            uint64_t fp = 0, scale = 0;
            if (!parseFlatJson(line, fields) ||
                !sweep::runRecordParseWithEnvelope(fields, r, fp,
                                                   scale)) {
                ++rejected;
                continue;
            }
            ++accepted;
            std::string written = sweep::runRecordLine(r, fp, scale);
            harness::RunResult back;
            uint64_t fp2 = 0, scale2 = 0;
            ASSERT_TRUE(parseFlatJson(written, fields)) << written;
            ASSERT_TRUE(sweep::runRecordParseWithEnvelope(fields, back,
                                                          fp2, scale2))
                << written;
            EXPECT_EQ(sweep::runRecordLine(back, fp2, scale2), written)
                << line;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << ":\n" << line;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, DepProfilesRejectByReturningFalse)
{
    const std::string seed = join(sourceLines(
        "tests/golden/fig6_compress_scale2000.depprof.jsonl"));
    {
        mdp::DepProfileFile file;
        ASSERT_TRUE(file.parseLines(split(seed, '\n')));
    }

    Random rng(0xde9);
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < mutations; ++i) {
        // Alternate line-level and field-level edits.
        std::string text = mutant(rng, seed, i % 2 ? '\n' : ',');
        try {
            mdp::DepProfileFile file;
            bool ok = file.parseLines(split(text, '\n'));
            EXPECT_EQ(ok, file.errors().empty());
            ++(ok ? accepted : rejected);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << ":\n" << text;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, AssemblerRejectsThroughFatal)
{
    // The assembler reports every malformed program through fatal()
    // with a line number, which a ScopedErrorTrap turns into a
    // SimError of kind Fatal. A Panic would mean a user's typo reached
    // an internal assertion (an encoder's range check, say).
    std::vector<std::string> seeds;
    for (const char *name :
         {"examples/asm/dot_product.s", "examples/asm/histogram.s"}) {
        seeds.push_back(join(sourceLines(name)));
        ScopedErrorTrap trap;
        ASSERT_NO_THROW(assembleText(seeds.back())) << name;
    }

    Random rng(0xa55e);
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < mutations; ++i) {
        // Alternate line-level and operand-level edits.
        std::string text =
            mutant(rng, seeds[rng.below(seeds.size())], i % 2 ? '\n' : ' ');
        ScopedErrorTrap trap;
        try {
            assembleText(text);
            ++accepted;
        } catch (const SimError &e) {
            ++rejected;
            EXPECT_EQ(e.kind(), SimErrorKind::Fatal)
                << e.message() << ":\n" << text;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "escaped as " << e.what() << ":\n" << text;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

/** Options for every program, for its flag table to bind to. */
struct CommandLines
{
    sweep::BenchOptions bench;
    svc::ServerOptions daemon;
    svc::ClientArgs client;
    sweep::ReportArgs report;
};

struct Program
{
    const char *name;
    CliSpec (*table)(CommandLines &);
    std::vector<std::vector<std::string>> seeds;
};

/** Argument values the parsers treat specially, or should refuse. */
const char *const edge_args[] = {
    "", "-", "--", "=", "-1", "+4", " 7", "0", "999", "4294967296",
    "99999999999999999999", "1e300", "inf", "nan", "0x10", "2.5",
    "--help", "-h", "--version"};

/** Apply one random edit to the argument list @p args of @p spec. */
void
mutateArgs(Random &rng, std::vector<std::string> &args,
           const CliSpec &spec)
{
    if (args.empty())
        args.push_back(spec.flags[rng.below(spec.flags.size())].name);
    size_t pos = rng.below(args.size());
    switch (rng.below(8)) {
      case 0: // drop an argument
        args.erase(args.begin() + pos);
        break;
      case 1: // repeat one
        args.insert(args.begin() + pos, args[pos]);
        break;
      case 2: // swap two
        std::swap(args[pos], args[rng.below(args.size())]);
        break;
      case 3: { // insert one of the table's names
        const CliFlag &f = spec.flags[rng.below(spec.flags.size())];
        args.insert(args.begin() + rng.below(args.size() + 1),
                    f.alias && rng.below(2) ? f.alias : f.name);
        break;
      }
      case 4: // join an argument to the next with '='
        if (pos + 1 < args.size()) {
            args[pos] += "=" + args[pos + 1];
            args.erase(args.begin() + pos + 1);
        }
        break;
      case 5: { // split one at its '='
        size_t eq = args[pos].find('=');
        if (eq != std::string::npos) {
            args.insert(args.begin() + pos + 1, args[pos].substr(eq + 1));
            args[pos].erase(eq);
        }
        break;
      }
      case 6:
        args[pos] = edge_args[rng.below(std::size(edge_args))];
        break;
      default: // byte-level edit of one argument
        mutateOnce(rng, args[pos], '=');
        break;
    }
}

TEST(ParserFuzz, CommandLinesRejectThroughTheirErrorPath)
{
    // Seeds: the command lines the docs, CI and cwbench use.
    const std::vector<Program> programs = {
        {"bench",
         [](CommandLines &o) { return sweep::benchCli(o.bench); },
         {{"--jobs", "4", "--scale", "2000", "--filter", "compress",
           "--json", "out.jsonl", "--no-cache"},
          {"--trace=MDP,Recovery", "--trace-file", "t.log", "--pipeview",
           "p.out", "--interval", "500", "--interval-file", "i.jsonl",
           "--depprof-file=d.jsonl"},
          {"--isolate", "--timeout", "2.5", "--mem-limit", "4096",
           "--retries", "3", "--set", "core.windowSize=64",
           "--set=mdp.policy=SYNC", "--cpi-stack", "-j", "2"},
          {"--cache-dir", "c", "--cache-fsck", "--depprof"}}},
        {"cwsimd",
         [](CommandLines &o) { return svc::daemonCli(o.daemon); },
         {{"--socket", "d.sock", "--cache-dir", "c", "--jobs", "2",
           "--quota", "100000", "--max-queued", "100000",
           "--trace-events", "t.json"},
          {"--socket=d.sock", "--scale", "4000", "--timeout", "120",
           "--mem-limit", "4096", "--retries", "2", "--metrics-file",
           "m.prom", "--metrics-interval", "0.5"}}},
        {"cwsim-client",
         [](CommandLines &o) { return svc::clientCli(o.client); },
         {{"--socket", "d.sock", "--id", "a", "--preset", "fig2",
           "--scale", "4000", "--quiet", "--json", "a.jsonl"},
          {"--socket", "d.sock", "--workloads", "int", "--filter", "12",
           "--config", "mdp.policy=NO", "--config", "mdp.policy=SYNC",
           "--set", "check.level=1", "--interval", "500",
           "--interval-file", "i.jsonl"},
          {"--socket", "d.sock", "--stats"},
          {"--socket", "d.sock", "--shutdown"}}},
        {"cwsim-report",
         [](CommandLines &o) { return sweep::reportCli(o.report); },
         {{"--format", "html", "--out", "r.html", "--top", "5",
           "a.jsonl"},
          {"--diff", "base.jsonl", "cur.jsonl"},
          {"--connect", "d.sock", "--status"},
          {"--depprof", "p.depprof.jsonl", "--format=md"}}},
    };

    Random rng(0xa5c11);
    for (const Program &prog : programs) {
        size_t accepted = 0, rejected = 0, requests = 0;
        for (int i = 0; i < mutations; ++i) {
            CommandLines opts;
            const CliSpec spec = prog.table(opts);
            std::vector<std::string> args =
                prog.seeds[rng.below(prog.seeds.size())];
            int edits = 1 + static_cast<int>(rng.below(3));
            for (int e = 0; e < edits; ++e)
                mutateArgs(rng, args, spec);
            std::vector<const char *> argv = {prog.name};
            for (const std::string &a : args)
                argv.push_back(a.c_str());
            const int argc = static_cast<int>(argv.size());

            std::string shown;
            for (const std::string &a : args)
                shown += " '" + a + "'";
            CliRequest request = CliRequest::Run;
            std::string err;
            try {
                if (std::string(prog.name) == "bench") {
                    // The benches' error path: fatal(), a SimError here.
                    ScopedErrorTrap trap;
                    try {
                        request = parseCliOrFatal(spec, argc, argv.data());
                    } catch (const SimError &e) {
                        EXPECT_EQ(e.kind(), SimErrorKind::Fatal)
                            << e.message() << ":" << shown;
                        err = e.message();
                    }
                } else if (!parseCli(spec, argc, argv.data(), request,
                                     err)) {
                    EXPECT_FALSE(err.empty()) << prog.name << shown;
                }
            } catch (const std::exception &e) {
                ADD_FAILURE() << prog.name << " threw " << e.what() << ":"
                              << shown;
                continue;
            }
            if (!err.empty())
                ++rejected;
            else
                ++(request == CliRequest::Run ? accepted : requests);
        }
        EXPECT_GT(accepted, 0u) << prog.name;
        EXPECT_GT(rejected, 0u) << prog.name;
        EXPECT_GT(requests, 0u) << prog.name;
    }
}

TEST(ParserFuzz, SubmitLinesRejectWithAnErrorString)
{
    // Seeds: the submit lines cwsim-client builds for the fig2 preset
    // and for --config / --set lists with a scale and an interval.
    std::vector<std::string> seeds;
    for (std::vector<const char *> argv : std::vector<
             std::vector<const char *>>{
             {"--id", "fig2", "--preset", "fig2", "--scale", "4000"},
             {"--id", "m", "--workloads", "int", "--filter", "12",
              "--config", "mdp.policy=NO,core.windowSize=64", "--config",
              "mdp.lsqModel=AS,mdp.policy=NAV", "--set", "check.level=1",
              "--set", "mdp.recovery=selective", "--scale", "2000",
              "--interval", "500"},
             {"--id", "c", "--workloads", "129.compress,126", "--config",
              "mdp.policy=SYNC;core.windowSize=32"}}) {
        argv.insert(argv.begin(), {"cwsim-client", "--socket", "d.sock"});
        svc::ClientArgs args;
        CliRequest request;
        std::string err;
        ASSERT_TRUE(parseCli(svc::clientCli(args),
                             static_cast<int>(argv.size()), argv.data(),
                             request, err))
            << err;
        seeds.push_back(svc::submitRequest(args));
        std::map<std::string, std::string> fields;
        svc::SweepSpec spec;
        ASSERT_TRUE(parseFlatJson(seeds.back(), fields));
        ASSERT_TRUE(svc::parseSweepSpec(fields, spec, err)) << err;
    }

    Random rng(0x5b17);
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < mutations; ++i) {
        std::string line = seeds[rng.below(seeds.size())];
        if (i % 2) {
            line = mutant(rng, line, ',');
        } else {
            // Edit one value and re-encode, so the line stays
            // well-formed and the spec parser sees the edit.
            std::map<std::string, std::string> fields;
            ASSERT_TRUE(parseFlatJson(line, fields));
            auto it = std::next(fields.begin(), rng.below(fields.size()));
            it->second = mutant(rng, it->second, i % 4 ? ',' : ';');
            JsonObject obj;
            for (const auto &[key, value] : fields)
                obj.add(key, value);
            line = obj.str();
        }
        try {
            std::map<std::string, std::string> fields;
            if (!parseFlatJson(line, fields)) {
                ++rejected;
                continue;
            }
            svc::SweepSpec spec;
            std::string err;
            if (svc::parseSweepSpec(fields, spec, err)) {
                ++accepted;
                EXPECT_GT(spec.runCount(), 0u) << line;
            } else {
                ++rejected;
                // A config override is refused by fatal(); a panic would
                // mean a client's typo reached an internal assertion.
                EXPECT_FALSE(err.empty()) << line;
                EXPECT_FALSE(startsWith(err, "panic")) << err << ": "
                                                       << line;
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "threw " << e.what() << ":\n" << line;
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // anonymous namespace
} // namespace cwsim
