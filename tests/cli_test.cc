/**
 * @file
 * Tests for the four command lines — the benches (sweep::benchCli),
 * cwsimd (svc::daemonCli), cwsim-client (svc::clientCli) and
 * cwsim-report (sweep::reportCli) — through the one parser that walks
 * them (base/cli.hh): every row reaches --help, both value spellings
 * agree, each rejection reaches its program's error path with its
 * message, and a pin holds each program's flags, aliases, kinds and
 * environment variables.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/str.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "sweep/bench_cli.hh"
#include "sweep/report.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace
{

const char *const programs[] = {"bench", "cwsimd", "cwsim-client",
                                "cwsim-report"};

/** Fresh options for every program, and each table bound to them. */
struct Tables
{
    sweep::BenchOptions bench;
    svc::ServerOptions daemon;
    svc::ClientArgs client;
    sweep::ReportArgs report;

    CliSpec
    of(const std::string &prog)
    {
        if (prog == "bench")
            return sweep::benchCli(bench);
        if (prog == "cwsimd")
            return svc::daemonCli(daemon);
        if (prog == "cwsim-client")
            return svc::clientCli(client);
        return sweep::reportCli(report);
    }
};

/** One letter per value kind: Switch, Text, List, Count, Duration,
 * Request. */
char
kindOf(const CliFlag &f)
{
    return "STLCCDR"[f.to.index()];
}

bool
takesValue(const CliFlag &f)
{
    return kindOf(f) != 'S' && kindOf(f) != 'R';
}

/** Every row's current value, so two parses can be compared whole. */
std::string
dump(const CliSpec &spec)
{
    std::string out;
    for (const CliFlag &f : spec.flags) {
        out += std::string(f.name) + "=";
        std::visit(
            [&](auto target) {
                using T = decltype(target);
                if constexpr (std::is_same_v<T, bool *>) {
                    out += *target ? "true" : "false";
                } else if constexpr (std::is_same_v<T, std::string *>) {
                    out += *target;
                } else if constexpr (std::is_same_v<
                                         T, std::vector<std::string> *>) {
                    for (const std::string &v : *target)
                        out += v + ";";
                } else if constexpr (std::is_same_v<T, double *>) {
                    out += strfmt("%.17g", *target);
                } else if constexpr (std::is_pointer_v<T>) {
                    out += std::to_string(*target);
                }
            },
            f.to);
        out += "\n";
    }
    return out;
}

/** A value @p f accepts that differs from every default. */
std::string
sampleValue(const CliFlag &f)
{
    switch (kindOf(f)) {
      case 'C':
        return std::to_string(f.min + 7);
      case 'D':
        return "2.5";
      default:
        return "k=v.x";
    }
}

struct Parse
{
    bool ok = false;
    CliRequest request = CliRequest::Run;
    std::string err;
    std::string values;
};

/** Parse @p args, after the --socket the two daemon tools require. */
Parse
parse(const std::string &prog, std::vector<std::string> args)
{
    Tables t;
    CliSpec spec = t.of(prog);
    if (prog == "cwsimd" || prog == "cwsim-client")
        args.insert(args.begin(), {"--socket", "d.sock"});
    args.insert(args.begin(), prog);
    std::vector<const char *> argv;
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    Parse p;
    p.ok = parseCli(spec, static_cast<int>(argv.size()), argv.data(),
                    p.request, p.err);
    p.values = dump(spec);
    return p;
}

TEST(CliTest, EveryRowAppearsInHelp)
{
    for (const char *prog : programs) {
        Tables t;
        CliSpec spec = t.of(prog);
        std::string help = cliHelp(spec, prog);
        EXPECT_TRUE(startsWith(help, std::string("usage: ") + prog))
            << help;
        for (const CliFlag &f : spec.flags) {
            std::string line = std::string("  ") + f.name;
            if (f.meta)
                line += std::string(" ") + f.meta;
            if (f.alias)
                line += std::string(", ") + f.alias;
            EXPECT_NE(help.find(line), std::string::npos)
                << prog << ": " << line;
            EXPECT_NE(help.find(f.help), std::string::npos)
                << prog << ": " << f.name;
            for (const char *env : {f.env, f.libEnv}) {
                if (env) {
                    EXPECT_NE(help.find(strfmt("[%s]", env)),
                              std::string::npos)
                        << prog << ": " << env;
                }
            }
            // Every value row names its value; no switch does.
            EXPECT_EQ(f.meta != nullptr, takesValue(f))
                << prog << ": " << f.name;
        }
    }
}

TEST(CliTest, InlineAndSeparateValuesAgree)
{
    for (const char *prog : programs) {
        Tables t;
        const std::string defaults = dump(t.of(prog));
        for (const CliFlag &f : t.of(prog).flags) {
            if (!takesValue(f))
                continue;
            std::string value = sampleValue(f);
            Parse apart = parse(prog, {f.name, value});
            Parse joined = parse(prog, {std::string(f.name) + "=" + value});
            ASSERT_TRUE(apart.ok) << prog << " " << f.name << ": "
                                  << apart.err;
            ASSERT_TRUE(joined.ok) << prog << " " << f.name << ": "
                                   << joined.err;
            EXPECT_EQ(apart.values, joined.values) << prog << " " << f.name;
            EXPECT_NE(apart.values, defaults) << prog << " " << f.name;
            if (f.alias) {
                EXPECT_EQ(parse(prog, {f.alias, value}).values,
                          apart.values)
                    << prog << " " << f.alias;
            }
        }
    }
}

TEST(CliTest, RejectionsCarryTheirMessage)
{
    for (const char *prog : programs) {
        Parse unknown = parse(prog, {"--no-such-flag"});
        EXPECT_FALSE(unknown.ok);
        EXPECT_TRUE(startsWith(unknown.err,
                               "unknown option '--no-such-flag'\nusage: "))
            << prog << ": " << unknown.err;

        Tables t;
        for (const CliFlag &f : t.of(prog).flags) {
            if (takesValue(f)) {
                Parse missing = parse(prog, {f.name});
                EXPECT_FALSE(missing.ok);
                EXPECT_EQ(missing.err, std::string(f.name) +
                                           " requires a value");
            }
            if (kindOf(f) != 'C')
                continue;
            Parse junk = parse(prog, {f.name, "12x"});
            EXPECT_EQ(junk.err, std::string(f.name) +
                                    ": not an unsigned integer: '12x'");
            if (f.min > 0) {
                Parse low = parse(prog, {f.name, std::to_string(f.min - 1)});
                EXPECT_EQ(low.err, strfmt("%s: must be >= %llu (got %llu)",
                                          f.name,
                                          (unsigned long long)f.min,
                                          (unsigned long long)f.min - 1));
            }
            uint64_t max = std::holds_alternative<unsigned *>(f.to)
                               ? std::min<uint64_t>(f.max, ~0u)
                               : f.max;
            if (max < ~uint64_t{0}) {
                Parse high = parse(prog, {f.name, std::to_string(max + 1)});
                EXPECT_EQ(high.err,
                          strfmt("%s: must be <= %llu (got %llu)", f.name,
                                 (unsigned long long)max,
                                 (unsigned long long)max + 1));
            }
        }
    }
}

TEST(CliTest, SwitchesRefuseAnInlineValue)
{
    // A switch takes no value: "--cpi-stack=0" is refused, not read as
    // the bare switch. Every switch row of the four tables, then each
    // program's error path.
    size_t switches = 0;
    for (const char *prog : programs) {
        const std::string defaults = parse(prog, {}).values;
        Tables t;
        for (const CliFlag &f : t.of(prog).flags) {
            if (kindOf(f) != 'S')
                continue;
            ++switches;
            for (const char *value : {"0", "1", "false", ""}) {
                Parse p = parse(prog, {std::string(f.name) + "=" + value});
                EXPECT_FALSE(p.ok) << prog << " " << f.name << "=" << value;
                EXPECT_EQ(p.err, std::string(f.name) + " takes no value")
                    << prog;
            }
            Parse bare = parse(prog, {f.name});
            EXPECT_TRUE(bare.ok) << prog << " " << f.name << ": " << bare.err;
            EXPECT_NE(bare.values, defaults) << prog << " " << f.name;
        }
    }
    EXPECT_EQ(switches, 11u); // six bench rows, three client, two report

    const char *bench[] = {"bench", "--cpi-stack=0"};
    EXPECT_EXIT(sweep::parseBenchArgs(2, const_cast<char **>(bench)),
                ::testing::ExitedWithCode(1), "--cpi-stack takes no value");
    Tables t;
    const char *client[] = {"cwsim-client", "--socket", "s", "--quiet=0"};
    EXPECT_EXIT(svc::parseToolArgs(t.of("cwsim-client"), 4,
                                   const_cast<char **>(client),
                                   "cwsim-client"),
                ::testing::ExitedWithCode(2),
                "cwsim-client: --quiet takes no value");
    const char *report[] = {"cwsim-report", "--diff=false"};
    EXPECT_EXIT(svc::parseToolArgs(t.of("cwsim-report"), 2,
                                   const_cast<char **>(report),
                                   "cwsim-report"),
                ::testing::ExitedWithCode(2),
                "cwsim-report: --diff takes no value");
}

TEST(CliTest, DaemonToolsRequireASocket)
{
    for (const char *prog : {"cwsimd", "cwsim-client"}) {
        Tables t;
        CliSpec spec = t.of(prog);
        const char *bare[] = {prog};
        CliRequest request;
        std::string err;
        EXPECT_FALSE(parseCli(spec, 1, bare, request, err));
        EXPECT_EQ(err, "--socket PATH is required") << prog;
        const char *help[] = {prog, "--help"};
        EXPECT_TRUE(parseCli(spec, 2, help, request, err)) << prog;
        EXPECT_EQ(request, CliRequest::Help);
    }
}

TEST(CliTest, HelpAndVersionEndTheWalk)
{
    for (const char *prog : programs) {
        Parse help = parse(prog, {"--help", "--no-such-flag"});
        EXPECT_TRUE(help.ok) << prog;
        EXPECT_EQ(help.request, CliRequest::Help) << prog;
        EXPECT_EQ(parse(prog, {"-h"}).request, CliRequest::Help) << prog;
        Parse version = parse(prog, {"--version"});
        if (std::string(prog) == "bench") {
            EXPECT_FALSE(version.ok);
        } else {
            EXPECT_TRUE(version.ok) << prog;
            EXPECT_EQ(version.request, CliRequest::Version) << prog;
        }
    }
}

/**
 * Each program's flags as "name [alias] kind [env]", in table order:
 * what every program accepted and read before the tables existed.
 * Kinds: S switch, T text, L repeatable text, C count, D seconds,
 * R help/version request; "required" marks a row that must be given.
 */
TEST(CliTest, FlagsAliasesAndEnvironmentArePinned)
{
    const std::vector<std::pair<const char *, std::vector<std::string>>>
        pins = {
            {"bench",
             {"--jobs -j C CWSIM_JOBS", "--scale C CWSIM_SCALE",
              "--filter T", "--json T", "--no-cache S",
              "--cache-dir T CWSIM_CACHE_DIR", "--trace T CWSIM_TRACE",
              "--trace-file T CWSIM_TRACE_FILE",
              "--pipeview T CWSIM_PIPEVIEW",
              "--interval C CWSIM_INTERVAL",
              "--interval-file T CWSIM_INTERVAL_FILE",
              "--depprof S CWSIM_DEPPROF", "--depprof-file T CWSIM_DEPPROF",
              "--cpi-stack S CWSIM_CPI_STACK", "--isolate S CWSIM_ISOLATE",
              "--timeout D CWSIM_TIMEOUT",
              "--mem-limit C CWSIM_MEM_LIMIT",
              "--retries C CWSIM_RETRIES", "--set L", "--cache-fsck S",
              "--cache-compact S", "--help -h R"}},
            {"cwsimd",
             {"--socket T required", "--cache-dir T CWSIM_CACHE_DIR",
              "--jobs C CWSIM_JOBS", "--scale C CWSIM_SCALE",
              "--timeout D", "--mem-limit C", "--retries C",
              "--max-queued C", "--quota C", "--metrics-file T",
              "--metrics-interval D", "--trace-events T", "--version R",
              "--help -h R"}},
            {"cwsim-client",
             {"--socket T required", "--id T", "--preset T",
              "--workloads T",
              "--filter T", "--scale T", "--config L", "--set L",
              "--interval T", "--interval-file T", "--json T",
              "--stats S", "--shutdown S", "--quiet S", "--version R",
              "--help -h R"}},
            {"cwsim-report",
             {"--format T", "--out T", "--top C", "--diff S",
              "--depprof T", "--connect T", "--status S", "--version R",
              "--help -h R"}},
        };
    for (const auto &[prog, pin] : pins) {
        Tables t;
        std::vector<std::string> rows;
        for (const CliFlag &f : t.of(prog).flags) {
            std::string row = f.name;
            if (f.alias)
                row += std::string(" ") + f.alias;
            row += std::string(" ") + kindOf(f);
            if (f.required)
                row += " required";
            if (const char *env = f.env ? f.env : f.libEnv)
                row += std::string(" ") + env;
            rows.push_back(row);
        }
        EXPECT_EQ(rows, pin) << prog;
    }
}

TEST(CliTest, ReportTakesOperandsAndTheOthersRefuseThem)
{
    Tables t;
    CliSpec spec = t.of("cwsim-report");
    const char *argv[] = {"cwsim-report", "a.jsonl", "--diff", "-",
                          "--top=3", "--format", "html", "b.jsonl"};
    CliRequest request;
    std::string err;
    ASSERT_TRUE(parseCli(spec, 8, argv, request, err)) << err;
    EXPECT_EQ(t.report.inputs,
              (std::vector<std::string>{"a.jsonl", "-", "b.jsonl"}));
    EXPECT_TRUE(t.report.diff);
    EXPECT_EQ(t.report.top, 3u);
    EXPECT_EQ(t.report.format, "html");

    for (const char *prog : {"bench", "cwsimd", "cwsim-client"}) {
        Parse p = parse(prog, {"a.jsonl"});
        EXPECT_FALSE(p.ok) << prog;
        EXPECT_TRUE(startsWith(p.err, "unknown option 'a.jsonl'")) << prog;
    }
}

TEST(CliTest, EnvironmentDefaultsYieldToFlags)
{
    setenv("CWSIM_CACHE_DIR", "env-cache", 1);
    EXPECT_NE(parse("cwsimd", {}).values.find("--cache-dir=env-cache\n"),
              std::string::npos);
    EXPECT_NE(parse("cwsimd", {"--cache-dir", "flag-cache"})
                  .values.find("--cache-dir=flag-cache\n"),
              std::string::npos);
    unsetenv("CWSIM_CACHE_DIR");

    // A library-owned variable is named, not read, by the table.
    setenv("CWSIM_SCALE", "5000", 1);
    EXPECT_NE(parse("cwsimd", {}).values.find("--scale=0\n"),
              std::string::npos);
    unsetenv("CWSIM_SCALE");
}

TEST(CliTest, DaemonRefusesAScaleBelowTheMinimum)
{
    for (const char *scale : {"999", "0"}) {
        Tables t;
        CliSpec spec = t.of("cwsimd");
        const char *argv[] = {"cwsimd", "--socket", "unused.sock",
                              "--scale", scale};
        EXPECT_EXIT(svc::parseToolArgs(spec, 5, const_cast<char **>(argv),
                                       "cwsimd"),
                    ::testing::ExitedWithCode(2),
                    strfmt("cwsimd: --scale: must be >= %llu",
                           (unsigned long long)workloads::min_scale))
            << scale;
    }
    Parse ok = parse("cwsimd", {"--scale", "1000"});
    EXPECT_TRUE(ok.ok) << ok.err;
}

TEST(CliTest, ToolsExitTwoAndBenchesExitOne)
{
    for (const char *prog : {"cwsimd", "cwsim-client", "cwsim-report"}) {
        Tables t;
        CliSpec spec = t.of(prog);
        const char *argv[] = {prog, "--bogus"};
        EXPECT_EXIT(svc::parseToolArgs(spec, 2, const_cast<char **>(argv),
                                       prog),
                    ::testing::ExitedWithCode(2),
                    std::string(prog) + ": unknown option '--bogus'")
            << prog;
    }
    const char *bench[] = {"bench", "--bogus"};
    EXPECT_EXIT(sweep::parseBenchArgs(2, const_cast<char **>(bench)),
                ::testing::ExitedWithCode(1), "unknown option '--bogus'");
    const char *format[] = {"cwsim-report", "--format"};
    Tables t;
    EXPECT_EXIT(svc::parseToolArgs(t.of("cwsim-report"), 2,
                                   const_cast<char **>(format),
                                   "cwsim-report"),
                ::testing::ExitedWithCode(2),
                "cwsim-report: --format requires a value");
}

TEST(CliTest, ClientPassesScaleAndIntervalThroughAsText)
{
    Tables t;
    CliSpec spec = t.of("cwsim-client");
    const char *argv[] = {"cwsim-client", "--socket", "s", "--id", "x",
                          "--scale", "12ab", "--interval=-1",
                          "--config", "mdp.policy=NO", "--config",
                          "mdp.policy=SYNC", "--set", "check.level=1"};
    CliRequest request;
    std::string err;
    ASSERT_TRUE(parseCli(spec, 14, argv, request, err)) << err;
    EXPECT_EQ(svc::submitRequest(t.client),
              "{\"cmd\":\"submit\",\"id\":\"x\",\"scale\":\"12ab\","
              "\"configs\":\"mdp.policy=NO;mdp.policy=SYNC\","
              "\"set\":\"check.level=1\",\"interval\":\"-1\"}");
}

} // anonymous namespace
} // namespace cwsim
