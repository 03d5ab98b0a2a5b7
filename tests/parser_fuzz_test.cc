/**
 * @file
 * A seeded, deterministic mutation fuzzer for four readers: the
 * config text parser, the run-record parser, the dependence-profile
 * loader and the assembler. Each is fed mutants of committed inputs —
 * byte flips, truncations, deleted or duplicated fields and lines, sign
 * and digit edits — and must reject what it cannot read through its
 * normal path: a false return, or a SimError under a ScopedErrorTrap
 * for the config parser and the assembler. A crash or a hang fails the
 * test binary; any other exception fails the test. Run records the
 * parser accepts must also survive a write-and-parse round trip
 * unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "base/jsonl.hh"
#include "base/random.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "isa/asm_parser.hh"
#include "mdp/dep_profile.hh"
#include "sim/config.hh"
#include "sim/config_parse.hh"
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

} // anonymous namespace
} // namespace cwsim
