#include "mdp/dep_profile.hh"

#include <fstream>
#include <limits>

#include "base/jsonl.hh"
#include "base/str.hh"

namespace cwsim
{
namespace mdp
{

namespace
{

using Fields = std::map<std::string, std::string>;

bool
getU64(const Fields &fields, const std::string &key, uint64_t &out)
{
    auto it = fields.find(key);
    return it != fields.end() && parseUnsigned(it->second, out);
}

bool
getF64(const Fields &fields, const std::string &key, double &out)
{
    // JsonObject writes a NaN as the string "nan".
    auto it = fields.find(key);
    if (it == fields.end())
        return false;
    if (it->second == "nan") {
        out = std::numeric_limits<double>::quiet_NaN();
        return true;
    }
    return parseDouble(it->second, out);
}

/** PCs travel as "0x<hex>" strings (JSON numbers lose 64-bit range). */
bool
getPc(const Fields &fields, const std::string &key, Addr &out)
{
    auto it = fields.find(key);
    if (it == fields.end())
        return false;
    const std::string &s = it->second;
    if (s.size() < 3 || s[0] != '0' || (s[1] != 'x' && s[1] != 'X'))
        return false;
    return parseUnsigned(std::string_view(s).substr(2), out, 16);
}

/** Decode the compact "bucket:count;bucket:count" histogram field. */
bool
parseDist(const std::string &s,
          std::array<uint64_t, obs::dep_dist_buckets> &out)
{
    out.fill(0);
    if (s.empty())
        return true;
    size_t pos = 0;
    while (pos < s.size()) {
        size_t colon = s.find(':', pos);
        if (colon == std::string::npos)
            return false;
        size_t semi = s.find(';', colon);
        std::string bucket_text = s.substr(pos, colon - pos);
        std::string count_text =
            s.substr(colon + 1, (semi == std::string::npos
                                     ? s.size()
                                     : semi) - colon - 1);
        uint64_t bucket = 0;
        uint64_t count = 0;
        if (!parseUnsigned(bucket_text, bucket, 10,
                           obs::dep_dist_buckets - 1) ||
            !parseUnsigned(count_text, count) || count == 0) {
            return false;
        }
        if (out[bucket] != 0)
            return false; // duplicate bucket
        out[bucket] = count;
        pos = semi == std::string::npos ? s.size() : semi + 1;
    }
    return true;
}

/** The header's expected record counts, checked at block close. */
struct BlockExpectation
{
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t edges = 0;
    uint64_t mdptPcs = 0;
    uint64_t mdptSamples = 0;
};

} // anonymous namespace

bool
DepProfileFile::parseLines(const std::vector<std::string> &lines)
{
    runList.clear();
    errorList.clear();

    DepProfileRun *cur = nullptr;
    BlockExpectation expect;

    auto fail = [&](size_t line_no, const std::string &what) {
        errorList.push_back(
            strfmt("line %zu: %s", line_no + 1, what.c_str()));
    };

    auto closeBlock = [&](size_t line_no) {
        if (!cur)
            return;
        if (cur->loads.size() != expect.loads ||
            cur->stores.size() != expect.stores ||
            cur->edges.size() != expect.edges ||
            cur->mdpt.size() != expect.mdptPcs ||
            cur->mdptSamples.size() != expect.mdptSamples) {
            fail(line_no,
                 strfmt("run \"%s\": header promised %llu/%llu/%llu/"
                        "%llu/%llu loads/stores/edges/mdpt_pcs/samples "
                        "but the block carries %zu/%zu/%zu/%zu/%zu",
                        cur->run.c_str(),
                        static_cast<unsigned long long>(expect.loads),
                        static_cast<unsigned long long>(expect.stores),
                        static_cast<unsigned long long>(expect.edges),
                        static_cast<unsigned long long>(expect.mdptPcs),
                        static_cast<unsigned long long>(
                            expect.mdptSamples),
                        cur->loads.size(), cur->stores.size(),
                        cur->edges.size(), cur->mdpt.size(),
                        cur->mdptSamples.size()));
        }
        cur = nullptr;
    };

    for (size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (line.empty())
            continue;

        Fields fields;
        if (!parseFlatJson(line, fields)) {
            fail(i, "malformed flat JSON");
            continue;
        }

        uint64_t v = 0;
        if (!getU64(fields, "v", v)) {
            fail(i, "missing or non-numeric version field");
            continue;
        }
        if (v != obs::dep_profile_version) {
            fail(i, strfmt("unsupported profile version %llu "
                           "(this reader speaks %u)",
                           static_cast<unsigned long long>(v),
                           obs::dep_profile_version));
            continue;
        }

        auto kind_it = fields.find("kind");
        auto run_it = fields.find("run");
        if (kind_it == fields.end() || run_it == fields.end()) {
            fail(i, "missing kind/run field");
            continue;
        }
        const std::string &kind = kind_it->second;

        if (kind == "header") {
            closeBlock(i);
            auto sim_it = fields.find("sim");
            BlockExpectation e;
            if (sim_it == fields.end() ||
                !getU64(fields, "loads", e.loads) ||
                !getU64(fields, "stores", e.stores) ||
                !getU64(fields, "edges", e.edges) ||
                !getU64(fields, "mdpt_pcs", e.mdptPcs) ||
                !getU64(fields, "mdpt_samples", e.mdptSamples)) {
                fail(i, "header missing sim or a count field");
                continue;
            }
            runList.emplace_back();
            cur = &runList.back();
            cur->run = run_it->second;
            cur->sim = sim_it->second;
            expect = e;
            continue;
        }

        if (!cur) {
            fail(i, strfmt("%s record before any header",
                           kind.c_str()));
            continue;
        }
        if (run_it->second != cur->run) {
            fail(i, strfmt("record labeled \"%s\" inside run \"%s\" "
                           "(interleaved blocks?)",
                           run_it->second.c_str(), cur->run.c_str()));
            continue;
        }

        if (kind == "load") {
            Addr pc = 0;
            uint64_t execs = 0, forwards = 0, replays = 0,
                     violations = 0, sync_waits = 0, sel_holds = 0,
                     barrier_holds = 0, fd_loads = 0, fd_cycles = 0,
                     td_loads = 0, commits = 0;
            if (!getPc(fields, "pc", pc) ||
                !getU64(fields, "execs", execs) ||
                !getU64(fields, "forwards", forwards) ||
                !getU64(fields, "replays", replays) ||
                !getU64(fields, "violations", violations) ||
                !getU64(fields, "sync_waits", sync_waits) ||
                !getU64(fields, "sel_holds", sel_holds) ||
                !getU64(fields, "barrier_holds", barrier_holds) ||
                !getU64(fields, "false_dep_loads", fd_loads) ||
                !getU64(fields, "false_dep_cycles", fd_cycles) ||
                !getU64(fields, "true_dep_loads", td_loads) ||
                !getU64(fields, "commits", commits)) {
                fail(i, "load record missing or malformed fields");
                continue;
            }
            if (cur->loads.count(pc)) {
                fail(i, strfmt("duplicate load pc 0x%llx",
                               static_cast<unsigned long long>(pc)));
                continue;
            }
            obs::DepLoadCounters &rec = cur->loads[pc];
            rec.execs += execs;
            rec.forwards += forwards;
            rec.replays += replays;
            rec.violations += violations;
            rec.syncWaits += sync_waits;
            rec.selHolds += sel_holds;
            rec.barrierHolds += barrier_holds;
            rec.falseDepLoads += fd_loads;
            rec.falseDepCycles += fd_cycles;
            rec.trueDepLoads += td_loads;
            rec.commits += commits;
        } else if (kind == "store") {
            Addr pc = 0;
            uint64_t commits = 0, caused = 0, barriers = 0,
                     produces = 0;
            if (!getPc(fields, "pc", pc) ||
                !getU64(fields, "commits", commits) ||
                !getU64(fields, "violations_caused", caused) ||
                !getU64(fields, "barriers", barriers) ||
                !getU64(fields, "sync_produces", produces)) {
                fail(i, "store record missing or malformed fields");
                continue;
            }
            if (cur->stores.count(pc)) {
                fail(i, strfmt("duplicate store pc 0x%llx",
                               static_cast<unsigned long long>(pc)));
                continue;
            }
            obs::DepStoreCounters &rec = cur->stores[pc];
            rec.commits += commits;
            rec.violationsCaused += caused;
            rec.barriers += barriers;
            rec.syncProduces += produces;
        } else if (kind == "edge") {
            Addr store_pc = 0, load_pc = 0;
            uint64_t violations = 0, syncs = 0, full = 0, partial = 0;
            auto dist_it = fields.find("dist");
            std::array<uint64_t, obs::dep_dist_buckets> dist{};
            if (!getPc(fields, "store_pc", store_pc) ||
                !getPc(fields, "load_pc", load_pc) ||
                !getU64(fields, "violations", violations) ||
                !getU64(fields, "syncs", syncs) ||
                !getU64(fields, "full_overlaps", full) ||
                !getU64(fields, "partial_overlaps", partial) ||
                dist_it == fields.end() ||
                !parseDist(dist_it->second, dist)) {
                fail(i, "edge record missing or malformed fields");
                continue;
            }
            obs::DepEdgeKey key(store_pc, load_pc);
            if (cur->edges.count(key)) {
                fail(i, strfmt("duplicate edge 0x%llx -> 0x%llx",
                               static_cast<unsigned long long>(
                                   store_pc),
                               static_cast<unsigned long long>(
                                   load_pc)));
                continue;
            }
            obs::DepEdgeCounters &rec = cur->edges[key];
            rec.violations += violations;
            rec.syncs += syncs;
            rec.fullOverlaps += full;
            rec.partialOverlaps += partial;
            rec.dist = dist;
        } else if (kind == "mdpt") {
            Addr pc = 0;
            uint64_t allocs = 0, evicts = 0, pairs = 0, merges = 0,
                     miss_specs = 0;
            if (!getPc(fields, "pc", pc) ||
                !getU64(fields, "allocs", allocs) ||
                !getU64(fields, "evicts", evicts) ||
                !getU64(fields, "pairs", pairs) ||
                !getU64(fields, "merges", merges) ||
                !getU64(fields, "miss_specs", miss_specs)) {
                fail(i, "mdpt record missing or malformed fields");
                continue;
            }
            if (cur->mdpt.count(pc)) {
                fail(i, strfmt("duplicate mdpt pc 0x%llx",
                               static_cast<unsigned long long>(pc)));
                continue;
            }
            obs::DepMdptCounters &rec = cur->mdpt[pc];
            rec.allocs += allocs;
            rec.evicts += evicts;
            rec.pairs += pairs;
            rec.merges += merges;
            rec.missSpecs += miss_specs;
        } else if (kind == "mdpt_sample") {
            obs::DepMdptSample s;
            if (!getU64(fields, "cycle", s.cycle) ||
                !getU64(fields, "occupancy", s.occupancy) ||
                !getF64(fields, "mean_confidence",
                        s.meanConfidence)) {
                fail(i, "mdpt_sample record missing or malformed "
                        "fields");
                continue;
            }
            cur->mdptSamples.push_back(s);
        } else {
            fail(i, strfmt("unknown record kind \"%s\"",
                           kind.c_str()));
        }
    }
    closeBlock(lines.size() ? lines.size() - 1 : 0);
    return errorList.empty();
}

bool
DepProfileFile::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = strfmt("cannot open %s", path.c_str());
        return false;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    bool ok = parseLines(lines);
    if (!ok && err) {
        *err = strfmt("%s: %zu validation error(s); first: %s",
                      path.c_str(), errorList.size(),
                      errorList.empty() ? "?"
                                        : errorList.front().c_str());
    }
    return ok;
}

const DepProfileRun *
DepProfileFile::findRun(const std::string &label) const
{
    for (const DepProfileRun &r : runList) {
        if (r.run == label)
            return &r;
    }
    return nullptr;
}

} // namespace mdp
} // namespace cwsim
