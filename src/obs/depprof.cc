#include "obs/depprof.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{
namespace obs
{

size_t
depDistBucket(uint64_t distance)
{
    if (distance < 2)
        return 0;
    size_t b = 0;
    while (distance > 1) {
        distance >>= 1;
        ++b;
    }
    return std::min(b, dep_dist_buckets - 1);
}

std::string
depDistBucketLabel(size_t bucket)
{
    if (bucket == 0)
        return "0-1";
    if (bucket >= dep_dist_buckets - 1)
        return strfmt("%llu+", 1ull << (dep_dist_buckets - 1));
    return strfmt("%llu-%llu", 1ull << bucket,
                  (1ull << (bucket + 1)) - 1);
}

DepProfile::DepProfile(std::string sim_name, std::string run_label,
                       stats::StatGroup *parent)
    : sim(std::move(sim_name)), run(std::move(run_label))
{
    if (parent)
        group = std::make_unique<stats::StatGroup>("depprof", parent);
}

namespace
{

/**
 * Register @p rec's counters as "<kind>_0x<pc>.<name>" stats. Map
 * nodes are address-stable, so pointers into a freshly inserted
 * record stay valid for the group's lifetime.
 */
template <class Counters, size_t N>
void
registerCounters(stats::StatGroup &group, const char *kind, Addr pc,
                 const DepCounterField<Counters> (&fields)[N],
                 const Counters &rec)
{
    std::string base = strfmt("%s_0x%llx.", kind,
                              static_cast<unsigned long long>(pc));
    for (const auto &f : fields)
        group.addScalar(base + f.name, &(rec.*f.member));
}

} // anonymous namespace

DepLoadCounters &
DepProfile::loadRec(Addr pc)
{
    auto [it, fresh] = loadMap.try_emplace(pc);
    if (fresh && group)
        registerCounters(*group, "load", pc, dep_load_fields,
                         it->second);
    return it->second;
}

DepStoreCounters &
DepProfile::storeRec(Addr pc)
{
    auto [it, fresh] = storeMap.try_emplace(pc);
    if (fresh && group) {
        registerCounters(*group, "store", pc, dep_store_fields,
                         it->second);
    }
    return it->second;
}

DepEdgeCounters &
DepProfile::edgeRec(Addr store_pc, Addr load_pc)
{
    return edgeMap[DepEdgeKey(store_pc, load_pc)];
}

DepMdptCounters &
DepProfile::mdptRec(Addr pc)
{
    return mdptMap[pc];
}

void
DepProfile::noteLoadExec(Addr pc, bool forwarded)
{
    DepLoadCounters &rec = loadRec(pc);
    ++rec.execs;
    if (forwarded)
        ++rec.forwards;
}

void
DepProfile::noteLoadReplay(Addr pc)
{
    ++loadRec(pc).replays;
}

void
DepProfile::noteSelHold(Addr pc)
{
    ++loadRec(pc).selHolds;
}

void
DepProfile::noteBarrierHold(Addr pc)
{
    ++loadRec(pc).barrierHolds;
}

void
DepProfile::noteLoadCommit(Addr pc)
{
    ++loadRec(pc).commits;
}

void
DepProfile::noteFalseDep(Addr pc, uint64_t stall_cycles)
{
    DepLoadCounters &rec = loadRec(pc);
    ++rec.falseDepLoads;
    rec.falseDepCycles += stall_cycles;
}

void
DepProfile::noteTrueDep(Addr pc)
{
    ++loadRec(pc).trueDepLoads;
}

void
DepProfile::noteStoreCommit(Addr pc)
{
    ++storeRec(pc).commits;
}

void
DepProfile::noteStoreBarrier(Addr pc)
{
    ++storeRec(pc).barriers;
}

void
DepProfile::noteViolation(Addr store_pc, Addr load_pc,
                          uint64_t distance, bool full_overlap)
{
    ++loadRec(load_pc).violations;
    ++storeRec(store_pc).violationsCaused;
    DepEdgeCounters &edge = edgeRec(store_pc, load_pc);
    ++edge.violations;
    if (full_overlap)
        ++edge.fullOverlaps;
    else
        ++edge.partialOverlaps;
    ++edge.dist[depDistBucket(distance)];
}

void
DepProfile::noteSyncWait(Addr load_pc, Addr store_pc,
                         uint64_t distance)
{
    ++loadRec(load_pc).syncWaits;
    ++storeRec(store_pc).syncProduces;
    DepEdgeCounters &edge = edgeRec(store_pc, load_pc);
    ++edge.syncs;
    ++edge.dist[depDistBucket(distance)];
}

void
DepProfile::noteMdptAlloc(Addr pc)
{
    ++mdptRec(pc).allocs;
}

void
DepProfile::noteMdptEvict(Addr victim_pc)
{
    ++mdptRec(victim_pc).evicts;
}

void
DepProfile::noteMdptPair(Addr load_pc, Addr store_pc, bool merged)
{
    DepMdptCounters &load_rec = mdptRec(load_pc);
    ++load_rec.pairs;
    if (merged)
        ++load_rec.merges;
    if (store_pc != load_pc) {
        DepMdptCounters &store_rec = mdptRec(store_pc);
        ++store_rec.pairs;
        if (merged)
            ++store_rec.merges;
    }
}

void
DepProfile::noteMdptMissSpec(Addr pc)
{
    ++mdptRec(pc).missSpecs;
}

void
DepProfile::noteMdptSample(uint64_t cycle, uint64_t occupancy,
                           double mean_confidence)
{
    samples.push_back({cycle, occupancy, mean_confidence});
}

namespace
{

std::string
pcString(Addr pc)
{
    return strfmt("0x%llx", static_cast<unsigned long long>(pc));
}

std::string
distString(const std::array<uint64_t, dep_dist_buckets> &dist)
{
    std::string out;
    for (size_t b = 0; b < dep_dist_buckets; ++b) {
        if (!dist[b])
            continue;
        if (!out.empty())
            out += ';';
        out += strfmt("%zu:%llu", b,
                      static_cast<unsigned long long>(dist[b]));
    }
    return out;
}

} // anonymous namespace

std::string
DepProfile::hotEdges(size_t k) const
{
    std::vector<std::pair<DepEdgeKey, const DepEdgeCounters *>> ranked;
    ranked.reserve(edgeMap.size());
    for (const auto &[key, edge] : edgeMap)
        ranked.emplace_back(key, &edge);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  uint64_t av = a.second->violations.value();
                  uint64_t bv = b.second->violations.value();
                  if (av != bv)
                      return av > bv;
                  uint64_t as = a.second->syncs.value();
                  uint64_t bs = b.second->syncs.value();
                  if (as != bs)
                      return as > bs;
                  return a.first < b.first;
              });
    if (ranked.size() > k)
        ranked.resize(k);

    std::string out;
    for (const auto &[key, edge] : ranked) {
        if (!out.empty())
            out += ';';
        out += strfmt(
            "%s-%s:%llu:%llu", pcString(key.first).c_str(),
            pcString(key.second).c_str(),
            static_cast<unsigned long long>(edge->violations.value()),
            static_cast<unsigned long long>(edge->syncs.value()));
    }
    return out;
}

void
DepProfile::serialize(std::vector<std::string> &out) const
{
    auto record = [&](const char *kind) {
        JsonObject obj;
        obj.add("v", uint64_t{dep_profile_version})
            .add("kind", kind)
            .add("run", run);
        return obj;
    };
    auto addCounters = [](JsonObject &obj, const auto &fields,
                          const auto &rec) {
        for (const auto &f : fields)
            obj.add(f.name, (rec.*f.member).value());
    };
    auto pcRecords = [&](const char *kind, const auto &map,
                         const auto &fields) {
        for (const auto &[pc, rec] : map) {
            JsonObject obj = record(kind);
            obj.add("pc", pcString(pc));
            addCounters(obj, fields, rec);
            out.push_back(obj.str());
        }
    };

    JsonObject header = record("header");
    header.add("sim", sim)
        .add("loads", static_cast<uint64_t>(loadMap.size()))
        .add("stores", static_cast<uint64_t>(storeMap.size()))
        .add("edges", static_cast<uint64_t>(edgeMap.size()))
        .add("mdpt_pcs", static_cast<uint64_t>(mdptMap.size()))
        .add("mdpt_samples", static_cast<uint64_t>(samples.size()));
    out.push_back(header.str());
    pcRecords("load", loadMap, dep_load_fields);
    pcRecords("store", storeMap, dep_store_fields);
    for (const auto &[key, edge] : edgeMap) {
        JsonObject obj = record("edge");
        obj.add("store_pc", pcString(key.first))
            .add("load_pc", pcString(key.second));
        addCounters(obj, dep_edge_fields, edge);
        obj.add("dist", distString(edge.dist));
        out.push_back(obj.str());
    }
    pcRecords("mdpt", mdptMap, dep_mdpt_fields);
    for (const DepMdptSample &s : samples) {
        JsonObject obj = record("mdpt_sample");
        obj.add("cycle", s.cycle)
            .add("occupancy", s.occupancy)
            .add("mean_confidence", s.meanConfidence);
        out.push_back(obj.str());
    }
}

DepProfManager::DepProfManager()
{
    const char *env = std::getenv("CWSIM_DEPPROF");
    if (!env || !*env || std::string(env) == "0")
        return;
    enable(std::string(env) == "1" ? "" : env);
}

DepProfManager &
DepProfManager::instance()
{
    static DepProfManager mgr;
    return mgr;
}

void
DepProfManager::enable(const std::string &path)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    outPath = path.empty() ? "cwsim.depprof.jsonl" : path;
    on.store(true);
}

void
DepProfManager::disable()
{
    std::lock_guard<std::mutex> lock(writeMutex);
    on.store(false);
}

void
DepProfManager::resetForTesting()
{
    std::lock_guard<std::mutex> lock(writeMutex);
    on.store(false);
    outPath.clear();
}

void
DepProfManager::writeRun(const DepProfile &prof)
{
    std::vector<std::string> lines;
    prof.serialize(lines);

    std::lock_guard<std::mutex> lock(writeMutex);
    if (outPath.empty())
        return;
    int fd = ::open(outPath.c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("depprof: cannot append profile to %s", outPath.c_str());
        return;
    }
    // One block per run, appended as a single write(2): the mutex
    // covers in-process sweep workers, and a lone O_APPEND write covers
    // isolated (forked) workers sharing the file — either way the
    // validator never sees interleaved lines. (stdio would split a
    // block longer than its buffer into two writes.)
    std::string block;
    for (const std::string &line : lines) {
        block += line;
        block += '\n';
    }
    if (::write(fd, block.data(), block.size()) !=
        static_cast<ssize_t>(block.size())) {
        warn("depprof: short write appending to %s", outPath.c_str());
    }
    ::close(fd);
}

} // namespace obs
} // namespace cwsim
