/**
 * @file
 * The speculation observatory: per-static-PC attribution of every
 * memory-dependence event the simulators produce.
 *
 * Aggregate counters (ProcStats, the CPI stack) answer "how many
 * violations"; this collector answers WHICH static loads and stores
 * caused them. It keeps, per run:
 *
 *  - per-load-PC counters: executions, store-buffer forwarding hits,
 *    replays, violations suffered, SYNC waits, SEL holds, barrier
 *    holds, false-/true-dependence commit classification and the
 *    false-dependence stall cycles paid at the issue gates;
 *  - per-store-PC counters: commits, violations caused, barrier
 *    predictions, SYNC producer signals;
 *  - a violation/sync EDGE TABLE keyed by (store PC, load PC) with
 *    occurrence counts, a log2 window-distance histogram, and the
 *    overlap kind (full vs partial byte coverage, derived from the
 *    same byte provenance that drives loadByteSource);
 *  - MDPT introspection: synonym allocations / merges / evictions and
 *    miss-speculations per PC, plus occupancy and mean prediction
 *    confidence sampled at the predictor's reset boundaries.
 *
 * Gating: a simulator asks DepProfManager::active() once, when it is
 * built, and creates a DepProfile only then; every hook tests that
 * run's dprof pointer, one predicted-false branch when profiling is
 * off. The profiling state is process-global and deliberately NOT
 * part of SimConfig — enabling it cannot change run-cache
 * fingerprints — and the enabled path only ever reads simulation
 * state, never feeds back into it, so simulated stats stay
 * bit-identical either way (enforced by test and by the
 * depprof-smoke CI job).
 *
 * The on-disk product is a flat-JSON-lines ".depprof.jsonl" file, one
 * self-describing block per run, written atomically with respect to
 * concurrent sweep workers. mdp::DepProfileFile (mdp/dep_profile.hh)
 * is the loader/validator and the input contract for profile-guided
 * policies. Wire format, all lines carrying "v" (dep_profile_version)
 * and "run" (the run label):
 *
 *   {"v":1,"kind":"header","run":L,"sim":"proc","loads":n,
 *    "stores":n,"edges":n,"mdpt_pcs":n,"mdpt_samples":n}
 *   {"v":1,"kind":"load","run":L,"pc":"0x...","execs":..,
 *    "forwards":..,"replays":..,"violations":..,"sync_waits":..,
 *    "sel_holds":..,"barrier_holds":..,"false_dep_loads":..,
 *    "false_dep_cycles":..,"true_dep_loads":..,"commits":..}
 *   {"v":1,"kind":"store","run":L,"pc":"0x...","commits":..,
 *    "violations_caused":..,"barriers":..,"sync_produces":..}
 *   {"v":1,"kind":"edge","run":L,"store_pc":"0x..","load_pc":"0x..",
 *    "violations":..,"syncs":..,"full_overlaps":..,
 *    "partial_overlaps":..,"dist":"b:count;b:count"}
 *   {"v":1,"kind":"mdpt","run":L,"pc":"0x..","allocs":..,
 *    "evicts":..,"pairs":..,"merges":..,"miss_specs":..}
 *   {"v":1,"kind":"mdpt_sample","run":L,"cycle":..,"occupancy":..,
 *    "mean_confidence":..}
 *
 * The header's counts must match the block's record counts — torn or
 * interleaved blocks are detected by the validator, not silently
 * merged. "dist" encodes the non-empty histogram buckets as
 * "bucket:count" pairs (see depDistBucket) because the wire format is
 * flat JSON with no arrays.
 */

#ifndef CWSIM_OBS_DEPPROF_HH
#define CWSIM_OBS_DEPPROF_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"
#include "sim/stats.hh"

namespace cwsim
{
namespace obs
{

/** Version of the .depprof.jsonl wire format ("v" on every line). */
constexpr unsigned dep_profile_version = 1;

/**
 * Window-distance histogram geometry: log2 buckets. Bucket b counts
 * distances in [2^b, 2^(b+1)); the last bucket is open-ended.
 */
constexpr size_t dep_dist_buckets = 12;

/** The histogram bucket for a (store, load) window distance. */
size_t depDistBucket(uint64_t distance);

/** Human label for one distance bucket ("4-7", "2048+"). */
std::string depDistBucketLabel(size_t bucket);

/** Per-load-PC dependence counters. */
struct DepLoadCounters
{
    stats::Scalar execs;         ///< Memory executions (incl. replays).
    stats::Scalar forwards;      ///< Served fully by the store buffer.
    stats::Scalar replays;       ///< AS silent re-executions.
    stats::Scalar violations;    ///< Miss-speculations suffered.
    stats::Scalar syncWaits;     ///< Cycles held synchronizing (SYNC).
    stats::Scalar selHolds;      ///< Cycles held by SEL prediction.
    stats::Scalar barrierHolds;  ///< Cycles held behind a STORE barrier.
    stats::Scalar falseDepLoads; ///< Commits classified false-dep.
    stats::Scalar falseDepCycles; ///< Stall cycles paid on those.
    stats::Scalar trueDepLoads;  ///< Commits classified true-dep.
    stats::Scalar commits;
};

/** Per-store-PC dependence counters. */
struct DepStoreCounters
{
    stats::Scalar commits;
    stats::Scalar violationsCaused;
    stats::Scalar barriers;      ///< Dispatched as a predicted barrier.
    stats::Scalar syncProduces;  ///< SYNC producer signals delivered.
};

/** One (store PC, load PC) dependence edge. */
struct DepEdgeCounters
{
    stats::Scalar violations;
    stats::Scalar syncs;         ///< Times SYNC serialized this edge.
    stats::Scalar fullOverlaps;  ///< Store covered every load byte.
    stats::Scalar partialOverlaps;
    std::array<uint64_t, dep_dist_buckets> dist{};
};

/** Per-PC MDPT introspection counters. */
struct DepMdptCounters
{
    stats::Scalar allocs;    ///< Entries allocated for this PC.
    stats::Scalar evicts;    ///< This PC's entry chosen as LRU victim.
    stats::Scalar pairs;     ///< Synonym pairings involving this PC.
    stats::Scalar merges;    ///< Pairings that reused an existing chain.
    stats::Scalar missSpecs; ///< recordMissSpeculation hits.
};

/**
 * One counter of a dependence-profile record: its wire name, which is
 * also its stat name under "<parent>.depprof.<kind>_0x<pc>.", and its
 * member.
 */
template <class Counters>
struct DepCounterField
{
    const char *name;
    stats::Scalar Counters::*member;
};

/**
 * Each counter struct's fields, in wire order. The stats registration,
 * DepProfile::serialize() and mdp::DepProfileFile all walk these
 * tables; the header, the PC keys, an edge's "dist" and the
 * mdpt_sample records are written out by hand.
 */
inline constexpr DepCounterField<DepLoadCounters> dep_load_fields[] = {
    {"execs", &DepLoadCounters::execs},
    {"forwards", &DepLoadCounters::forwards},
    {"replays", &DepLoadCounters::replays},
    {"violations", &DepLoadCounters::violations},
    {"sync_waits", &DepLoadCounters::syncWaits},
    {"sel_holds", &DepLoadCounters::selHolds},
    {"barrier_holds", &DepLoadCounters::barrierHolds},
    {"false_dep_loads", &DepLoadCounters::falseDepLoads},
    {"false_dep_cycles", &DepLoadCounters::falseDepCycles},
    {"true_dep_loads", &DepLoadCounters::trueDepLoads},
    {"commits", &DepLoadCounters::commits},
};

inline constexpr DepCounterField<DepStoreCounters> dep_store_fields[] = {
    {"commits", &DepStoreCounters::commits},
    {"violations_caused", &DepStoreCounters::violationsCaused},
    {"barriers", &DepStoreCounters::barriers},
    {"sync_produces", &DepStoreCounters::syncProduces},
};

inline constexpr DepCounterField<DepEdgeCounters> dep_edge_fields[] = {
    {"violations", &DepEdgeCounters::violations},
    {"syncs", &DepEdgeCounters::syncs},
    {"full_overlaps", &DepEdgeCounters::fullOverlaps},
    {"partial_overlaps", &DepEdgeCounters::partialOverlaps},
};

inline constexpr DepCounterField<DepMdptCounters> dep_mdpt_fields[] = {
    {"allocs", &DepMdptCounters::allocs},
    {"evicts", &DepMdptCounters::evicts},
    {"pairs", &DepMdptCounters::pairs},
    {"merges", &DepMdptCounters::merges},
    {"miss_specs", &DepMdptCounters::missSpecs},
};

/** One occupancy/confidence snapshot (taken at reset boundaries). */
struct DepMdptSample
{
    uint64_t cycle = 0;
    uint64_t occupancy = 0;      ///< Valid MDPT entries.
    double meanConfidence = 0;   ///< Mean confidence of valid entries.
};

/** (store PC, load PC). */
using DepEdgeKey = std::pair<Addr, Addr>;

/**
 * One run's dependence profile. Created by a simulator when profiling
 * is enabled (never otherwise — the hooks are pointer-gated); with a
 * parent StatGroup the per-PC counters also register as flat-JSON
 * stats under "<parent>.depprof.*" with hex-PC key segments.
 */
class DepProfile
{
  public:
    /**
     * @param sim Which simulator produced the profile ("proc"/"split").
     * @param run The run label ("workload config").
     * @param parent Optional stats parent; when set, counters register
     *        in a child group named "depprof".
     */
    DepProfile(std::string sim, std::string run,
               stats::StatGroup *parent = nullptr);

    // ---- load-side hooks ---------------------------------------------
    void noteLoadExec(Addr pc, bool forwarded);
    void noteLoadReplay(Addr pc);
    void noteSelHold(Addr pc);
    void noteBarrierHold(Addr pc);
    void noteLoadCommit(Addr pc);
    void noteFalseDep(Addr pc, uint64_t stall_cycles);
    void noteTrueDep(Addr pc);

    // ---- store-side hooks --------------------------------------------
    void noteStoreCommit(Addr pc);
    void noteStoreBarrier(Addr pc);

    // ---- edge hooks ---------------------------------------------------
    /** A detected miss-speculation: @p load_pc read stale data that
     *  @p store_pc produced, @p distance window slots apart. */
    void noteViolation(Addr store_pc, Addr load_pc, uint64_t distance,
                       bool full_overlap);
    /** A SYNC hold: @p load_pc waited on the producing @p store_pc. */
    void noteSyncWait(Addr load_pc, Addr store_pc, uint64_t distance);

    // ---- MDPT introspection hooks -------------------------------------
    void noteMdptAlloc(Addr pc);
    void noteMdptEvict(Addr victim_pc);
    void noteMdptPair(Addr load_pc, Addr store_pc, bool merged);
    void noteMdptMissSpec(Addr pc);
    void noteMdptSample(uint64_t cycle, uint64_t occupancy,
                        double mean_confidence);

    // ---- product -------------------------------------------------------
    const std::string &simName() const { return sim; }
    const std::string &runLabel() const { return run; }

    const std::map<Addr, DepLoadCounters> &loads() const
    { return loadMap; }
    const std::map<Addr, DepStoreCounters> &stores() const
    { return storeMap; }
    const std::map<DepEdgeKey, DepEdgeCounters> &edges() const
    { return edgeMap; }
    const std::map<Addr, DepMdptCounters> &mdptPcs() const
    { return mdptMap; }
    const std::vector<DepMdptSample> &mdptSamples() const
    { return samples; }

    uint64_t numLoads() const { return loadMap.size(); }
    uint64_t numStores() const { return storeMap.size(); }
    uint64_t numEdges() const { return edgeMap.size(); }

    /**
     * The top @p k edges by (violations, syncs) descending, PC-order
     * tie-broken, encoded compactly for the sweep record's
     * dep_hot_edges field: "0xS-0xL:viol:syncs;..." (possibly empty).
     */
    std::string hotEdges(size_t k) const;

    /**
     * Serialize the whole profile as one block of flat JSON lines
     * (header first; see the file comment for the format). Maps are
     * walked in key order, so equal profiles yield identical blocks.
     */
    void serialize(std::vector<std::string> &out) const;

  private:
    DepLoadCounters &loadRec(Addr pc);
    DepStoreCounters &storeRec(Addr pc);
    DepEdgeCounters &edgeRec(Addr store_pc, Addr load_pc);
    DepMdptCounters &mdptRec(Addr pc);

    std::string sim;
    std::string run;
    std::map<Addr, DepLoadCounters> loadMap;
    std::map<Addr, DepStoreCounters> storeMap;
    std::map<DepEdgeKey, DepEdgeCounters> edgeMap;
    std::map<Addr, DepMdptCounters> mdptMap;
    std::vector<DepMdptSample> samples;

    /** The "depprof" stats child, or null when stats-less (split). */
    std::unique_ptr<stats::StatGroup> group;
};

/**
 * Process-wide profiling configuration + the serialized writer, the
 * exact shape of TraceManager: global (never in SimConfig), env-
 * configurable, and parallel-sweep safe — each run's block is written
 * under one mutex so concurrent workers cannot interleave blocks.
 */
class DepProfManager
{
  public:
    /**
     * The process-wide manager. First use applies CWSIM_DEPPROF:
     * unset/""/"0" leaves profiling off, "1" enables the default
     * path (cwsim.depprof.jsonl), anything else enables that path.
     */
    static DepProfManager &instance();

    /** Enable profiling into @p path ("" = the default path). */
    void enable(const std::string &path = "");
    void disable();

    bool active() const { return on.load(); }
    const std::string &path() const { return outPath; }

    /** Append one run's block to the profile file (mutex-held). */
    void writeRun(const DepProfile &prof);

    /** Tests only: disable and forget the configured path. */
    void resetForTesting();

  private:
    DepProfManager();
    DepProfManager(const DepProfManager &) = delete;
    DepProfManager &operator=(const DepProfManager &) = delete;

    std::atomic<bool> on{false};
    std::mutex writeMutex;
    std::string outPath;
};

} // namespace obs
} // namespace cwsim

#endif // CWSIM_OBS_DEPPROF_HH
