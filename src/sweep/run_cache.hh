/**
 * @file
 * The on-disk run cache behind the sweep engine.
 *
 * Every (workload, scale, SimConfig) triple is fingerprinted — a
 * 64-bit FNV-1a hash over the workload name, the dynamic-instruction
 * scale, and the exhaustive serializeConfig() text, so ANY config
 * field (including check.* and fault-injection knobs) that changes the
 * simulation changes the key. Completed RunResults are appended to
 * <dir>/runs.jsonl, one flat JSON object per line; re-running a bench
 * or resuming an interrupted sweep then skips every run whose
 * fingerprint is already present. Entries of another schema
 * version, malformed JSON, or stale fingerprints are silently
 * ignored (and recomputed) — a poisoned cache can cost time, never
 * correctness.
 */

#ifndef CWSIM_SWEEP_RUN_CACHE_HH
#define CWSIM_SWEEP_RUN_CACHE_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness/harness.hh"
#include "sim/config.hh"

namespace cwsim
{
namespace sweep
{

/**
 * Cache-entry schema; bump when RunResult's serialized shape changes.
 * Only this version is read: a record of any other version is
 * rejected, and the cache recomputes it.
 */
constexpr unsigned run_record_version = 5;

/** Fingerprint of one run: workload name + scale + full config. */
uint64_t fingerprintRun(const std::string &workload, uint64_t scale,
                        const SimConfig &cfg);

/**
 * One JSONL record for @p r (also the exported-results format). The
 * record's fields are declared once, in run_cache.cc's field table,
 * which runRecordLine, the parsers below and simulatedFields walk.
 */
std::string runRecordLine(const harness::RunResult &r, uint64_t fp,
                          uint64_t scale);

/**
 * Rebuild a RunResult from a parsed record's body. Returns false when
 * the record is from another schema version or any field is missing or
 * malformed.
 */
bool runRecordParse(const std::map<std::string, std::string> &fields,
                    harness::RunResult &out);

/**
 * Parse a whole record: its envelope — @p fp (exactly 16 hex digits)
 * and @p scale — together with its body (runRecordParse). Every
 * reader of run records goes through it: the cache scan,
 * loadRunRecords, `cwsim-report --connect` and `cwsim-client`.
 * Returns false, with the outputs unspecified, when any of the three
 * is missing or malformed.
 */
bool runRecordParseWithEnvelope(
    const std::map<std::string, std::string> &fields,
    harness::RunResult &run, uint64_t &fp, uint64_t &scale);

/**
 * The simulated fields of @p r as (wire name, value text) pairs in
 * record order: what diffRunRecords compares. Host fields — timings,
 * cache hits, diagnostics, fail_detail and the dep_* summary — are
 * left out, and so is the run key.
 */
std::vector<std::pair<std::string, std::string>>
simulatedFields(const harness::RunResult &r);

/**
 * Crash-safe against dirty shutdowns and concurrent writers: appends
 * are a single write(2) to an O_APPEND descriptor under an advisory
 * flock, followed by an explicit fdatasync, so two processes sweeping
 * into the same cache directory can never interleave record bytes and
 * a record is durable before append() returns. A process killed
 * mid-append leaves at most one torn trailing line, which reload
 * silently skips (it is expected damage, not corruption) and the next
 * append repairs by prefixing a newline.
 */
class RunCache
{
  public:
    /**
     * Open (creating if needed) the cache under @p dir and index every
     * parseable record of <dir>/runs.jsonl. Later records win.
     */
    explicit RunCache(const std::string &dir);
    ~RunCache();

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /** Look up a completed run; true and fills @p out on a hit. */
    bool lookup(uint64_t fp, harness::RunResult &out) const;

    /**
     * Append @p r under @p fp: one atomic O_APPEND write under flock,
     * fdatasync'd before return. Thread-safe.
     */
    void append(uint64_t fp, uint64_t scale,
                const harness::RunResult &r);

    /**
     * Visit every indexed entry in fingerprint order (the corpus a
     * daemon serves to `cwsim-report --connect`). Reflects this
     * process's view: records loaded at open plus its own appends.
     */
    void forEach(const std::function<void(uint64_t fp, uint64_t scale,
                                          const harness::RunResult &)>
                     &fn) const;

    size_t size() const { return entries.size(); }
    const std::string &path() const { return filePath; }

  private:
    struct Entry
    {
        harness::RunResult run;
        uint64_t scale = 0;
    };

    std::string filePath;
    int fd = -1; ///< O_RDWR|O_APPEND|O_CLOEXEC; -1 when unusable.
    std::mutex appendMutex; ///< flock() excludes processes, not threads.
    std::map<uint64_t, Entry> entries;
};

/** What fsckRunCache() found in a cache file. */
struct CacheFsckReport
{
    size_t lines = 0;       ///< Non-blank lines examined.
    size_t valid = 0;       ///< Parseable, current schema.
    size_t unparseable = 0; ///< Garbage / other schema (torn tail excluded).
    size_t duplicates = 0;  ///< Valid records superseded by a later one.
    bool tornTail = false;  ///< Final line truncated (no newline, unparseable).
    bool ioError = false;   ///< The file could not be read.

    size_t distinct() const { return valid - duplicates; }
    /** Nothing but valid records (a torn tail is expected damage). */
    bool clean() const { return unparseable == 0 && !ioError; }
    std::string summary() const;
};

/** Scan <dir>/runs.jsonl without modifying it. */
CacheFsckReport fsckRunCache(const std::string &dir);

/**
 * Rewrite <dir>/runs.jsonl keeping only the newest valid record per
 * fingerprint (first-appearance order). The rewrite happens in place —
 * truncate + rewrite of the SAME inode under the advisory flock every
 * appender takes — so it is safe while a live writer (a daemon, a
 * concurrent bench) holds the cache open: its O_APPEND descriptor
 * keeps landing records in the surviving file instead of a renamed-
 * away orphan. Returns false with @p err set on I/O failure.
 */
bool compactRunCache(const std::string &dir, std::string *err = nullptr,
                     CacheFsckReport *report = nullptr);

} // namespace sweep
} // namespace cwsim

#endif // CWSIM_SWEEP_RUN_CACHE_HH
