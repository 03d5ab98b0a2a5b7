#include "sweep/run_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <variant>

#include "base/jsonl.hh"
#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{
namespace sweep
{

namespace
{

constexpr uint64_t fnv_offset = 0xcbf29ce484222325ull;
constexpr uint64_t fnv_prime = 0x100000001b3ull;

uint64_t
fnv1a(uint64_t hash, const std::string &data)
{
    for (unsigned char c : data) {
        hash ^= c;
        hash *= fnv_prime;
    }
    return hash;
}

} // anonymous namespace

uint64_t
fingerprintRun(const std::string &workload, uint64_t scale,
               const SimConfig &cfg)
{
    uint64_t hash = fnv_offset;
    hash = fnv1a(hash, workload);
    hash = fnv1a(hash, strfmt("\nscale=%llu\n",
                              static_cast<unsigned long long>(scale)));
    hash = fnv1a(hash, serializeConfig(cfg));
    return hash;
}

namespace
{

using harness::RunResult;

/** The record's envelope: the fields around a RunResult. */
enum class Envelope
{
    Version,     ///< run_record_version; no other is read.
    Fingerprint, ///< fingerprintRun(), exactly 16 hex digits.
    Scale,       ///< The run's dynamic-instruction scale.
};

/** A rate computed from the result: written, never read back. */
using Derived = double (RunResult::*)() const;

/** cpi_<statKey> for each obs::CpiCause, in cause order. */
struct CpiSlots
{
};

/** Where a field's value comes from. */
using Source = std::variant<Envelope, Derived, CpiSlots,
                            std::string RunResult::*, bool RunResult::*,
                            uint64_t RunResult::*, double RunResult::*,
                            unsigned RunResult::*,
                            harness::FailKind RunResult::*>;

/**
 * Whether diffRunRecords compares a field. A simulated result must
 * not drift. Host fields (timings, cache hits, diagnostics, the
 * dependence-profile summary that only a profiling host fills) may
 * differ between two runs of one config, and the run key (workload,
 * config, scale) is what pairs the runs up.
 */
enum class Diff
{
    Compared,
    Ignored,
};

struct RecordField
{
    const char *name;
    Source source;
    Diff diff;
};

/**
 * The run record's one field table, in wire order. runRecordLine()
 * writes every row, the parsers read every row but the derived rates,
 * and simulatedFields() takes the compared rows.
 */
const RecordField record_fields[] = {
    {"v", Envelope::Version, Diff::Ignored},
    {"fp", Envelope::Fingerprint, Diff::Ignored},
    // workload, config and scale key the run in the diff.
    {"workload", &RunResult::workload, Diff::Ignored},
    {"config", &RunResult::config, Diff::Ignored},
    {"scale", Envelope::Scale, Diff::Ignored},
    {"ok", &RunResult::ok, Diff::Compared},
    {"error", &RunResult::error, Diff::Compared},
    {"cycles", &RunResult::cycles, Diff::Compared},
    {"commits", &RunResult::commits, Diff::Compared},
    {"committedLoads", &RunResult::committedLoads, Diff::Compared},
    {"committedStores", &RunResult::committedStores, Diff::Compared},
    {"violations", &RunResult::violations, Diff::Compared},
    {"replays", &RunResult::replays, Diff::Compared},
    {"selectiveRecoveries", &RunResult::selectiveRecoveries,
     Diff::Compared},
    {"selectiveFallbacks", &RunResult::selectiveFallbacks,
     Diff::Compared},
    {"branchMispredicts", &RunResult::branchMispredicts,
     Diff::Compared},
    {"squashedInsts", &RunResult::squashedInsts, Diff::Compared},
    {"falseDepLoads", &RunResult::falseDepLoads, Diff::Compared},
    // Compared as %.17g text: exact, and NaN equals NaN.
    {"falseDepLatency", &RunResult::falseDepLatency, Diff::Compared},
    {"injectedViolations", &RunResult::injectedViolations,
     Diff::Compared},
    {"ipc", &RunResult::ipc, Diff::Ignored},
    {"wall_ms", &RunResult::wallMs, Diff::Ignored},
    {"queue_ms", &RunResult::queueMs, Diff::Ignored},
    {"sim_cycles_per_sec", &RunResult::simCyclesPerSec, Diff::Ignored},
    {"cache_hit", &RunResult::cacheHit, Diff::Ignored},
    {"diagnostic", &RunResult::diagnostic, Diff::Ignored},
    // The failure class must not drift; its detail (signal spelling,
    // limits) can depend on the host.
    {"fail_kind", &RunResult::failKind, Diff::Compared},
    {"fail_detail", &RunResult::failDetail, Diff::Ignored},
    {"fail_injected", &RunResult::injectedHostFault, Diff::Ignored},
    {"commit_width", &RunResult::commitWidth, Diff::Compared},
    {"cpi_", CpiSlots{}, Diff::Compared},
    {"dep_profiled", &RunResult::depProfiled, Diff::Ignored},
    {"dep_loads", &RunResult::depLoads, Diff::Ignored},
    {"dep_stores", &RunResult::depStores, Diff::Ignored},
    {"dep_edges", &RunResult::depEdges, Diff::Ignored},
    {"dep_hot_edges", &RunResult::depHotEdges, Diff::Ignored},
};

template <class... Fns>
struct Overloaded : Fns...
{
    using Fns::operator()...;
};

std::string
cpiField(const RecordField &f, size_t cause)
{
    return f.name + std::string(obs::statKey(obs::CpiCause(cause)));
}

std::string
u64Text(uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

/**
 * Read every row of @p fields into @p out. The envelope's fingerprint
 * and scale are read only when @p fp and @p scale are given. False,
 * with @p out untouched, when any read field is missing or malformed.
 */
bool
readRecord(const std::map<std::string, std::string> &fields,
           RunResult &out, uint64_t *fp, uint64_t *scale)
{
    RunResult r;
    for (const RecordField &f : record_fields) {
        bool ok = std::visit(
            Overloaded{
                [&](Envelope e) {
                    uint64_t version = 0;
                    std::string text;
                    switch (e) {
                      case Envelope::Version:
                        return getU64(fields, f.name, version) &&
                               version == run_record_version;
                      case Envelope::Fingerprint:
                        return !fp ||
                               (getStr(fields, f.name, text) &&
                                text.size() == 16 &&
                                parseUnsigned(text, *fp, 16));
                      case Envelope::Scale:
                        return !scale || getU64(fields, f.name, *scale);
                    }
                    return false;
                },
                [](Derived) { return true; },
                [&](CpiSlots) {
                    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
                        if (!getU64(fields, cpiField(f, i),
                                    r.cpiSlots[i])) {
                            return false;
                        }
                    }
                    return true;
                },
                [&](std::string RunResult::*m) {
                    return getStr(fields, f.name, r.*m);
                },
                [&](bool RunResult::*m) {
                    return getBool(fields, f.name, r.*m);
                },
                [&](uint64_t RunResult::*m) {
                    return getU64(fields, f.name, r.*m);
                },
                [&](double RunResult::*m) {
                    return getF64(fields, f.name, r.*m);
                },
                [&](unsigned RunResult::*m) {
                    uint64_t v = 0;
                    if (!getU64(fields, f.name, v) ||
                        v > std::numeric_limits<unsigned>::max()) {
                        return false;
                    }
                    r.*m = static_cast<unsigned>(v);
                    return true;
                },
                [&](harness::FailKind RunResult::*m) {
                    std::string text;
                    return getStr(fields, f.name, text) &&
                           harness::failKindFromString(text, r.*m);
                },
            },
            f.source);
        if (!ok)
            return false;
    }
    out = r;
    return true;
}

} // anonymous namespace

std::string
runRecordLine(const RunResult &r, uint64_t fp, uint64_t scale)
{
    JsonObject obj;
    for (const RecordField &f : record_fields) {
        std::visit(
            Overloaded{
                [&](Envelope e) {
                    if (e == Envelope::Version) {
                        obj.add(f.name,
                                uint64_t{run_record_version});
                    } else if (e == Envelope::Fingerprint) {
                        obj.add(f.name,
                                strfmt("%016llx",
                                       static_cast<unsigned long long>(
                                           fp)));
                    } else {
                        obj.add(f.name, scale);
                    }
                },
                [&](Derived m) { obj.add(f.name, (r.*m)()); },
                [&](CpiSlots) {
                    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
                        obj.add(cpiField(f, i), r.cpiSlots[i]);
                },
                [&](unsigned RunResult::*m) {
                    obj.add(f.name, uint64_t{r.*m});
                },
                [&](harness::FailKind RunResult::*m) {
                    obj.add(f.name, harness::toString(r.*m));
                },
                [&](auto m) { obj.add(f.name, r.*m); },
            },
            f.source);
    }
    return obj.str();
}

bool
runRecordParse(const std::map<std::string, std::string> &fields,
               RunResult &out)
{
    return readRecord(fields, out, nullptr, nullptr);
}

bool
runRecordParseWithEnvelope(
    const std::map<std::string, std::string> &fields, RunResult &run,
    uint64_t &fp, uint64_t &scale)
{
    return readRecord(fields, run, &fp, &scale);
}

std::vector<std::pair<std::string, std::string>>
simulatedFields(const RunResult &r)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const RecordField &f : record_fields) {
        if (f.diff != Diff::Compared)
            continue;
        auto add = [&](std::string text) {
            out.emplace_back(f.name, std::move(text));
        };
        std::visit(
            Overloaded{
                [](Envelope) {},
                [](Derived) {},
                [&](CpiSlots) {
                    for (size_t i = 0; i < obs::num_cpi_causes; ++i)
                        out.emplace_back(cpiField(f, i),
                                         u64Text(r.cpiSlots[i]));
                },
                [&](std::string RunResult::*m) { add(r.*m); },
                [&](bool RunResult::*m) {
                    add(r.*m ? "true" : "false");
                },
                [&](uint64_t RunResult::*m) { add(u64Text(r.*m)); },
                [&](double RunResult::*m) {
                    add(strfmt("%.17g", r.*m));
                },
                [&](unsigned RunResult::*m) { add(u64Text(r.*m)); },
                [&](harness::FailKind RunResult::*m) {
                    add(harness::toString(r.*m));
                },
            },
            f.source);
    }
    return out;
}

namespace
{

/**
 * One scanned line of a cache file. Torn tails (an unterminated,
 * unparseable final line — the signature of a writer killed
 * mid-append) are reported separately from corruption because they are
 * expected after a dirty shutdown and must not alarm anyone.
 */
struct ScanVisitor
{
    /** Called per parsed record, raw line included (for compaction). */
    std::function<void(uint64_t fp, uint64_t scale,
                       const harness::RunResult &,
                       const std::string &line)> onRecord;
    size_t lines = 0;
    size_t rejected = 0;
    bool tornTail = false;
    bool ioError = false;
};

void
scanCacheFile(const std::string &path, ScanVisitor &v)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        v.ioError = true;
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    if (in.bad()) {
        v.ioError = true;
        return;
    }

    size_t pos = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        bool terminated = nl != std::string::npos;
        std::string line = text.substr(
            pos, terminated ? nl - pos : std::string::npos);
        pos = terminated ? nl + 1 : text.size();
        if (trim(line).empty())
            continue;
        ++v.lines;

        std::map<std::string, std::string> fields;
        harness::RunResult r;
        uint64_t fp = 0, scale = 0;
        if (!parseFlatJson(line, fields) ||
            !runRecordParseWithEnvelope(fields, r, fp, scale)) {
            if (!terminated) {
                // Torn trailing line: skip silently, the next append
                // repairs the file.
                v.tornTail = true;
                --v.lines;
            } else {
                ++v.rejected;
            }
            continue;
        }
        if (v.onRecord)
            v.onRecord(fp, scale, r, line);
    }
}

/** write(2) all of @p data to @p fd, retrying partial writes/EINTR. */
bool
writeFully(int fd, const char *data, size_t len)
{
    while (len > 0) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

} // anonymous namespace

RunCache::RunCache(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("run cache: cannot create %s (%s); caching disabled "
             "for this process", dir.c_str(), ec.message().c_str());
        return;
    }
    filePath = dir + "/runs.jsonl";

    ScanVisitor v;
    v.onRecord = [&](uint64_t fp, uint64_t scale,
                     const harness::RunResult &r,
                     const std::string &) { entries[fp] = {r, scale}; };
    scanCacheFile(filePath, v);
    if (v.rejected > 0) {
        warn("run cache: ignored %zu unparseable record(s) in %s "
             "(stale schema or corruption); they will be recomputed",
             v.rejected, filePath.c_str());
    }

    // O_RDWR, not O_WRONLY: append() pread()s the last byte to detect
    // (and repair) a torn tail, which a write-only descriptor forbids.
    fd = ::open(filePath.c_str(),
                O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("run cache: cannot open %s for append (%s); new results "
             "will not persist", filePath.c_str(),
             std::strerror(errno));
    }
}

RunCache::~RunCache()
{
    if (fd >= 0)
        ::close(fd);
}

bool
RunCache::lookup(uint64_t fp, harness::RunResult &out) const
{
    auto it = entries.find(fp);
    if (it == entries.end())
        return false;
    out = it->second.run;
    return true;
}

void
RunCache::forEach(
    const std::function<void(uint64_t, uint64_t,
                             const harness::RunResult &)> &fn) const
{
    for (const auto &[fp, entry] : entries)
        fn(fp, entry.scale, entry.run);
}

void
RunCache::append(uint64_t fp, uint64_t scale,
                 const harness::RunResult &r)
{
    {
        std::lock_guard<std::mutex> lock(appendMutex);
        entries[fp] = {r, scale};
    }
    if (fd < 0)
        return; // cache directory was unusable

    std::string line = runRecordLine(r, fp, scale);
    line += '\n';

    std::lock_guard<std::mutex> lock(appendMutex);
    // flock() excludes other processes; the mutex above excludes other
    // threads of this one (they share this fd, so flock alone is a
    // no-op between them).
    while (::flock(fd, LOCK_EX) < 0 && errno == EINTR) {
    }
    // Repair a torn tail left by a writer that died mid-append: if the
    // file does not end in a newline, lead with one so this record
    // cannot be glued onto the truncated line. The newline travels in
    // the same single write so the repair is as atomic as the append.
    struct stat st;
    char last = '\n';
    if (::fstat(fd, &st) == 0 && st.st_size > 0 &&
        ::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
        line.insert(line.begin(), '\n');
    }
    // One write(2): O_APPEND makes the offset update atomic, so
    // concurrent appenders cannot interleave bytes within a record.
    if (!writeFully(fd, line.data(), line.size())) {
        warn("run cache: append to %s failed (%s)", filePath.c_str(),
             std::strerror(errno));
    } else if (::fdatasync(fd) < 0 && errno != EINVAL &&
               errno != ENOSYS) {
        warn("run cache: fdatasync of %s failed (%s)",
             filePath.c_str(), std::strerror(errno));
    }
    while (::flock(fd, LOCK_UN) < 0 && errno == EINTR) {
    }
}

std::string
CacheFsckReport::summary() const
{
    if (ioError)
        return "cache-fsck: cannot read cache file";
    std::string s = strfmt(
        "cache-fsck: %zu record line(s): %zu valid (%zu distinct, "
        "%zu superseded), %zu unparseable", lines, valid, distinct(),
        duplicates, unparseable);
    if (tornTail)
        s += ", torn trailing line (will be repaired on next append)";
    return s;
}

CacheFsckReport
fsckRunCache(const std::string &dir)
{
    CacheFsckReport rep;
    std::string path = dir + "/runs.jsonl";
    if (!std::filesystem::exists(path))
        return rep; // a cold cache is trivially clean

    std::map<uint64_t, size_t> seen;
    ScanVisitor v;
    v.onRecord = [&](uint64_t fp, uint64_t, const harness::RunResult &,
                     const std::string &) {
        ++rep.valid;
        if (++seen[fp] > 1)
            ++rep.duplicates;
    };
    scanCacheFile(path, v);
    rep.lines = v.lines;
    rep.unparseable = v.rejected;
    rep.tornTail = v.tornTail;
    rep.ioError = v.ioError;
    return rep;
}

bool
compactRunCache(const std::string &dir, std::string *err,
                CacheFsckReport *report)
{
    std::string path = dir + "/runs.jsonl";
    if (!std::filesystem::exists(path)) {
        if (report)
            *report = CacheFsckReport{};
        return true; // nothing to compact
    }

    // Hold the same advisory lock appenders take, so the snapshot we
    // rewrite cannot have a record added mid-copy — and rewrite the
    // SAME inode (truncate + rewrite) rather than renaming a temp file
    // over it: a live writer's O_APPEND descriptor then keeps landing
    // records in the surviving file. The flock is held across the
    // whole truncate-to-fdatasync window, so no appender can observe
    // (or write into) a half-rewritten file.
    int rw_fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
    if (rw_fd < 0) {
        if (err)
            *err = strfmt("cannot open %s: %s", path.c_str(),
                          std::strerror(errno));
        return false;
    }
    while (::flock(rw_fd, LOCK_EX) < 0 && errno == EINTR) {
    }

    // Newest record per fingerprint, kept in first-appearance order so
    // compaction is deterministic.
    std::vector<uint64_t> order;
    std::map<uint64_t, std::string> newest;
    ScanVisitor v;
    v.onRecord = [&](uint64_t fp, uint64_t, const harness::RunResult &,
                     const std::string &line) {
        if (!newest.count(fp))
            order.push_back(fp);
        newest[fp] = line;
    };
    scanCacheFile(path, v);
    if (report) {
        *report = fsckRunCache(dir);
    }
    if (v.ioError) {
        ::close(rw_fd);
        if (err)
            *err = strfmt("cannot read %s", path.c_str());
        return false;
    }

    // Keep a sidecar backup of the compacted bytes before truncating,
    // so a crash mid-rewrite cannot lose the corpus: the backup is
    // complete (and fsync'd) before the original shrinks.
    std::string compacted;
    for (uint64_t fp : order) {
        compacted += newest[fp];
        compacted += '\n';
    }
    std::string bak = path + ".compact.bak";
    {
        std::ofstream out(bak, std::ios::trunc | std::ios::binary);
        if (!out ||
            !out.write(compacted.data(),
                       static_cast<std::streamsize>(compacted.size()))
                 .flush()) {
            ::close(rw_fd);
            if (err)
                *err = strfmt("cannot write %s", bak.c_str());
            return false;
        }
    }

    bool okWrite = ::ftruncate(rw_fd, 0) == 0;
    size_t off = 0;
    while (okWrite && off < compacted.size()) {
        ssize_t n = ::pwrite(rw_fd, compacted.data() + off,
                             compacted.size() - off,
                             static_cast<off_t>(off));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            okWrite = false;
            break;
        }
        off += static_cast<size_t>(n);
    }
    if (okWrite && ::fdatasync(rw_fd) < 0 && errno != EINVAL &&
        errno != ENOSYS) {
        okWrite = false;
    }
    while (::flock(rw_fd, LOCK_UN) < 0 && errno == EINTR) {
    }
    ::close(rw_fd);
    if (!okWrite) {
        if (err) {
            *err = strfmt("in-place rewrite of %s failed (%s); "
                          "compacted copy preserved at %s",
                          path.c_str(), std::strerror(errno),
                          bak.c_str());
        }
        return false;
    }
    std::error_code ec;
    std::filesystem::remove(bak, ec);
    return true;
}

} // namespace sweep
} // namespace cwsim
