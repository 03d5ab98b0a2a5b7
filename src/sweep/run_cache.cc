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

bool
getU64(const std::map<std::string, std::string> &fields,
       const char *key, uint64_t &out)
{
    auto it = fields.find(key);
    return it != fields.end() && parseUnsigned(it->second, out);
}

bool
getF64(const std::map<std::string, std::string> &fields,
       const char *key, double &out)
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

bool
getStr(const std::map<std::string, std::string> &fields,
       const char *key, std::string &out)
{
    auto it = fields.find(key);
    if (it == fields.end())
        return false;
    out = it->second;
    return true;
}

bool
getBool(const std::map<std::string, std::string> &fields,
        const char *key, bool &out)
{
    auto it = fields.find(key);
    if (it == fields.end() ||
        (it->second != "true" && it->second != "false")) {
        return false;
    }
    out = it->second == "true";
    return true;
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

std::string
runRecordLine(const harness::RunResult &r, uint64_t fp, uint64_t scale)
{
    JsonObject obj;
    obj.add("v", static_cast<uint64_t>(run_record_version))
        .add("fp", strfmt("%016llx",
                          static_cast<unsigned long long>(fp)))
        .add("workload", r.workload)
        .add("config", r.config)
        .add("scale", scale)
        .add("ok", r.ok)
        .add("error", r.error)
        .add("cycles", r.cycles)
        .add("commits", r.commits)
        .add("committedLoads", r.committedLoads)
        .add("committedStores", r.committedStores)
        .add("violations", r.violations)
        .add("replays", r.replays)
        .add("selectiveRecoveries", r.selectiveRecoveries)
        .add("selectiveFallbacks", r.selectiveFallbacks)
        .add("branchMispredicts", r.branchMispredicts)
        .add("squashedInsts", r.squashedInsts)
        .add("falseDepLoads", r.falseDepLoads)
        .add("falseDepLatency", r.falseDepLatency)
        .add("injectedViolations", r.injectedViolations)
        .add("ipc", r.ipc())
        // Host-profiling and diagnostic fields. wall_ms, queue_ms and
        // sim_cycles_per_sec vary run to run; determinism comparisons
        // must ignore them.
        .add("wall_ms", r.wallMs)
        .add("queue_ms", r.queueMs)
        .add("sim_cycles_per_sec", r.simCyclesPerSec())
        .add("cache_hit", r.cacheHit)
        .add("diagnostic", r.diagnostic);
    // Failure taxonomy (--isolate classification).
    obj.add("fail_kind", harness::toString(r.failKind))
        .add("fail_detail", r.failDetail)
        .add("fail_injected", r.injectedHostFault);
    // Commit-slot accounting.
    obj.add("commit_width", static_cast<uint64_t>(r.commitWidth));
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        obj.add(std::string("cpi_") + obs::statKey(obs::CpiCause(i)),
                r.cpiSlots[i]);
    }
    // Dependence-profile summary. Host-adjacent (only filled when
    // profiling was enabled for the run), so diffRunRecords leaves
    // these out of the simulated-field comparison.
    obj.add("dep_profiled", r.depProfiled)
        .add("dep_loads", r.depLoads)
        .add("dep_stores", r.depStores)
        .add("dep_edges", r.depEdges)
        .add("dep_hot_edges", r.depHotEdges);
    return obj.str();
}

bool
runRecordParse(const std::map<std::string, std::string> &fields,
               harness::RunResult &out)
{
    uint64_t version = 0;
    if (!getU64(fields, "v", version) || version != run_record_version)
        return false;

    harness::RunResult r;
    std::string kind;
    uint64_t width = 0;
    bool valid = getBool(fields, "ok", r.ok) &&
                 getStr(fields, "workload", r.workload) &&
                 getStr(fields, "config", r.config) &&
                 getStr(fields, "error", r.error) &&
                 getU64(fields, "cycles", r.cycles) &&
                 getU64(fields, "commits", r.commits) &&
                 getU64(fields, "committedLoads", r.committedLoads) &&
                 getU64(fields, "committedStores",
                        r.committedStores) &&
                 getU64(fields, "violations", r.violations) &&
                 getU64(fields, "replays", r.replays) &&
                 getU64(fields, "selectiveRecoveries",
                        r.selectiveRecoveries) &&
                 getU64(fields, "selectiveFallbacks",
                        r.selectiveFallbacks) &&
                 getU64(fields, "branchMispredicts",
                        r.branchMispredicts) &&
                 getU64(fields, "squashedInsts", r.squashedInsts) &&
                 getU64(fields, "falseDepLoads", r.falseDepLoads) &&
                 getF64(fields, "falseDepLatency",
                        r.falseDepLatency) &&
                 getU64(fields, "injectedViolations",
                        r.injectedViolations) &&
                 getF64(fields, "wall_ms", r.wallMs) &&
                 getF64(fields, "queue_ms", r.queueMs) &&
                 getBool(fields, "cache_hit", r.cacheHit) &&
                 getStr(fields, "diagnostic", r.diagnostic) &&
                 getStr(fields, "fail_kind", kind) &&
                 harness::failKindFromString(kind, r.failKind) &&
                 getStr(fields, "fail_detail", r.failDetail) &&
                 getBool(fields, "fail_injected", r.injectedHostFault) &&
                 getU64(fields, "commit_width", width) &&
                 width <= std::numeric_limits<unsigned>::max() &&
                 getBool(fields, "dep_profiled", r.depProfiled) &&
                 getU64(fields, "dep_loads", r.depLoads) &&
                 getU64(fields, "dep_stores", r.depStores) &&
                 getU64(fields, "dep_edges", r.depEdges) &&
                 getStr(fields, "dep_hot_edges", r.depHotEdges);
    if (!valid)
        return false;
    r.commitWidth = static_cast<unsigned>(width);
    for (size_t i = 0; i < obs::num_cpi_causes; ++i) {
        std::string key =
            std::string("cpi_") + obs::statKey(obs::CpiCause(i));
        if (!getU64(fields, key.c_str(), r.cpiSlots[i]))
            return false;
    }

    out = r;
    return true;
}

bool
runRecordParseWithEnvelope(
    const std::map<std::string, std::string> &fields,
    harness::RunResult &run, uint64_t &fp, uint64_t &scale)
{
    auto fpText = fields.find("fp");
    return fpText != fields.end() && fpText->second.size() == 16 &&
           parseUnsigned(fpText->second, fp, 16) &&
           getU64(fields, "scale", scale) && runRecordParse(fields, run);
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
