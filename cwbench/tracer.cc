#include "tracer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace cwbench
{

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::ThreadBuf &
Tracer::local()
{
    thread_local ThreadBuf *mine = nullptr;
    if (!mine) {
        std::lock_guard<std::mutex> lock(mutex);
        bufs.push_back(std::make_unique<ThreadBuf>());
        mine = bufs.back().get();
        mine->tid = static_cast<uint32_t>(bufs.size());
        mine->spans.reserve(1 << 14);
    }
    return *mine;
}

namespace
{

/** Per span, the nanoseconds its direct children cover. */
std::vector<int64_t>
childNs(const std::vector<SpanRecord> &spans)
{
    std::vector<int64_t> out(spans.size(), 0);
    for (const SpanRecord &r : spans) {
        if (r.parent >= 0)
            out[r.parent] += r.endNs - r.startNs;
    }
    return out;
}

} // anonymous namespace

Span::Span(const char *name, int64_t runId)
{
    Tracer &t = Tracer::get();
    if (!t.on())
        return;
    buf = &t.local();
    SpanRecord rec;
    rec.name = name;
    rec.parent = buf->open.empty() ? -1 : buf->open.back();
    rec.runId = runId >= 0 || rec.parent < 0
                    ? runId
                    : buf->spans[rec.parent].runId;
    index = static_cast<int32_t>(buf->spans.size());
    buf->spans.push_back(rec);
    buf->open.push_back(index);
    // Stamp last so the bookkeeping above is outside the span.
    buf->spans[index].startNs = Tracer::nowNs();
}

Span::~Span()
{
    if (!buf)
        return;
    buf->spans[index].endNs = Tracer::nowNs();
    buf->open.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::totals(int64_t t0, int64_t t1)
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<std::string, SpanTotals> out;
    for (const auto &b : bufs) {
        const std::vector<SpanRecord> &s = b->spans;
        std::vector<int64_t> children = childNs(s);
        for (size_t i = 0; i < s.size(); ++i) {
            const SpanRecord &r = s[i];
            if (r.startNs < t0 || r.startNs >= t1)
                continue;
            double dur = static_cast<double>(r.endNs - r.startNs) / 1e9;
            SpanTotals &t = out[r.name];
            ++t.count;
            t.totalS += dur;
            t.selfS += dur - static_cast<double>(children[i]) / 1e9;
            t.durS.push_back(dur);
        }
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &metadataJson)
{
    std::lock_guard<std::mutex> lock(mutex);
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t epoch = std::numeric_limits<int64_t>::max();
    for (const auto &b : bufs) {
        for (const SpanRecord &r : b->spans)
            epoch = std::min(epoch, r.startNs);
    }
    std::fprintf(f, "{\"otherData\":%s,\n\"traceEvents\":[\n",
                 metadataJson.c_str());
    bool first = true;
    for (const auto &b : bufs) {
        const std::vector<SpanRecord> &s = b->spans;
        std::vector<int64_t> children = childNs(s);
        for (size_t i = 0; i < s.size(); ++i) {
            const SpanRecord &r = s[i];
            std::string cat(r.name);
            cat = cat.substr(0, cat.find('.'));
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                "\"args\":{\"run\":%lld,\"parent\":\"%s\","
                "\"self_us\":%.3f}}",
                first ? "" : ",\n", r.name, cat.c_str(),
                static_cast<double>(r.startNs - epoch) / 1e3,
                static_cast<double>(r.endNs - r.startNs) / 1e3, b->tid,
                static_cast<long long>(r.runId),
                r.parent >= 0 ? s[r.parent].name : "",
                static_cast<double>(r.endNs - r.startNs - children[i]) /
                    1e3);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace cwbench
