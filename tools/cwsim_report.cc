/**
 * @file
 * cwsim-report: render a sweep JSONL file (the run-cache / --json
 * export format) as a markdown or HTML report, or diff two JSONL
 * files field-by-field to flag simulated-stat drift. With --connect
 * the records come from a live cwsimd's shared corpus instead of a
 * file, so a report can be pulled from a running service without
 * touching its cache directory.
 *
 * Exit codes: 0 success (diff clean), 1 drift detected, 2 usage or
 * I/O error, or diff inputs whose runs cannot be told apart. The CI
 * stats-diff job relies on this split to tell "stats changed" apart
 * from "the tool broke".
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "mdp/dep_profile.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"

namespace
{

int
fail(const std::string &msg)
{
    return cwsim::svc::toolError("cwsim-report", msg);
}

/** A stats-event field as a double; NaN-tolerant ("nan" quantiles of
 * an empty histogram come over the wire as quoted strings). */
double
statNum(const std::map<std::string, std::string> &ev, const char *key)
{
    auto it = ev.find(key);
    if (it == ev.end())
        return 0;
    return std::strtod(it->second.c_str(), nullptr);
}

std::string
fmtMs(double ms)
{
    if (ms != ms) // NaN: no samples yet
        return "-";
    if (ms >= 1000)
        return cwsim::strfmt("%.2fs", ms / 1000.0);
    return cwsim::strfmt("%.0fms", ms);
}

/** Write @p text to @p outPath, or stdout when it is empty; exit code. */
int
writeOut(const std::string &text, const std::string &outPath)
{
    if (outPath.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::ofstream out(outPath);
    if (!out)
        return fail("cannot write " + outPath);
    out << text;
    return 0;
}

/**
 * The live dashboard behind --connect --status: one stats round-trip
 * rendered as markdown. Everything shown but the draining flag comes
 * from the daemon's metrics registry, so this doubles as a smoke test
 * that the registry snapshot is coherent.
 */
int
renderStatus(const std::string &socketPath, const std::string &outPath)
{
    cwsim::svc::Client client;
    std::string err;
    if (!client.connectUnix(socketPath, &err))
        return fail(err);
    std::map<std::string, std::string> ev;
    if (!client.sendLine("{\"cmd\":\"stats\"}", &err) ||
        !client.nextEvent(ev, &err))
        return fail(err.empty() ? "server closed" : err);

    double uptimeMs = statNum(ev, "cwsimd_uptime_ms");
    double slots = statNum(ev, "cwsim_pool_slots");
    double busy = statNum(ev, "cwsim_pool_busy");
    double execMs = statNum(ev, "cwsim_pool_exec_ms_total");
    // Slot utilization: occupied slot-time over available slot-time.
    double util = (slots > 0 && uptimeMs > 0)
                      ? 100.0 * execMs / (uptimeMs * slots)
                      : 0;
    double executed = statNum(ev, "cwsimd_runs_executed_total");
    double cacheHits = statNum(ev, "cwsimd_cache_hits_total");
    double served = executed + cacheHits;
    double hitPct = served > 0 ? 100.0 * cacheHits / served : 0;

    std::string md;
    md += cwsim::strfmt("# cwsimd status — %s\n\n",
                        socketPath.c_str());
    md += cwsim::strfmt(
        "- uptime: %.1fs, draining: %s\n", uptimeMs / 1000.0,
        ev.count("draining") ? ev.at("draining").c_str() : "?");
    md += cwsim::strfmt(
        "- clients: %.0f open, %.0f lifetime\n",
        statNum(ev, "cwsimd_sessions_open"),
        statNum(ev, "cwsimd_sessions_total"));
    md += cwsim::strfmt(
        "- queue: %.0f queued, %.0f running; wait p50 %s, p90 %s, "
        "p99 %s\n",
        statNum(ev, "cwsimd_queue_depth"),
        statNum(ev, "cwsimd_runs_running"),
        fmtMs(statNum(ev, "cwsimd_queue_wait_seconds_p50") * 1000)
            .c_str(),
        fmtMs(statNum(ev, "cwsimd_queue_wait_seconds_p90") * 1000)
            .c_str(),
        fmtMs(statNum(ev, "cwsimd_queue_wait_seconds_p99") * 1000)
            .c_str());
    md += cwsim::strfmt(
        "- slots: %.0f busy of %.0f (utilization %.1f%%)\n", busy,
        slots, util);
    md += cwsim::strfmt(
        "- runs: %.0f executed, %.0f cache hits (%.1f%% hit ratio), "
        "%.0f deduped\n",
        executed, cacheHits, hitPct,
        statNum(ev, "cwsimd_dedupe_hits_total"));
    md += cwsim::strfmt(
        "- run latency: p50 %s, p90 %s, p99 %s (n=%.0f)\n",
        fmtMs(statNum(ev, "cwsimd_run_latency_seconds_p50") * 1000)
            .c_str(),
        fmtMs(statNum(ev, "cwsimd_run_latency_seconds_p90") * 1000)
            .c_str(),
        fmtMs(statNum(ev, "cwsimd_run_latency_seconds_p99") * 1000)
            .c_str(),
        statNum(ev, "cwsimd_run_latency_seconds_count"));
    md += cwsim::strfmt("- corpus: %.0f cached record(s)\n",
                        statNum(ev, "cwsimd_cache_size"));
    md += "\n| outcome | count |\n|---|---|\n";
    for (const char *kind :
         {"none", "sim_error", "crash", "timeout", "oom",
          "protocol"}) {
        md += cwsim::strfmt(
            "| %s | %.0f |\n", kind,
            statNum(ev,
                    (std::string("cwsimd_run_results_total_") + kind)
                        .c_str()));
    }

    return writeOut(md, outPath);
}

bool
load(const std::string &path,
     std::vector<cwsim::sweep::ReportRecord> &out)
{
    std::string err;
    size_t rejected = 0;
    if (!cwsim::sweep::loadRunRecords(path, out, &err, &rejected)) {
        std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
        return false;
    }
    if (rejected > 0) {
        std::fprintf(stderr,
                     "cwsim-report: warning: skipped %zu unparseable "
                     "record(s) in %s\n",
                     rejected, path.c_str());
    }
    if (out.empty()) {
        std::fprintf(stderr, "cwsim-report: no parseable records in %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

/**
 * Pull every corpus record from a running cwsimd over its Unix
 * socket. The daemon streams them as corpus_record events — one run
 * record plus an "ev" key, which the record parser ignores —
 * terminated by corpus_done.
 */
bool
fetchCorpus(const std::string &socketPath,
            std::vector<cwsim::sweep::ReportRecord> &out)
{
    cwsim::svc::Client client;
    std::string err;
    if (!client.connectUnix(socketPath, &err)) {
        std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
        return false;
    }
    if (!client.sendLine("{\"cmd\":\"corpus\"}", &err)) {
        std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
        return false;
    }
    size_t rejected = 0;
    std::map<std::string, std::string> ev;
    for (;;) {
        if (!client.nextEvent(ev, &err)) {
            std::fprintf(stderr, "cwsim-report: %s\n",
                         err.empty() ? "server closed mid-corpus"
                                     : err.c_str());
            return false;
        }
        std::string kind = cwsim::field(ev, "ev");
        if (kind == "corpus_done")
            break;
        if (kind == "error") {
            std::fprintf(stderr, "cwsim-report: server error: %s\n",
                         cwsim::field(ev, "reason").c_str());
            return false;
        }
        if (kind != "corpus_record")
            continue;
        cwsim::sweep::ReportRecord rec;
        uint64_t fp = 0;
        if (!cwsim::sweep::runRecordParseWithEnvelope(ev, rec.run, fp,
                                                      rec.scale)) {
            ++rejected;
            continue;
        }
        rec.fp = cwsim::strfmt("%016llx",
                               static_cast<unsigned long long>(fp));
        out.push_back(std::move(rec));
    }
    if (rejected > 0) {
        std::fprintf(stderr,
                     "cwsim-report: warning: skipped %zu unparseable "
                     "record(s) from %s\n",
                     rejected, socketPath.c_str());
    }
    if (out.empty()) {
        std::fprintf(stderr, "cwsim-report: empty corpus at %s\n",
                     socketPath.c_str());
        return false;
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cwsim::sweep::ReportArgs args;
    cwsim::svc::parseToolArgs(cwsim::sweep::reportCli(args), argc, argv,
                              "cwsim-report");
    cwsim::sweep::ReportFormat format =
        cwsim::sweep::ReportFormat::Markdown;
    if (args.format == "html")
        format = cwsim::sweep::ReportFormat::Html;
    else if (args.format != "md")
        return fail("unknown format '" + args.format + "'");
    size_t top = static_cast<size_t>(args.top);
    bool connect = !args.connectPath.empty();

    if (!args.depprofPath.empty()) {
        if (args.diff || args.status || connect || !args.inputs.empty()) {
            return fail("--depprof wants a profile file and "
                              "nothing else");
        }
        cwsim::mdp::DepProfileFile profile;
        std::string err;
        if (!profile.load(args.depprofPath, &err) &&
            profile.errors().empty()) {
            return fail(err); // the file itself could not be read
        }
        if (!profile.valid()) {
            for (const std::string &e : profile.errors())
                std::fprintf(stderr, "cwsim-report: %s: %s\n",
                             args.depprofPath.c_str(), e.c_str());
            std::fprintf(stderr,
                         "cwsim-report: %s failed validation (%zu "
                         "error(s); %zu run block(s) salvaged)\n",
                         args.depprofPath.c_str(),
                         profile.errors().size(), profile.runs().size());
            return 2;
        }
        return writeOut(
            cwsim::sweep::renderDepProfile(profile, format, top),
            args.outPath);
    }

    if (args.status) {
        if (!connect || args.diff || !args.inputs.empty()) {
            return fail("--status wants --connect SOCKET and "
                              "nothing else");
        }
        return renderStatus(args.connectPath, args.outPath);
    }

    if (args.diff) {
        // With --connect the daemon's corpus is the CURRENT side and
        // the single positional file is the baseline.
        if (args.inputs.size() != (connect ? 1u : 2u)) {
            return fail("--diff wants BASELINE.jsonl and "
                              "CURRENT.jsonl (only BASELINE with "
                              "--connect)");
        }
        std::vector<cwsim::sweep::ReportRecord> baseline, current;
        if (!load(args.inputs[0], baseline))
            return 2;
        if (connect ? !fetchCorpus(args.connectPath, current)
                    : !load(args.inputs[1], current))
            return 2;
        cwsim::sweep::DiffResult result =
            cwsim::sweep::diffRunRecords(baseline, current);
        if (!result.error.empty())
            return fail(result.error);
        std::fputs(cwsim::sweep::formatDiff(result).c_str(), stdout);
        return result.clean() ? 0 : 1;
    }

    if (args.inputs.size() != (connect ? 0u : 1u)) {
        return fail("a report wants one SWEEP.jsonl file (none "
                          "with --connect)");
    }
    std::vector<cwsim::sweep::ReportRecord> records;
    if (connect ? !fetchCorpus(args.connectPath, records)
                : !load(args.inputs[0], records))
        return 2;
    return writeOut(cwsim::sweep::renderReport(records, format, top),
                    args.outPath);
}
