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
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/str.hh"
#include "mdp/dep_profile.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "sweep/report.hh"
#include "sweep/run_cache.hh"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--format md|html] [--out PATH] [--top N] "
        "SWEEP.jsonl\n"
        "       %s --diff BASELINE.jsonl CURRENT.jsonl\n"
        "       %s --connect SOCKET [--format md|html] [--out PATH]\n"
        "       %s --connect SOCKET --status\n"
        "       %s --depprof PROFILE.depprof.jsonl [--format md|html]\n"
        "\n"
        "Render a cwsim sweep JSONL file as a report, or compare two\n"
        "sweep files and flag any drift in simulated stats\n"
        "(host-profiling fields are ignored; failed runs compare by\n"
        "fail-kind class, not the host-dependent detail text).\n"
        "\n"
        "  --format md|html  report output format (default: md)\n"
        "  --out PATH        write the report to PATH (default: stdout)\n"
        "  --top N           cap the open-ended tables (hot edges,\n"
        "                    per-PC detail) at N rows, 0 = unlimited\n"
        "                    (default: 20)\n"
        "  --diff            compare two files instead of rendering\n"
        "  --depprof FILE    render a .depprof.jsonl dependence\n"
        "                    profile (validates it first; exit 2 on\n"
        "                    validation errors)\n"
        "  --connect SOCKET  pull the corpus from a running cwsimd\n"
        "                    (Unix socket) instead of a file; may also\n"
        "                    be the CURRENT side of a --diff\n"
        "  --status          with --connect: render a live daemon\n"
        "                    dashboard (uptime, queue, slots, latency\n"
        "                    quantiles, failure counts) and exit\n"
        "  --version         print schema/protocol/build identity\n"
        "  --help            show this message\n",
        argv0, argv0, argv0, argv0, argv0);
    return 2;
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
    if (!client.connectUnix(socketPath, &err)) {
        std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
        return 2;
    }
    std::map<std::string, std::string> ev;
    if (!client.sendLine("{\"cmd\":\"stats\"}", &err) ||
        !client.nextEvent(ev, &err)) {
        std::fprintf(stderr, "cwsim-report: %s\n",
                     err.empty() ? "server closed" : err.c_str());
        return 2;
    }

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

    if (outPath.empty()) {
        std::fputs(md.c_str(), stdout);
    } else {
        std::ofstream out(outPath);
        if (!out) {
            std::fprintf(stderr, "cwsim-report: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        out << md;
    }
    return 0;
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
        auto kind = ev.find("ev");
        if (kind == ev.end())
            continue;
        if (kind->second == "corpus_done")
            break;
        if (kind->second == "error") {
            auto reason = ev.find("reason");
            std::fprintf(stderr, "cwsim-report: server error: %s\n",
                         reason == ev.end() ? "?"
                                            : reason->second.c_str());
            return false;
        }
        if (kind->second != "corpus_record")
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
    bool diff = false, status = false;
    cwsim::sweep::ReportFormat format =
        cwsim::sweep::ReportFormat::Markdown;
    std::string out_path, connect_path, depprof_path;
    size_t top = 20;
    std::vector<std::string> inputs;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 ||
            std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (std::strcmp(arg, "--version") == 0) {
            std::printf(
                "%s\n",
                cwsim::svc::versionLine("cwsim-report").c_str());
            return 0;
        } else if (std::strcmp(arg, "--diff") == 0) {
            diff = true;
        } else if (std::strcmp(arg, "--status") == 0) {
            status = true;
        } else if (std::strcmp(arg, "--format") == 0 && i + 1 < argc) {
            std::string value = argv[++i];
            if (value == "md") {
                format = cwsim::sweep::ReportFormat::Markdown;
            } else if (value == "html") {
                format = cwsim::sweep::ReportFormat::Html;
            } else {
                std::fprintf(stderr,
                             "cwsim-report: unknown format '%s'\n",
                             value.c_str());
                return usage(argv[0]);
            }
        } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(arg, "--top") == 0 && i + 1 < argc) {
            const char *value = argv[++i];
            uint64_t parsed = 0;
            if (!cwsim::parseUnsigned(value, parsed, 10, SIZE_MAX)) {
                std::fprintf(stderr,
                             "cwsim-report: --top wants a number, "
                             "got '%s'\n", value);
                return usage(argv[0]);
            }
            top = static_cast<size_t>(parsed);
        } else if (std::strcmp(arg, "--depprof") == 0 &&
                   i + 1 < argc) {
            depprof_path = argv[++i];
        } else if (std::strcmp(arg, "--connect") == 0 &&
                   i + 1 < argc) {
            connect_path = argv[++i];
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "cwsim-report: unknown flag '%s'\n",
                         arg);
            return usage(argv[0]);
        } else {
            inputs.push_back(arg);
        }
    }

    if (!depprof_path.empty()) {
        if (diff || status || !connect_path.empty() ||
            !inputs.empty()) {
            std::fprintf(stderr,
                         "cwsim-report: --depprof wants a profile "
                         "file and nothing else\n");
            return usage(argv[0]);
        }
        cwsim::mdp::DepProfileFile profile;
        std::string err;
        if (!profile.load(depprof_path, &err) &&
            profile.errors().empty()) {
            // The file itself could not be read.
            std::fprintf(stderr, "cwsim-report: %s\n", err.c_str());
            return 2;
        }
        if (!profile.valid()) {
            for (const std::string &e : profile.errors())
                std::fprintf(stderr, "cwsim-report: %s: %s\n",
                             depprof_path.c_str(), e.c_str());
            std::fprintf(stderr,
                         "cwsim-report: %s failed validation (%zu "
                         "error(s); %zu run block(s) salvaged)\n",
                         depprof_path.c_str(), profile.errors().size(),
                         profile.runs().size());
            return 2;
        }
        std::string report =
            cwsim::sweep::renderDepProfile(profile, format, top);
        if (out_path.empty()) {
            std::fputs(report.c_str(), stdout);
        } else {
            std::ofstream out(out_path);
            if (!out) {
                std::fprintf(stderr, "cwsim-report: cannot write %s\n",
                             out_path.c_str());
                return 2;
            }
            out << report;
        }
        return 0;
    }

    if (status) {
        if (connect_path.empty() || diff || !inputs.empty()) {
            std::fprintf(stderr,
                         "cwsim-report: --status wants --connect "
                         "SOCKET and nothing else\n");
            return usage(argv[0]);
        }
        return renderStatus(connect_path, out_path);
    }

    if (diff) {
        // With --connect the daemon's corpus is the CURRENT side and
        // the single positional file is the baseline.
        if (inputs.size() != (connect_path.empty() ? 2u : 1u))
            return usage(argv[0]);
        std::vector<cwsim::sweep::ReportRecord> baseline, current;
        if (!load(inputs[0], baseline))
            return 2;
        if (connect_path.empty() ? !load(inputs[1], current)
                                 : !fetchCorpus(connect_path, current))
            return 2;
        cwsim::sweep::DiffResult result =
            cwsim::sweep::diffRunRecords(baseline, current);
        if (!result.error.empty()) {
            std::fprintf(stderr, "cwsim-report: %s\n",
                         result.error.c_str());
            return 2;
        }
        std::fputs(cwsim::sweep::formatDiff(result).c_str(), stdout);
        return result.clean() ? 0 : 1;
    }

    if (inputs.size() != (connect_path.empty() ? 1u : 0u))
        return usage(argv[0]);
    std::vector<cwsim::sweep::ReportRecord> records;
    if (connect_path.empty() ? !load(inputs[0], records)
                             : !fetchCorpus(connect_path, records))
        return 2;
    std::string report =
        cwsim::sweep::renderReport(records, format, top);
    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cwsim-report: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        out << report;
    }
    return 0;
}
