/**
 * @file
 * cwsim-client: submit a sweep to a running cwsimd and stream its
 * results, mirroring the bench CLI's semantics — same spec vocabulary
 * (--scale/--filter/--set), same JSONL export shape (--json), same
 * exit-code contract: 0 on a clean campaign, 1 when the server
 * reports unexpected run failures (injected host faults excluded) or
 * rejects the submit, 2 on connection or protocol trouble.
 *
 *   cwsim-client --socket /tmp/cwsimd.sock --preset fig2 \
 *                --scale 4000 --json fig2.jsonl
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "sweep/run_cache.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"

namespace
{

using cwsim::svc::Client;
using cwsim::JsonObject;

int
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s --socket PATH [options]\n"
        "\n"
        "  --socket PATH     connect to a cwsimd Unix socket\n"
        "  --id S            sweep identifier (default: sweep)\n"
        "  --preset P        named plan (fig2)\n"
        "  --workloads W     all | int | fp | comma-separated names\n"
        "  --filter SUB      only workloads whose name contains SUB\n"
        "  --scale N         dynamic-instruction target\n"
        "  --config OPTS     one config as comma-separated key=value\n"
        "                    overrides; repeat for more configs\n"
        "  --set K=V         apply an override to every config\n"
        "                    (repeatable)\n"
        "  --interval N      stream interval samples every N cycles\n"
        "  --interval-file P write streamed samples to P\n"
        "  --json PATH       append one JSONL record per run to PATH\n"
        "  --stats           print server stats and exit\n"
        "  --shutdown        ask the server to drain and exit\n"
        "  --quiet           no per-run progress lines\n"
        "  --version         print schema/protocol/build identity\n"
        "  --help            this message\n",
        argv0);
    return out == stdout ? 0 : 2;
}

std::string
field(const std::map<std::string, std::string> &ev, const char *key)
{
    auto it = ev.find(key);
    return it == ev.end() ? std::string() : it->second;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string socketPath, id = "sweep";
    std::string preset, workloads, filter, scale, interval;
    std::string jsonPath, intervalPath;
    std::vector<std::string> configs, sets;
    bool statsOnly = false, shutdown = false, quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "cwsim-client: %s requires a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(argv[0], stdout);
        else if (arg == "--version") {
            std::printf(
                "%s\n",
                cwsim::svc::versionLine("cwsim-client").c_str());
            return 0;
        } else if (arg == "--socket")
            socketPath = value("--socket");
        else if (arg == "--id")
            id = value("--id");
        else if (arg == "--preset")
            preset = value("--preset");
        else if (arg == "--workloads")
            workloads = value("--workloads");
        else if (arg == "--filter")
            filter = value("--filter");
        else if (arg == "--scale")
            scale = value("--scale");
        else if (arg == "--config")
            configs.push_back(value("--config"));
        else if (arg == "--set")
            sets.push_back(value("--set"));
        else if (arg == "--interval")
            interval = value("--interval");
        else if (arg == "--interval-file")
            intervalPath = value("--interval-file");
        else if (arg == "--json")
            jsonPath = value("--json");
        else if (arg == "--stats")
            statsOnly = true;
        else if (arg == "--shutdown")
            shutdown = true;
        else if (arg == "--quiet")
            quiet = true;
        else {
            std::fprintf(stderr, "cwsim-client: unknown flag '%s'\n",
                         arg.c_str());
            return usage(argv[0], stderr);
        }
    }

    Client client;
    std::string err;
    if (socketPath.empty())
        return usage(argv[0], stderr);
    if (!client.connectUnix(socketPath, &err)) {
        std::fprintf(stderr, "cwsim-client: %s\n", err.c_str());
        return 2;
    }

    std::map<std::string, std::string> ev;
    if (statsOnly) {
        if (!client.sendLine("{\"cmd\":\"stats\"}", &err) ||
            !client.nextEvent(ev, &err)) {
            std::fprintf(stderr, "cwsim-client: %s\n",
                         err.empty() ? "server closed" : err.c_str());
            return 2;
        }
        std::printf("%s\n", client.lastLine().c_str());
        return 0;
    }
    if (shutdown) {
        if (!client.sendLine("{\"cmd\":\"shutdown\"}", &err)) {
            std::fprintf(stderr, "cwsim-client: %s\n", err.c_str());
            return 2;
        }
        // The final shutdown event arrives once the drain completes;
        // an EOF means the server left without it, which is still a
        // completed shutdown from where we stand.
        while (client.nextEvent(ev, &err)) {
            if (field(ev, "ev") == "shutdown")
                break;
        }
        return 0;
    }

    // Assemble and send the submit request.
    JsonObject req;
    req.add("cmd", "submit").add("id", id);
    if (!preset.empty())
        req.add("preset", preset);
    if (!workloads.empty())
        req.add("workloads", workloads);
    if (!filter.empty())
        req.add("filter", filter);
    if (!scale.empty())
        req.add("scale", scale);
    if (!configs.empty()) {
        std::string joined;
        for (const std::string &c : configs) {
            if (!joined.empty())
                joined += ';';
            joined += c;
        }
        req.add("configs", joined);
    }
    if (!sets.empty()) {
        std::string joined;
        for (const std::string &kv : sets) {
            if (!joined.empty())
                joined += ',';
            joined += kv;
        }
        req.add("set", joined);
    }
    if (!interval.empty())
        req.add("interval", interval);
    if (!client.sendLine(req.str(), &err)) {
        std::fprintf(stderr, "cwsim-client: %s\n", err.c_str());
        return 2;
    }

    // Stream events until the sweep is done. Run records are
    // re-exported to --json in seq order — the same spec order the
    // bench CLI writes — once all have arrived.
    std::vector<std::string> records;
    std::ofstream intervalOut;
    if (!intervalPath.empty()) {
        intervalOut.open(intervalPath, std::ios::app);
        if (!intervalOut) {
            std::fprintf(stderr, "cwsim-client: cannot write %s\n",
                         intervalPath.c_str());
            return 2;
        }
    }
    uint64_t failed = 0, injected = 0, runs = 0;
    bool done = false;
    while (!done) {
        if (!client.nextEvent(ev, &err)) {
            std::fprintf(stderr, "cwsim-client: %s\n",
                         err.empty() ? "server closed mid-sweep"
                                     : err.c_str());
            return 2;
        }
        std::string kind = field(ev, "ev");
        if (kind == "rejected") {
            std::fprintf(stderr, "cwsim-client: rejected: %s\n",
                         field(ev, "reason").c_str());
            return 1;
        } else if (kind == "error") {
            std::fprintf(stderr, "cwsim-client: server error: %s\n",
                         field(ev, "reason").c_str());
            return 2;
        } else if (kind == "accepted") {
            if (!quiet) {
                std::fprintf(stderr,
                             "sweep %s accepted: %s run(s) — %s "
                             "cached, %s deduped, %s queued\n",
                             field(ev, "id").c_str(),
                             field(ev, "runs").c_str(),
                             field(ev, "cached").c_str(),
                             field(ev, "deduped").c_str(),
                             field(ev, "queued").c_str());
            }
        } else if (kind == "run") {
            // Rebuild the canonical record line (event keys stripped)
            // so a --json export is byte-compatible with the bench
            // CLI's: the record parser ignores the event keys.
            cwsim::harness::RunResult r;
            uint64_t seq = 0, total = 0, fp = 0, recScale = 0;
            if (cwsim::parseUnsigned(field(ev, "seq"), seq) &&
                cwsim::parseUnsigned(field(ev, "total"), total) &&
                seq < total &&
                cwsim::sweep::runRecordParseWithEnvelope(ev, r, fp,
                                                         recScale)) {
                if (records.size() <= seq)
                    records.resize(seq + 1);
                records[seq] =
                    cwsim::sweep::runRecordLine(r, fp, recScale);
                if (!quiet) {
                    std::fprintf(
                        stderr, "run %llu/%s %s %s%s%s\n",
                        static_cast<unsigned long long>(seq + 1),
                        field(ev, "total").c_str(),
                        field(ev, "workload").c_str(),
                        field(ev, "config").c_str(),
                        r.cacheHit ? " (cached)" : "",
                        r.ok ? ""
                             : (" FAILED: " + r.failLabel()).c_str());
                }
            } else {
                std::fprintf(stderr,
                             "cwsim-client: unparseable run event\n");
                return 2;
            }
        } else if (kind == "interval") {
            if (intervalOut.is_open())
                intervalOut << client.lastLine() << '\n';
        } else if (kind == "done") {
            if (!cwsim::parseUnsigned(field(ev, "runs"), runs) ||
                !cwsim::parseUnsigned(field(ev, "failed"), failed) ||
                !cwsim::parseUnsigned(field(ev, "injected"),
                                      injected)) {
                std::fprintf(stderr,
                             "cwsim-client: unparseable done event\n");
                return 2;
            }
            done = true;
        } else if (kind == "shutdown") {
            std::fprintf(stderr,
                         "cwsim-client: server drained mid-sweep\n");
            return 2;
        }
        // pong/stats/hello events are ignorable here.
    }

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::app);
        if (!out) {
            std::fprintf(stderr, "cwsim-client: cannot write %s\n",
                         jsonPath.c_str());
            return 2;
        }
        for (const std::string &line : records) {
            if (!line.empty())
                out << line << '\n';
        }
    }

    if (!quiet) {
        std::fprintf(stderr,
                     "sweep %s done: %llu run(s), %llu failed, %llu "
                     "injected\n",
                     id.c_str(),
                     static_cast<unsigned long long>(runs),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(injected));
    }
    // Bench-CLI exit semantics: injected host faults are contained by
    // design and do not fail the campaign.
    return failed > 0 ? 1 : 0;
}
