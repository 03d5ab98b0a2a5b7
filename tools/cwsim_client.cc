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
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "sweep/run_cache.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"

using cwsim::field;
using cwsim::svc::Client;

namespace
{

int
fail(const std::string &msg)
{
    return cwsim::svc::toolError("cwsim-client", msg);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cwsim::svc::ClientArgs args;
    cwsim::svc::parseToolArgs(cwsim::svc::clientCli(args), argc, argv,
                              "cwsim-client");

    Client client;
    std::string err;
    if (!client.connectUnix(args.socketPath, &err))
        return fail(err);

    std::map<std::string, std::string> ev;
    if (args.stats) {
        if (!client.sendLine("{\"cmd\":\"stats\"}", &err) ||
            !client.nextEvent(ev, &err))
            return fail(err.empty() ? "server closed" : err);
        std::printf("%s\n", client.lastLine().c_str());
        return 0;
    }
    if (args.shutdown) {
        if (!client.sendLine("{\"cmd\":\"shutdown\"}", &err))
            return fail(err);
        // The final shutdown event arrives once the drain completes;
        // an EOF means the server left without it, which is still a
        // completed shutdown from where we stand.
        while (client.nextEvent(ev, &err)) {
            if (field(ev, "ev") == "shutdown")
                break;
        }
        return 0;
    }

    if (!client.sendLine(cwsim::svc::submitRequest(args), &err))
        return fail(err);

    // Stream events until the sweep is done. Run records are
    // re-exported to --json in seq order — the same spec order the
    // bench CLI writes — once all have arrived.
    std::vector<std::string> records;
    std::ofstream intervalOut;
    if (!args.intervalPath.empty()) {
        intervalOut.open(args.intervalPath, std::ios::app);
        if (!intervalOut)
            return fail("cannot write " + args.intervalPath);
    }
    uint64_t failed = 0, injected = 0, runs = 0;
    bool done = false;
    while (!done) {
        if (!client.nextEvent(ev, &err))
            return fail(err.empty() ? "server closed mid-sweep" : err);
        std::string kind = field(ev, "ev");
        if (kind == "rejected") {
            std::fprintf(stderr, "cwsim-client: rejected: %s\n",
                         field(ev, "reason").c_str());
            return 1;
        } else if (kind == "error") {
            return fail("server error: " + field(ev, "reason"));
        } else if (kind == "accepted") {
            if (!args.quiet) {
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
                if (!args.quiet) {
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
                return fail("unparseable run event");
            }
        } else if (kind == "interval") {
            if (intervalOut.is_open())
                intervalOut << client.lastLine() << '\n';
        } else if (kind == "done") {
            if (!cwsim::parseUnsigned(field(ev, "runs"), runs) ||
                !cwsim::parseUnsigned(field(ev, "failed"), failed) ||
                !cwsim::parseUnsigned(field(ev, "injected"), injected))
                return fail("unparseable done event");
            done = true;
        } else if (kind == "shutdown") {
            return fail("server drained mid-sweep");
        }
        // pong/stats/hello events are ignorable here.
    }

    if (!args.jsonPath.empty()) {
        std::ofstream out(args.jsonPath, std::ios::app);
        if (!out)
            return fail("cannot write " + args.jsonPath);
        for (const std::string &line : records) {
            if (!line.empty())
                out << line << '\n';
        }
    }

    if (!args.quiet) {
        std::fprintf(stderr,
                     "sweep %s done: %llu run(s), %llu failed, %llu "
                     "injected\n",
                     args.id.c_str(),
                     static_cast<unsigned long long>(runs),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(injected));
    }
    // Bench-CLI exit semantics: injected host faults are contained by
    // design and do not fail the campaign.
    return failed > 0 ? 1 : 0;
}
