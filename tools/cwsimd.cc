/**
 * @file
 * cwsimd: the multi-tenant sweep daemon (see src/svc/server.hh).
 *
 * One long-running process owns a pool of isolated worker slots and a
 * shared run cache; any number of cwsim-client / cwsim-report
 * processes connect over the Unix socket, submit
 * sweep specs, and stream results. SIGTERM/SIGINT drain gracefully:
 * admitted runs finish and land in the corpus, then the process exits
 * 0.
 *
 *   cwsimd --socket /tmp/cwsimd.sock --cache-dir /var/cwsim \
 *          --jobs 8 --timeout 120 --mem-limit 4096
 *
 * Its flags (svc::daemonCli; --help lists them) mirror the bench
 * CLI's where they mean the same thing (--jobs, --scale, --cache-dir
 * with CWSIM_CACHE_DIR, --timeout, --mem-limit, --retries).
 */

#include <signal.h>

#include <cstdio>
#include <string>

#include "base/str.hh"
#include "sweep/sweep.hh"
#include "svc/log.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"

namespace
{

cwsim::svc::Server *g_server = nullptr;

void
onStopSignal(int)
{
    if (g_server)
        g_server->requestStop(); // one async-signal-safe write
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cwsim::svc::ServerOptions opts;
    opts.slots = 0;
    cwsim::svc::parseToolArgs(cwsim::svc::daemonCli(opts), argc, argv,
                              "cwsimd");
    opts.slots = cwsim::sweep::resolveJobs(opts.slots);

    cwsim::svc::Server server(opts);
    std::string err;
    if (!server.start(&err))
        return cwsim::svc::toolError("cwsimd", err);

    g_server = &server;
    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    // A lost controlling terminal should drain, not kill: admitted
    // runs still land in the shared corpus.
    ::sigaction(SIGHUP, &sa, nullptr);

    cwsim::svc::logLine(
        0, cwsim::strfmt(
               "cwsimd: listening on %s (%u slot(s), cache %s)",
               opts.socketPath.c_str(), opts.slots,
               opts.cacheDir.c_str()));
    int rc = server.run();
    cwsim::svc::logLine(0, "cwsimd: drained, exiting");
    g_server = nullptr;
    return rc;
}
