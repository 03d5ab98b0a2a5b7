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
 * Flags mirror the bench CLI where they mean the same thing (--jobs,
 * --scale, --cache-dir with CWSIM_CACHE_DIR, --timeout, --mem-limit,
 * --retries).
 */

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

int
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(
        out,
        "usage: %s --socket PATH [options]\n"
        "\n"
        "  --socket PATH    Unix-domain socket to listen on (required)\n"
        "  --cache-dir D    shared run-cache directory (default:\n"
        "                   CWSIM_CACHE_DIR env, else .cwsim-cache)\n"
        "  --jobs N         worker slots (default: CWSIM_JOBS env,\n"
        "                   else all hardware threads)\n"
        "  --scale N        default dynamic-instruction target for\n"
        "                   specs that omit one (default: CWSIM_SCALE\n"
        "                   env, else 80000)\n"
        "  --timeout S      wall-clock deadline per run, seconds\n"
        "  --mem-limit MB   address-space cap per run, MiB\n"
        "  --retries N      retries for host-level run failures\n"
        "  --max-queued N   bounded admission queue (default 1024)\n"
        "  --quota N        per-client in-flight run cap (default 512)\n"
        "  --metrics-file P dump Prometheus text exposition to P\n"
        "                   periodically (atomic rename)\n"
        "  --metrics-interval S\n"
        "                   seconds between dumps (default 5)\n"
        "  --trace-events P write per-run lifecycle spans as Chrome\n"
        "                   trace-event JSON to P (Perfetto-loadable)\n"
        "  --version        print schema/protocol/build identity\n"
        "  --help           this message\n",
        argv0);
    return out == stdout ? 0 : 2;
}

uint64_t
parseU64(const char *flag, const char *text)
{
    uint64_t v = 0;
    if (!cwsim::parseUnsigned(text, v)) {
        std::fprintf(stderr, "cwsimd: %s: not a number: '%s'\n", flag,
                     text);
        std::exit(2);
    }
    return v;
}

double
parseSecondsArg(const char *flag, const char *text)
{
    double v = 0;
    if (!cwsim::parseSeconds(text, v)) {
        std::fprintf(stderr, "cwsimd: %s: not a number of seconds: "
                             "'%s'\n", flag, text);
        std::exit(2);
    }
    return v;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    cwsim::svc::ServerOptions opts;
    opts.slots = 0;
    if (const char *dir = std::getenv("CWSIM_CACHE_DIR"); dir && *dir)
        opts.cacheDir = dir;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "cwsimd: %s requires a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            return usage(argv[0], stdout);
        } else if (arg == "--version") {
            std::printf("%s\n",
                        cwsim::svc::versionLine("cwsimd").c_str());
            return 0;
        } else if (arg == "--metrics-file") {
            opts.metricsPath = value("--metrics-file");
        } else if (arg == "--metrics-interval") {
            opts.metricsPeriodSec = parseSecondsArg(
                "--metrics-interval", value("--metrics-interval"));
            if (opts.metricsPeriodSec <= 0) {
                std::fprintf(stderr, "cwsimd: --metrics-interval "
                                     "must be positive\n");
                return 2;
            }
        } else if (arg == "--trace-events") {
            opts.traceEventsPath = value("--trace-events");
        } else if (arg == "--socket") {
            opts.socketPath = value("--socket");
        } else if (arg == "--cache-dir") {
            opts.cacheDir = value("--cache-dir");
        } else if (arg == "--jobs") {
            opts.slots = static_cast<unsigned>(
                parseU64("--jobs", value("--jobs")));
        } else if (arg == "--scale") {
            opts.defaultScale = parseU64("--scale", value("--scale"));
        } else if (arg == "--timeout") {
            opts.timeoutSec =
                parseSecondsArg("--timeout", value("--timeout"));
        } else if (arg == "--mem-limit") {
            opts.memLimitMb =
                parseU64("--mem-limit", value("--mem-limit"));
        } else if (arg == "--retries") {
            opts.retries = static_cast<unsigned>(
                parseU64("--retries", value("--retries")));
        } else if (arg == "--max-queued") {
            opts.limits.maxQueued =
                parseU64("--max-queued", value("--max-queued"));
        } else if (arg == "--quota") {
            opts.limits.maxClientInflight =
                parseU64("--quota", value("--quota"));
        } else {
            std::fprintf(stderr, "cwsimd: unknown flag '%s'\n",
                         arg.c_str());
            return usage(argv[0], stderr);
        }
    }
    if (opts.socketPath.empty())
        return usage(argv[0], stderr);
    opts.slots = cwsim::sweep::resolveJobs(opts.slots);

    cwsim::svc::Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "cwsimd: %s\n", err.c_str());
        return 2;
    }

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
