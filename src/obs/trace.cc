#include "obs/trace.hh"

#include <cstdlib>

#include "base/logging.hh"
#include "obs/pipeview.hh"

namespace cwsim
{
namespace obs
{

namespace detail
{
std::atomic<bool> trace_on{false};
} // namespace detail

namespace
{

const char *const flag_names[num_trace_flags] = {
    "Fetch", "Issue", "Commit", "LSQ", "MDP", "Recovery", "Split",
    "Sweep",
};

thread_local Tick tl_trace_cycle = 0;
thread_local std::string tl_run_label;

std::string
allFlagNames()
{
    std::string all;
    for (size_t i = 0; i < num_trace_flags; ++i) {
        if (i > 0)
            all += ", ";
        all += flag_names[i];
    }
    return all;
}

} // anonymous namespace

const char *
traceFlagName(TraceFlag flag)
{
    return flag_names[static_cast<size_t>(flag)];
}

bool
traceFlagFromName(const std::string &name, TraceFlag &out)
{
    for (size_t i = 0; i < num_trace_flags; ++i) {
        if (name == flag_names[i]) {
            out = static_cast<TraceFlag>(i);
            return true;
        }
    }
    return false;
}

void
setTraceCycle(Tick cycle)
{
    tl_trace_cycle = cycle;
}

Tick
traceCycle()
{
    return tl_trace_cycle;
}

void
setRunLabel(const std::string &label)
{
    tl_run_label = label;
}

const std::string &
runLabel()
{
    return tl_run_label;
}

TraceManager &
TraceManager::instance()
{
    static TraceManager manager;
    return manager;
}

TraceManager::TraceManager() : out(stderr), ownsOut(false)
{
    for (auto &f : flags)
        f.store(false, std::memory_order_relaxed);
    applyEnvironment();
}

TraceManager::~TraceManager()
{
    closeOutput();
}

void
TraceManager::applyEnvironment()
{
    if (const char *spec = std::getenv("CWSIM_TRACE")) {
        std::string err;
        if (*spec && !configure(spec, &err))
            warn("CWSIM_TRACE: %s", err.c_str());
    }
    if (const char *path = std::getenv("CWSIM_TRACE_FILE")) {
        if (*path)
            setOutputPath(path);
    }
    if (const char *path = std::getenv("CWSIM_PIPEVIEW")) {
        if (*path)
            setPipeViewPath(path);
    }
    uint64_t period = envUint64("CWSIM_INTERVAL", 1, 0);
    if (period > 0) {
        const char *path = std::getenv("CWSIM_INTERVAL_FILE");
        setInterval(period,
                    path && *path ? path : "cwsim-intervals.jsonl");
    }
}

bool
TraceManager::configure(const std::string &spec, std::string *err)
{
    // Validate the whole spec before enabling anything, so a bad name
    // cannot leave a half-applied flag set behind.
    std::vector<TraceFlag> parsed;
    bool all = false;
    for (const std::string &piece : split(spec, ',')) {
        std::string name = trim(piece);
        if (name.empty())
            continue;
        if (name == "all") {
            all = true;
            continue;
        }
        TraceFlag flag;
        if (!traceFlagFromName(name, flag)) {
            if (err) {
                *err = strfmt("unknown trace flag '%s' (valid: %s, "
                              "all)", name.c_str(),
                              allFlagNames().c_str());
            }
            return false;
        }
        parsed.push_back(flag);
    }

    if (all) {
        for (size_t i = 0; i < num_trace_flags; ++i)
            enable(static_cast<TraceFlag>(i));
    }
    for (TraceFlag flag : parsed)
        enable(flag);
    return true;
}

void
TraceManager::enable(TraceFlag flag)
{
    flags[static_cast<size_t>(flag)].store(true,
                                           std::memory_order_relaxed);
    detail::trace_on.store(true, std::memory_order_relaxed);
}

void
TraceManager::disableAll()
{
    for (auto &f : flags)
        f.store(false, std::memory_order_relaxed);
    detail::trace_on.store(false, std::memory_order_relaxed);
}

bool
TraceManager::enabled(TraceFlag flag) const
{
    return flags[static_cast<size_t>(flag)].load(
        std::memory_order_relaxed);
}

void
TraceManager::closeOutput()
{
    if (ownsOut && out)
        std::fclose(out);
    out = stderr;
    ownsOut = false;
}

void
TraceManager::setOutputPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(writeMutex);
    closeOutput();
    if (path.empty() || path == "-")
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("trace: cannot open %s; tracing to stderr", path.c_str());
        return;
    }
    out = f;
    ownsOut = true;
}

void
TraceManager::write(TraceFlag flag, const std::string &msg)
{
    const std::string &label = runLabel();
    std::lock_guard<std::mutex> lock(writeMutex);
    if (label.empty()) {
        std::fprintf(out, "%7llu: %s: %s\n",
                     static_cast<unsigned long long>(traceCycle()),
                     traceFlagName(flag), msg.c_str());
    } else {
        std::fprintf(out, "%7llu: %s: [%s] %s\n",
                     static_cast<unsigned long long>(traceCycle()),
                     traceFlagName(flag), label.c_str(), msg.c_str());
    }
}

bool
TraceManager::setPipeViewPath(const std::string &path)
{
    auto writer = std::make_unique<PipeViewWriter>(path);
    if (!writer->valid()) {
        warn("trace: cannot open pipeline trace %s", path.c_str());
        return false;
    }
    pipeWriter = std::move(writer);
    return true;
}

void
TraceManager::setInterval(uint64_t cycles, const std::string &path)
{
    intervalCycles = cycles;
    intervalFile = path.empty() ? "cwsim-intervals.jsonl" : path;
}

void
TraceManager::dropFileOutputs()
{
    std::lock_guard<std::mutex> lock(writeMutex);
    closeOutput();
    pipeWriter.reset();
}

void
TraceManager::resetForTesting()
{
    disableAll();
    pipeWriter.reset();
    intervalCycles = 0;
    intervalFile.clear();
    std::lock_guard<std::mutex> lock(writeMutex);
    closeOutput();
}

} // namespace obs
} // namespace cwsim
