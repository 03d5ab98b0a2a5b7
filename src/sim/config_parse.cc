#include "sim/config_parse.hh"

#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{

namespace
{

using Setter = std::function<void(SimConfig &, const std::string &)>;

/** Decimal, or hex after a 0x prefix; at most @p max (the field's). */
uint64_t
parseU64(const std::string &key, const std::string &value, uint64_t max)
{
    bool hex = value.size() > 2 && value[0] == '0' &&
               (value[1] == 'x' || value[1] == 'X');
    uint64_t v = 0;
    fatal_if(!parseUnsigned(hex ? std::string_view(value).substr(2)
                                : std::string_view(value),
                            v, hex ? 16 : 10, max),
             "config: bad number '%s' for %s", value.c_str(),
             key.c_str());
    return v;
}

double
parseF64(const std::string &key, const std::string &value)
{
    double v = 0;
    fatal_if(!parseDouble(value, v), "config: bad number '%s' for %s",
             value.c_str(), key.c_str());
    return v;
}

/** Fault-injection probabilities. */
double
parseRate(const std::string &key, const std::string &value)
{
    double v = parseF64(key, value);
    fatal_if(v < 0 || v > 1, "config: bad number '%s' for %s (a rate "
             "in [0, 1])", value.c_str(), key.c_str());
    return v;
}

/**
 * Window and store-buffer sizes. The core allocates per-slot arrays
 * of this size; 4096 is 16x the largest window any study uses.
 */
constexpr uint64_t max_queue_size = 4096;

uint64_t
parseQueueSize(const std::string &key, const std::string &value)
{
    uint64_t v = parseU64(key, value,
                          std::numeric_limits<uint64_t>::max());
    fatal_if(v == 0 || v > max_queue_size,
             "config: bad number '%s' for %s (1 to %llu)",
             value.c_str(), key.c_str(),
             static_cast<unsigned long long>(max_queue_size));
    return v;
}

LsqModel
parseModel(const std::string &value)
{
    if (value == "NAS" || value == "nas")
        return LsqModel::NAS;
    if (value == "AS" || value == "as")
        return LsqModel::AS;
    fatal("config: bad lsqModel '%s' (NAS or AS)", value.c_str());
}

SpecPolicy
parsePolicy(const std::string &value)
{
    if (value == "NO" || value == "no")
        return SpecPolicy::No;
    if (value == "NAV" || value == "nav" || value == "naive")
        return SpecPolicy::Naive;
    if (value == "SEL" || value == "sel" || value == "selective")
        return SpecPolicy::Selective;
    if (value == "STORE" || value == "store")
        return SpecPolicy::StoreBarrier;
    if (value == "SYNC" || value == "sync")
        return SpecPolicy::SpecSync;
    if (value == "ORACLE" || value == "oracle")
        return SpecPolicy::Oracle;
    fatal("config: bad policy '%s' "
          "(NO/NAV/SEL/STORE/SYNC/ORACLE)", value.c_str());
}

RecoveryModel
parseRecovery(const std::string &value)
{
    if (value == "squash")
        return RecoveryModel::Squash;
    if (value == "selective")
        return RecoveryModel::Selective;
    fatal("config: bad recovery '%s' (squash or selective)",
          value.c_str());
}

#define U64_FIELD(key, expr)                                            \
    {                                                                   \
        key, [](SimConfig &c, const std::string &v) {                  \
            using Field = std::remove_reference_t<decltype(expr)>;      \
            expr = static_cast<Field>(parseU64(                         \
                key, v, std::numeric_limits<Field>::max()));            \
        }                                                               \
    }

#define QUEUE_FIELD(key, expr)                                          \
    {                                                                   \
        key, [](SimConfig &c, const std::string &v) {                  \
            using Field = std::remove_reference_t<decltype(expr)>;      \
            expr = static_cast<Field>(parseQueueSize(key, v));          \
        }                                                               \
    }

#define RATE_FIELD(key, expr)                                           \
    {                                                                   \
        key, [](SimConfig &c, const std::string &v) {                  \
            expr = parseRate(key, v);                                   \
        }                                                               \
    }

const std::map<std::string, Setter> &
setters()
{
    static const std::map<std::string, Setter> table = {
        // Core.
        QUEUE_FIELD("core.windowSize", c.core.windowSize),
        U64_FIELD("core.lsqSize", c.core.lsqSize),
        QUEUE_FIELD("core.storeBufferSize", c.core.storeBufferSize),
        U64_FIELD("core.fetchWidth", c.core.fetchWidth),
        U64_FIELD("core.fetchToDispatch", c.core.fetchToDispatch),
        U64_FIELD("core.issueWidth", c.core.issueWidth),
        U64_FIELD("core.commitWidth", c.core.commitWidth),
        U64_FIELD("core.memPorts", c.core.memPorts),
        U64_FIELD("core.fuCopies", c.core.fuCopies),
        U64_FIELD("core.lsqInputPorts", c.core.lsqInputPorts),
        // Memory hierarchy.
        U64_FIELD("mem.dcache.sizeBytes", c.mem.dcache.sizeBytes),
        U64_FIELD("mem.dcache.assoc", c.mem.dcache.assoc),
        U64_FIELD("mem.dcache.banks", c.mem.dcache.banks),
        U64_FIELD("mem.dcache.hitLatency", c.mem.dcache.hitLatency),
        U64_FIELD("mem.icache.sizeBytes", c.mem.icache.sizeBytes),
        U64_FIELD("mem.icache.hitLatency", c.mem.icache.hitLatency),
        U64_FIELD("mem.l2.sizeBytes", c.mem.l2.sizeBytes),
        U64_FIELD("mem.l2AccessLatency", c.mem.l2AccessLatency),
        U64_FIELD("mem.memBaseLatency", c.mem.memBaseLatency),
        // Branch prediction.
        U64_FIELD("bpred.predictorEntries", c.bpred.predictorEntries),
        U64_FIELD("bpred.gselectHistoryBits",
                  c.bpred.gselectHistoryBits),
        U64_FIELD("bpred.btbEntries", c.bpred.btbEntries),
        U64_FIELD("bpred.rasEntries", c.bpred.rasEntries),
        // Memory dependence speculation.
        U64_FIELD("mdp.asLatency", c.mdp.asLatency),
        U64_FIELD("mdp.mdptEntries", c.mdp.mdptEntries),
        U64_FIELD("mdp.mdptAssoc", c.mdp.mdptAssoc),
        U64_FIELD("mdp.counterBits", c.mdp.counterBits),
        U64_FIELD("mdp.predictThreshold", c.mdp.predictThreshold),
        U64_FIELD("mdp.resetInterval", c.mdp.resetInterval),
        {"mdp.lsqModel",
         [](SimConfig &c, const std::string &v) {
             c.mdp.lsqModel = parseModel(v);
         }},
        {"mdp.policy",
         [](SimConfig &c, const std::string &v) {
             c.mdp.policy = parsePolicy(v);
         }},
        {"mdp.recovery",
         [](SimConfig &c, const std::string &v) {
             c.mdp.recovery = parseRecovery(v);
         }},
        // Checked simulation.
        U64_FIELD("check.level", c.check.level),
        U64_FIELD("check.watchdogInterval", c.check.watchdogInterval),
        U64_FIELD("check.flightRecorderSize",
                  c.check.flightRecorderSize),
        // Fault injection.
        U64_FIELD("check.faults.seed", c.check.faults.seed),
        RATE_FIELD("check.faults.spuriousViolationRate",
                   c.check.faults.spuriousViolationRate),
        RATE_FIELD("check.faults.storeAddrDelayRate",
                   c.check.faults.storeAddrDelayRate),
        U64_FIELD("check.faults.storeAddrDelay",
                  c.check.faults.storeAddrDelay),
        RATE_FIELD("check.faults.mdptDropRate",
                   c.check.faults.mdptDropRate),
        RATE_FIELD("check.faults.mdptCorruptRate",
                   c.check.faults.mdptCorruptRate),
        RATE_FIELD("check.faults.hostCrashRate",
                   c.check.faults.hostCrashRate),
        RATE_FIELD("check.faults.hostHangRate",
                   c.check.faults.hostHangRate),
        RATE_FIELD("check.faults.hostAllocRate",
                   c.check.faults.hostAllocRate),
        // Run control.
        U64_FIELD("maxInsts", c.maxInsts),
        U64_FIELD("maxCycles", c.maxCycles),
    };
    return table;
}

#undef U64_FIELD
#undef QUEUE_FIELD
#undef RATE_FIELD

} // anonymous namespace

void
applyConfigOption(SimConfig &cfg, const std::string &option)
{
    size_t eq = option.find('=');
    fatal_if(eq == std::string::npos,
             "config: expected key=value, got '%s'", option.c_str());
    std::string key = trim(option.substr(0, eq));
    std::string value = trim(option.substr(eq + 1));
    fatal_if(key.empty() || value.empty(),
             "config: expected key=value, got '%s'", option.c_str());

    const auto &table = setters();
    auto it = table.find(key);
    fatal_if(it == table.end(), "config: unknown key '%s'",
             key.c_str());
    it->second(cfg, value);
}

SimConfig
parseConfigText(const std::string &text, SimConfig base)
{
    std::istringstream in(text);
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw = raw.substr(0, hash);
        raw = trim(raw);
        if (raw.empty())
            continue;
        applyConfigOption(base, raw);
    }
    return base;
}

SimConfig
parseConfigFile(const std::string &path, SimConfig base)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open config file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseConfigText(buf.str(), std::move(base));
}

std::vector<std::string>
configKeys()
{
    std::vector<std::string> keys;
    for (const auto &[key, setter] : setters())
        keys.push_back(key);
    return keys;
}

} // namespace cwsim
