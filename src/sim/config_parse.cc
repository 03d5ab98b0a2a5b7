#include "sim/config_parse.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{

namespace
{

/** How applyConfigOption() reads a row's value. */
enum class Parse
{
    None,        ///< Printed only: the key is refused as unknown.
    /**
     * By the field's type: a number up to the field's maximum, a
     * probability in [0, 1] (the fault rates, the only doubles), or
     * an enum's name.
     */
    Value,
    Queue,       ///< A window or store-buffer size: 1 to max_queue_size.
    Divisor,     ///< A count the simulator divides by: at least 1.
    HistoryBits, ///< Global-history bits: 0 to max_history_bits.
};

/**
 * The config text's one field table, in print order: @p row is called
 * as row(key, field, rule) once per `key=value` line.
 * serializeConfig() prints every row; applyConfigOption() and
 * configKeys() take the rows whose rule is not None. The three rows
 * that print literals stand for knobs nothing in the simulator read
 * (the L2 hit time is mem.l2.hitLatency); their lines stay so that no
 * run-cache fingerprint moves.
 */
template <class Config, class Row>
void
forEachField(Config &c, Row &&row)
{
    auto &core = c.core;
    row("core.fetchWidth", core.fetchWidth, Parse::Value);
    row("core.fetchMaxBlocks", core.fetchMaxBlocks, Parse::None);
    row("core.maxFetchRequests", core.maxFetchRequests, Parse::None);
    row("core.fetchToDispatch", core.fetchToDispatch, Parse::Value);
    row("core.windowSize", core.windowSize, Parse::Queue);
    row("core.lsqSize", core.lsqSize, Parse::Value);
    row("core.storeBufferSize", core.storeBufferSize, Parse::Queue);
    row("core.issueWidth", core.issueWidth, Parse::Value);
    row("core.commitWidth", core.commitWidth, Parse::Value);
    row("core.memPorts", core.memPorts, Parse::Value);
    row("core.fuCopies", core.fuCopies, Parse::Value);
    row("core.lsqInputPorts", core.lsqInputPorts, Parse::Value);

    auto &ic = c.mem.icache;
    row("mem.icache.sizeBytes", ic.sizeBytes, Parse::Value);
    row("mem.icache.assoc", ic.assoc, Parse::None);
    row("mem.icache.banks", ic.banks, Parse::None);
    row("mem.icache.blockSize", ic.blockSize, Parse::None);
    row("mem.icache.hitLatency", ic.hitLatency, Parse::Value);
    row("mem.icache.primaryMshrsPerBank", ic.primaryMshrsPerBank,
        Parse::None);
    row("mem.icache.secondaryPerPrimary", ic.secondaryPerPrimary,
        Parse::None);

    auto &dc = c.mem.dcache;
    row("mem.dcache.sizeBytes", dc.sizeBytes, Parse::Value);
    row("mem.dcache.assoc", dc.assoc, Parse::Divisor);
    row("mem.dcache.banks", dc.banks, Parse::Value);
    row("mem.dcache.blockSize", dc.blockSize, Parse::None);
    row("mem.dcache.hitLatency", dc.hitLatency, Parse::Value);
    row("mem.dcache.primaryMshrsPerBank", dc.primaryMshrsPerBank,
        Parse::None);
    row("mem.dcache.secondaryPerPrimary", dc.secondaryPerPrimary,
        Parse::None);

    auto &l2 = c.mem.l2;
    row("mem.l2.sizeBytes", l2.sizeBytes, Parse::Value);
    row("mem.l2.assoc", l2.assoc, Parse::None);
    row("mem.l2.banks", l2.banks, Parse::None);
    row("mem.l2.blockSize", l2.blockSize, Parse::None);
    row("mem.l2.hitLatency", l2.hitLatency, Parse::None);
    row("mem.l2.primaryMshrsPerBank", l2.primaryMshrsPerBank,
        Parse::None);
    row("mem.l2.secondaryPerPrimary", l2.secondaryPerPrimary,
        Parse::None);

    auto &mem = c.mem;
    row("mem.l2AccessLatency", Cycles{10}, Parse::None);
    row("mem.memAccessLatency", Cycles{50}, Parse::None);
    row("mem.memBaseLatency", mem.memBaseLatency, Parse::Value);
    row("mem.memTransferPer4Words", mem.memTransferPer4Words,
        Parse::None);
    row("mem.l2TransferPer4Words", mem.l2TransferPer4Words, Parse::None);

    auto &bp = c.bpred;
    row("bpred.predictorEntries", bp.predictorEntries, Parse::Value);
    row("bpred.gselectHistoryBits", bp.gselectHistoryBits,
        Parse::HistoryBits);
    row("bpred.btbEntries", bp.btbEntries, Parse::Value);
    row("bpred.rasEntries", bp.rasEntries, Parse::Divisor);
    row("bpred.predictionsPerCycle", bp.predictionsPerCycle,
        Parse::None);
    row("bpred.resolutionsPerCycle", 4u, Parse::None);

    auto &mdp = c.mdp;
    row("mdp.lsqModel", mdp.lsqModel, Parse::Value);
    row("mdp.policy", mdp.policy, Parse::Value);
    row("mdp.asLatency", mdp.asLatency, Parse::Value);
    row("mdp.mdptEntries", mdp.mdptEntries, Parse::Value);
    row("mdp.mdptAssoc", mdp.mdptAssoc, Parse::Divisor);
    row("mdp.counterBits", mdp.counterBits, Parse::Value);
    row("mdp.predictThreshold", mdp.predictThreshold, Parse::Value);
    row("mdp.resetInterval", mdp.resetInterval, Parse::Value);
    row("mdp.recovery", mdp.recovery, Parse::Value);

    auto &check = c.check;
    row("check.level", check.level, Parse::Value);
    row("check.watchdogInterval", check.watchdogInterval, Parse::Value);
    row("check.flightRecorderSize", check.flightRecorderSize,
        Parse::Value);

    auto &f = c.check.faults;
    row("check.faults.seed", f.seed, Parse::Value);
    row("check.faults.spuriousViolationRate", f.spuriousViolationRate,
        Parse::Value);
    row("check.faults.storeAddrDelayRate", f.storeAddrDelayRate,
        Parse::Value);
    row("check.faults.storeAddrDelay", f.storeAddrDelay, Parse::Value);
    row("check.faults.mdptDropRate", f.mdptDropRate, Parse::Value);
    row("check.faults.mdptCorruptRate", f.mdptCorruptRate, Parse::Value);
    row("check.faults.hostCrashRate", f.hostCrashRate, Parse::Value);
    row("check.faults.hostHangRate", f.hostHangRate, Parse::Value);
    row("check.faults.hostAllocRate", f.hostAllocRate, Parse::Value);

    row("maxInsts", c.maxInsts, Parse::Value);
    row("maxCycles", c.maxCycles, Parse::Value);
}

/** A row's value text: %.17g survives a double's round trip. */
template <class Field>
std::string
printField(const Field &v)
{
    if constexpr (std::is_same_v<Field, double>)
        return strfmt("%.17g", v);
    else if constexpr (std::is_same_v<Field, RecoveryModel>)
        return v == RecoveryModel::Squash ? "squash" : "selective";
    else if constexpr (std::is_enum_v<Field>)
        return toString(v);
    else
        return std::to_string(v);
}

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

/** Fault-injection probabilities. */
double
parseRate(const std::string &key, const std::string &value)
{
    double v = 0;
    fatal_if(!parseDouble(value, v), "config: bad number '%s' for %s",
             value.c_str(), key.c_str());
    fatal_if(v < 0 || v > 1, "config: bad number '%s' for %s (a rate "
             "in [0, 1])", value.c_str(), key.c_str());
    return v;
}

/**
 * Window and store-buffer sizes. The core allocates per-slot arrays
 * of this size; 4096 is 16x the largest window any study uses.
 */
constexpr uint64_t max_queue_size = 4096;

/** The branch predictor keeps its global history in 32 bits. */
constexpr uint64_t max_history_bits = 32;

/** A number in [@p lo, @p hi]. */
uint64_t
parseInRange(const std::string &key, const std::string &value,
             uint64_t lo, uint64_t hi)
{
    uint64_t v = parseU64(key, value,
                          std::numeric_limits<uint64_t>::max());
    fatal_if(v < lo || v > hi,
             "config: bad number '%s' for %s (%llu to %llu)",
             value.c_str(), key.c_str(),
             static_cast<unsigned long long>(lo),
             static_cast<unsigned long long>(hi));
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

/** Read @p value into @p field by @p rule (not Parse::None). */
template <class Field>
void
parseField(const std::string &key, const std::string &value, Parse rule,
           Field &field)
{
    if constexpr (std::is_same_v<Field, double>) {
        field = parseRate(key, value);
    } else if constexpr (std::is_same_v<Field, LsqModel>) {
        field = parseModel(value);
    } else if constexpr (std::is_same_v<Field, SpecPolicy>) {
        field = parsePolicy(value);
    } else if constexpr (std::is_same_v<Field, RecoveryModel>) {
        field = parseRecovery(value);
    } else {
        constexpr uint64_t max = std::numeric_limits<Field>::max();
        uint64_t v = rule == Parse::Queue
                         ? parseInRange(key, value, 1, max_queue_size)
                     : rule == Parse::Divisor
                         ? parseInRange(key, value, 1, max)
                     : rule == Parse::HistoryBits
                         ? parseInRange(key, value, 0, max_history_bits)
                         : parseU64(key, value, max);
        field = static_cast<Field>(v);
    }
}

} // anonymous namespace

std::string
serializeConfig(const SimConfig &cfg)
{
    std::string out;
    forEachField(cfg, [&](const char *key, const auto &field, Parse) {
        out += key;
        out += '=';
        out += printField(field);
        out += '\n';
    });
    return out;
}

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

    bool known = false;
    forEachField(cfg, [&](const char *name, auto &&field, Parse rule) {
        if (rule == Parse::None || key != name)
            return;
        parseField(key, value, rule, field);
        known = true;
    });
    fatal_if(!known, "config: unknown key '%s'", key.c_str());
}

SimConfig
parseConfigText(const std::string &text, SimConfig base)
{
    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
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
    const SimConfig defaults;
    std::vector<std::string> keys;
    forEachField(defaults, [&](const char *key, const auto &, Parse rule) {
        if (rule != Parse::None)
            keys.push_back(key);
    });
    return keys;
}

} // namespace cwsim
