#include "svc/spec.hh"

#include <algorithm>

#include "base/jsonl.hh"
#include "base/sim_error.hh"
#include "base/str.hh"
#include "sim/config_parse.hh"
#include "workloads/workload.hh"

namespace cwsim
{
namespace svc
{

namespace
{

/**
 * Resolve a workloads selector ("all"/"int"/"fp"/comma list of
 * full or short names) into full names in suite order.
 */
bool
resolveWorkloads(const std::string &selector, const std::string &filter,
                 std::vector<std::string> &out, std::string &err)
{
    const std::vector<std::string> &all = workloads::allNames();
    std::vector<std::string> picked;
    std::string sel = trim(selector);
    if (sel.empty() || sel == "all") {
        picked = all;
    } else if (sel == "int") {
        picked = workloads::intNames();
    } else if (sel == "fp") {
        picked = workloads::fpNames();
    } else {
        // Comma list of full ("129.compress") or short ("129") names;
        // results keep suite order regardless of list order.
        std::vector<std::string> wanted;
        for (const std::string &raw : split(sel, ',')) {
            std::string tok = trim(raw);
            if (tok.empty())
                continue;
            auto match = std::find_if(
                all.begin(), all.end(), [&](const std::string &name) {
                    return name == tok ||
                           name.substr(0, name.find('.')) == tok;
                });
            if (match == all.end()) {
                err = strfmt("unknown workload '%s'", tok.c_str());
                return false;
            }
            wanted.push_back(*match);
        }
        for (const std::string &name : all) {
            if (std::find(wanted.begin(), wanted.end(), name) !=
                wanted.end()) {
                picked.push_back(name);
            }
        }
    }

    for (const std::string &name : picked) {
        if (filter.empty() ||
            name.find(filter) != std::string::npos) {
            out.push_back(name);
        }
    }
    if (out.empty()) {
        err = filter.empty()
            ? "no workloads selected"
            : strfmt("no workload matches filter '%s'",
                     filter.c_str());
        return false;
    }
    return true;
}

/**
 * Apply one ','-separated override set on top of the default machine.
 * config_parse treats bad keys/values as user errors (fatal()); the
 * error trap converts those into a SimError this catches, so a bogus
 * spec is a rejection, not a dead server.
 */
bool
buildConfig(const std::string &overrides, const std::string &extra,
            SimConfig &out, std::string &err)
{
    try {
        ScopedErrorTrap trap;
        SimConfig cfg;
        for (const std::string &raw : split(overrides, ',')) {
            std::string opt = trim(raw);
            if (!opt.empty())
                applyConfigOption(cfg, opt);
        }
        for (const std::string &raw : split(extra, ',')) {
            std::string opt = trim(raw);
            if (!opt.empty())
                applyConfigOption(cfg, opt);
        }
        out = cfg;
        return true;
    } catch (const SimError &e) {
        err = e.summary();
        return false;
    }
}

} // anonymous namespace

std::vector<sweep::SweepJob>
SweepSpec::jobs() const
{
    std::vector<sweep::SweepJob> list;
    list.reserve(runCount());
    for (const std::string &w : workloads) {
        for (const SimConfig &cfg : configs)
            list.push_back({w, cfg});
    }
    return list;
}

bool
parseSweepSpec(const std::map<std::string, std::string> &fields,
               SweepSpec &out, std::string &err)
{
    SweepSpec spec;
    spec.id = field(fields, "id");
    if (spec.id.empty()) {
        err = "submit requires an id";
        return false;
    }

    std::string selector = field(fields, "workloads");
    std::string configsText = field(fields, "configs");
    std::string preset = field(fields, "preset");
    if (!preset.empty()) {
        if (preset == "fig2") {
            // The paper's Figure 2 matrix: naive speculation (NAV)
            // against the no-speculation and oracle bounds, all under
            // the NAS LSQ model — byte-identical fingerprints to
            // bench/fig2_naive_speculation.
            if (selector.empty())
                selector = "all";
            configsText = "mdp.lsqModel=NAS,mdp.policy=NO;"
                          "mdp.lsqModel=NAS,mdp.policy=ORACLE;"
                          "mdp.lsqModel=NAS,mdp.policy=NAV";
        } else {
            err = strfmt("unknown preset '%s'", preset.c_str());
            return false;
        }
    }

    std::string scaleText = field(fields, "scale");
    if (!scaleText.empty()) {
        if (!parseUnsigned(scaleText, spec.scale) ||
            spec.scale < workloads::min_scale) {
            err = strfmt("bad scale '%s' (minimum %llu)", scaleText.c_str(),
                         (unsigned long long)workloads::min_scale);
            return false;
        }
    }
    std::string intervalText = field(fields, "interval");
    if (!intervalText.empty() &&
        !parseUnsigned(intervalText, spec.intervalCycles)) {
        err = strfmt("bad interval '%s'", intervalText.c_str());
        return false;
    }

    if (!resolveWorkloads(selector, field(fields, "filter"),
                          spec.workloads, err)) {
        return false;
    }

    std::string extra = field(fields, "set");
    std::vector<std::string> sets = split(configsText, ';');
    if (trim(configsText).empty())
        sets = {""}; // one default-machine config
    for (const std::string &overrides : sets) {
        SimConfig cfg;
        if (!buildConfig(overrides, extra, cfg, err))
            return false;
        spec.configs.push_back(cfg);
    }

    out = std::move(spec);
    return true;
}

} // namespace svc
} // namespace cwsim
