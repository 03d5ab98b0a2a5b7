#include "sim/config.hh"

#include "base/logging.hh"

namespace cwsim
{

const char *
toString(LsqModel model)
{
    switch (model) {
      case LsqModel::NAS: return "NAS";
      case LsqModel::AS: return "AS";
    }
    panic("bad LsqModel");
}

const char *
toString(SpecPolicy policy)
{
    switch (policy) {
      case SpecPolicy::No: return "NO";
      case SpecPolicy::Naive: return "NAV";
      case SpecPolicy::Selective: return "SEL";
      case SpecPolicy::StoreBarrier: return "STORE";
      case SpecPolicy::SpecSync: return "SYNC";
      case SpecPolicy::Oracle: return "ORACLE";
    }
    panic("bad SpecPolicy");
}

std::string
configName(LsqModel model, SpecPolicy policy)
{
    return std::string(toString(model)) + "/" + toString(policy);
}

SimConfig
makeW128Config()
{
    return SimConfig{};
}

SimConfig
makeW64Config()
{
    SimConfig cfg;
    cfg.core.windowSize = 64;
    cfg.core.lsqSize = 64;
    cfg.core.storeBufferSize = 64;
    cfg.core.issueWidth = 4;
    cfg.core.commitWidth = 4;
    cfg.core.memPorts = 2;
    cfg.core.fuCopies = 2;
    return cfg;
}

SimConfig
makeWindowConfig(unsigned window_size)
{
    fatal_if(window_size == 0, "window size must be positive");
    SimConfig cfg;
    cfg.core.windowSize = window_size;
    cfg.core.lsqSize = window_size;
    cfg.core.storeBufferSize = window_size;
    return cfg;
}

SimConfig
withPolicy(SimConfig cfg, LsqModel model, SpecPolicy policy,
           Cycles as_latency)
{
    cfg.mdp.lsqModel = model;
    cfg.mdp.policy = policy;
    cfg.mdp.asLatency = as_latency;
    fatal_if(model == LsqModel::NAS && as_latency != 0,
             "address-scheduler latency is meaningless without AS");
    return cfg;
}

} // namespace cwsim
