/**
 * @file
 * Key=value configuration parsing, so machine configurations can live
 * in files and on command lines instead of in code.
 *
 *     # 256-entry window, SYNC, slower memory
 *     core.windowSize    = 256
 *     core.issueWidth    = 8
 *     mdp.lsqModel       = NAS
 *     mdp.policy         = SYNC
 *     mdp.recovery       = selective
 *     mem.memBaseLatency = 48
 *     maxInsts           = 500000
 *
 * Unknown keys and malformed values are user errors (fatal()), listing
 * the offending line. applyConfigOption() applies a single
 * "key=value" string (e.g. from argv) on top of an existing config.
 * The keys are those of serializeConfig() whose field has a parse
 * rule; a printed key without one is unknown here.
 */

#ifndef CWSIM_SIM_CONFIG_PARSE_HH
#define CWSIM_SIM_CONFIG_PARSE_HH

#include <string>
#include <vector>

#include "sim/config.hh"

namespace cwsim
{

/** Apply one "key=value" option to @p cfg; fatal() on bad input. */
void applyConfigOption(SimConfig &cfg, const std::string &option);

/** Parse a whole config text (newline-separated options, # comments). */
SimConfig parseConfigText(const std::string &text,
                          SimConfig base = SimConfig{});

/** Parse a config file. */
SimConfig parseConfigFile(const std::string &path,
                          SimConfig base = SimConfig{});

/** The recognized keys, for help output. */
std::vector<std::string> configKeys();

} // namespace cwsim

#endif // CWSIM_SIM_CONFIG_PARSE_HH
