#include "svc/protocol.hh"

#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"
#include "base/str.hh"
#include "sweep/run_cache.hh"

#ifndef CWSIM_BUILD_TYPE
#define CWSIM_BUILD_TYPE "unknown"
#endif

namespace cwsim
{
namespace svc
{

std::string
versionLine(const char *tool)
{
    const char *build = CWSIM_BUILD_TYPE;
    return strfmt("%s (cwsim record-schema v%llu, protocol v%u, %s "
                  "build)",
                  tool,
                  (unsigned long long)sweep::run_record_version,
                  protocol_version,
                  build[0] ? build : "unknown");
}

int
toolError(const char *tool, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", tool, msg.c_str());
    return 2;
}

void
parseToolArgs(const CliSpec &spec, int argc, char **argv, const char *tool)
{
    CliRequest request = CliRequest::Run;
    std::string err;
    if (!parseCli(spec, argc, argv, request, err))
        std::exit(toolError(tool, err));
    if (request == CliRequest::Run)
        return;
    std::fputs(request == CliRequest::Help
                   ? cliHelp(spec, argv[0]).c_str()
                   : (versionLine(tool) + "\n").c_str(),
               stdout);
    std::exit(0);
}

std::string
mergeJson(const std::string &base, const std::string &extra)
{
    // {"a":1} + {"b":2} -> {"a":1,"b":2}; an empty side passes the
    // other through untouched.
    panic_if(base.size() < 2 || base.front() != '{' ||
                 base.back() != '}',
             "mergeJson: not a flat object: %s", base.c_str());
    panic_if(extra.size() < 2 || extra.front() != '{' ||
                 extra.back() != '}',
             "mergeJson: not a flat object: %s", extra.c_str());
    if (extra.size() == 2)
        return base;
    if (base.size() == 2)
        return extra;
    return base.substr(0, base.size() - 1) + "," + extra.substr(1);
}

bool
takeLine(std::string &buf, std::string &line)
{
    size_t nl = buf.find('\n');
    if (nl == std::string::npos)
        return false;
    line = buf.substr(0, nl);
    if (!line.empty() && line.back() == '\r')
        line.pop_back(); // tolerate CRLF from telnet-style probes
    buf.erase(0, nl + 1);
    return true;
}

} // namespace svc
} // namespace cwsim
