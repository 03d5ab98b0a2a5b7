#include "svc/client.hh"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/jsonl.hh"
#include "base/str.hh"
#include "svc/protocol.hh"

namespace cwsim
{
namespace svc
{

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    inBuf.clear();
}

bool
Client::connectUnix(const std::string &path, std::string *err)
{
    ::signal(SIGPIPE, SIG_IGN);
    struct sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = strfmt("socket path too long: %s", path.c_str());
        return false;
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        if (err)
            *err = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (err)
            *err = strfmt("connect %s: %s", path.c_str(),
                          std::strerror(errno));
        close();
        return false;
    }
    return true;
}

bool
Client::sendLine(const std::string &line, std::string *err)
{
    std::string data = line;
    data += '\n';
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = strfmt("send: %s", std::strerror(errno));
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
Client::nextEvent(std::map<std::string, std::string> &ev,
                  std::string *err)
{
    if (err)
        err->clear();
    for (;;) {
        if (takeLine(inBuf, last)) {
            if (trim(last).empty())
                continue;
            ev.clear();
            if (!parseFlatJson(last, ev)) {
                if (err)
                    *err = strfmt("unparseable event: %s",
                                  last.c_str());
                return false;
            }
            return true;
        }
        char buf[65536];
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            inBuf.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && err)
            *err = strfmt("recv: %s", std::strerror(errno));
        return false; // EOF (err empty) or hard error
    }
}

CliSpec
clientCli(ClientArgs &a)
{
    return {
        .usage = {"--socket PATH [options]"},
        .flags = {
            {.name = "--socket", .meta = "PATH", .to = &a.socketPath,
             .required = true, .help = "connect to a cwsimd Unix socket"},
            {.name = "--id", .meta = "S", .to = &a.id,
             .help = "sweep identifier (default: sweep)"},
            {.name = "--preset", .meta = "P", .to = &a.preset,
             .help = "named plan (fig2)"},
            {.name = "--workloads", .meta = "W", .to = &a.workloads,
             .help = "all | int | fp | comma-separated names"},
            {.name = "--filter", .meta = "SUB", .to = &a.filter,
             .help = "only workloads whose name contains SUB"},
            {.name = "--scale", .meta = "N", .to = &a.scale,
             .help = "dynamic-instruction target"},
            {.name = "--config", .meta = "OPTS", .to = &a.configs,
             .help = "one config as comma-separated key=value overrides; "
                     "repeat for more configs"},
            {.name = "--set", .meta = "K=V", .to = &a.sets,
             .help = "apply an override to every config (repeatable)"},
            {.name = "--interval", .meta = "N", .to = &a.interval,
             .help = "stream interval samples every N cycles"},
            {.name = "--interval-file", .meta = "P", .to = &a.intervalPath,
             .help = "write streamed samples to P"},
            {.name = "--json", .meta = "PATH", .to = &a.jsonPath,
             .help = "append one JSONL record per run to PATH"},
            {.name = "--stats", .to = &a.stats,
             .help = "print server stats and exit"},
            {.name = "--shutdown", .to = &a.shutdown,
             .help = "ask the server to drain and exit"},
            {.name = "--quiet", .to = &a.quiet,
             .help = "no per-run progress lines"},
            cli_version,
            cli_help,
        },
    };
}

std::string
submitRequest(const ClientArgs &a)
{
    // By position, so an empty part still counts: --config "" is the
    // default machine wherever it stands.
    auto join = [](const std::vector<std::string> &parts, char sep) {
        std::string out;
        for (size_t i = 0; i < parts.size(); ++i)
            out += (i ? std::string(1, sep) : "") + parts[i];
        return out;
    };
    JsonObject req;
    req.add("cmd", "submit").add("id", a.id);
    for (const auto &[key, value] :
         {std::pair<const char *, std::string>{"preset", a.preset},
          {"workloads", a.workloads}, {"filter", a.filter},
          {"scale", a.scale}, {"configs", join(a.configs, ';')},
          {"set", join(a.sets, ',')}, {"interval", a.interval}}) {
        if (!value.empty())
            req.add(key, value);
    }
    return req.str();
}

} // namespace svc
} // namespace cwsim
