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

} // namespace svc
} // namespace cwsim
