/**
 * @file
 * Client session for the cwsimd protocol: connect to a server's Unix
 * socket, send request lines, and iterate response events. Blocking
 * and single-threaded — the client side of this protocol has no
 * concurrency to manage, it writes a line and reads events until its
 * sweep is done.
 *
 * Shared by tools/cwsim-client.cc, `cwsim-report --connect`, and the
 * protocol tests.
 */

#ifndef CWSIM_SVC_CLIENT_HH
#define CWSIM_SVC_CLIENT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/cli.hh"

namespace cwsim
{
namespace svc
{

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept { *this = std::move(other); }
    Client &
    operator=(Client &&other) noexcept
    {
        if (this != &other) {
            close();
            fd = other.fd;
            other.fd = -1;
            inBuf = std::move(other.inBuf);
            last = std::move(other.last);
        }
        return *this;
    }

    /** Connect to a Unix-domain socket; false with @p err set. */
    bool connectUnix(const std::string &path, std::string *err);
    bool connected() const { return fd >= 0; }
    void close();

    /** Send one request line (newline appended). */
    bool sendLine(const std::string &line, std::string *err);

    /**
     * Block for the next event line and parse it into @p ev. Returns
     * false on EOF or error (EOF leaves @p err empty — a server
     * draining away is an ending, not a fault).
     */
    bool nextEvent(std::map<std::string, std::string> &ev,
                   std::string *err);

    /**
     * The raw line behind the most recent nextEvent() — run events are
     * re-exported to JSONL from this, envelope stripped by the caller.
     */
    const std::string &lastLine() const { return last; }

  private:
    int fd = -1;
    std::string inBuf;
    std::string last;
};

/** cwsim-client's command line. */
struct ClientArgs
{
    std::string socketPath;
    std::string id = "sweep";
    std::string preset, workloads, filter;
    /** Sent as given: the daemon's spec parser checks them. */
    std::string scale, interval;
    std::vector<std::string> configs, sets;
    std::string intervalPath, jsonPath;
    bool stats = false, shutdown = false, quiet = false;
};

/** cwsim-client's flags, bound to @p args. */
CliSpec clientCli(ClientArgs &args);

/** The submit request line cwsim-client sends for @p args. */
std::string submitRequest(const ClientArgs &args);

} // namespace svc
} // namespace cwsim

#endif // CWSIM_SVC_CLIENT_HH
