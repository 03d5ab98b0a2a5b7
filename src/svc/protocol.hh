/**
 * @file
 * The cwsimd wire protocol: line-delimited flat JSON over a
 * Unix-domain stream socket.
 *
 * Every request and every event is ONE flat JSON object on ONE line —
 * the same no-nesting dialect the run cache and JSONL exporter speak
 * (base/jsonl.hh), so a run record can travel inside an event by
 * merging objects instead of nesting them.
 *
 * Requests carry a "cmd" field:
 *
 *   {"cmd":"hello"}                    capability/identity handshake
 *   {"cmd":"ping"}                     liveness probe
 *   {"cmd":"stats"}                    server counters snapshot
 *   {"cmd":"corpus"}                   stream the shared run corpus
 *   {"cmd":"submit","id":"s1", ...}    submit a sweep (svc/spec.hh)
 *   {"cmd":"shutdown"}                 ask the server to drain + exit
 *
 * Responses carry an "ev" field; a sweep's events all echo its "id":
 *
 *   {"ev":"hello","proto":2,"slots":N,"cache_dir":...,
 *    "cache_size":N,"scale":N}         handshake reply
 *   {"ev":"pong"}
 *   {"ev":"stats","slots":N,"draining":B, <registry>}
 *                                      the full metrics-registry
 *                                      snapshot (cwsimd_ and cwsim_
 *                                      keys) plus the two settings
 *                                      no metric carries
 *   {"ev":"accepted","id":...,"runs":N,"cached":N,"deduped":N,
 *    "queued":N}                       submit admitted (all-or-nothing)
 *   {"ev":"rejected","id":...,"reason":...}
 *   {"ev":"run","id":...,"seq":K,"total":N, <full run record>}
 *   {"ev":"interval","id":...,"seq":K, <one interval sample>}
 *   {"ev":"done","id":...,"runs":N,"failed":N,"injected":N}
 *   {"ev":"corpus_record", <full run record>} / {"ev":"corpus_done",...}
 *   {"ev":"error","reason":...}        malformed/oversized request
 *   {"ev":"shutdown"}                  server is draining; last event
 *
 * Framing rules: a request line longer than max_request_line is a
 * protocol violation — the server answers with an error event and
 * closes that session (an unbounded line is indistinguishable from a
 * garbage stream). A merely malformed line costs one error event and
 * the session lives on.
 */

#ifndef CWSIM_SVC_PROTOCOL_HH
#define CWSIM_SVC_PROTOCOL_HH

#include <cstddef>
#include <map>
#include <string>

namespace cwsim
{
namespace svc
{

/**
 * Protocol revision, echoed in the hello event. v2 dropped the stats
 * event's duplicate counters (their registry metrics carry them) and
 * the hello event's "isolate" key.
 */
constexpr unsigned protocol_version = 2;

/**
 * Longest request line a server accepts, newline excluded. Generous —
 * a submit naming every workload with a dozen override sets fits in a
 * few KiB — but bounded, so a misbehaving peer cannot balloon the
 * session buffer.
 */
constexpr size_t max_request_line = 64 * 1024;

/**
 * Merge two single-line flat JSON objects: every field of @p extra is
 * appended after the fields of @p base (caller guarantees key sets are
 * disjoint). This is how a run record rides inside a "run" event
 * without nesting: mergeJson(envelope, record).
 */
std::string mergeJson(const std::string &base,
                      const std::string &extra);

/**
 * Split one buffered line off @p buf (consuming through the newline)
 * into @p line. Returns false when @p buf holds no complete line yet.
 */
bool takeLine(std::string &buf, std::string &line);

/**
 * The shared --version line: "<tool> (cwsim record-schema vN,
 * protocol vM, <BuildType> build)". One implementation so a daemon
 * and the clients poking at it report comparable identities.
 */
std::string versionLine(const char *tool);

} // namespace svc
} // namespace cwsim

#endif // CWSIM_SVC_PROTOCOL_HH
