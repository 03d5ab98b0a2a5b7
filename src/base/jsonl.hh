/**
 * @file
 * Minimal JSON-lines helpers: building one flat JSON object per line
 * (run-cache entries, exported results, dependence-profile records)
 * and parsing such lines back. This is deliberately not a general
 * JSON parser — objects are flat (no nesting, no arrays), which is
 * all the writers emit — but the parser is defensive: a malformed or
 * truncated line yields false rather than garbage, so a corrupted
 * file degrades to a miss/skip instead of an abort.
 *
 * Lives in base/ because the dependence profiler (obs/depprof,
 * mdp/dep_profile) needs the same wire format below the sweep layer.
 */

#ifndef CWSIM_BASE_JSONL_HH
#define CWSIM_BASE_JSONL_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cwsim
{

/** Escape @p s for use inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Incrementally build one flat JSON object. Fields appear in insertion
 * order, so equal field sequences yield byte-identical lines —
 * required for the determinism guarantee on exported JSONL.
 */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, const std::string &value);
    JsonObject &add(const std::string &key, const char *value);
    JsonObject &add(const std::string &key, uint64_t value);
    JsonObject &add(const std::string &key, double value);
    JsonObject &add(const std::string &key, bool value);

    /** The finished single-line object, e.g. {"a":"x","n":3}. */
    std::string str() const;

  private:
    std::vector<std::string> fields;
};

/**
 * Parse one flat JSON object line into key -> raw value text. String
 * values are unescaped; numbers/booleans are returned as their
 * literal text ("123", "0.5", "true"). Returns false on malformed
 * input (including nested objects/arrays, which we never write).
 */
bool parseFlatJson(const std::string &line,
                   std::map<std::string, std::string> &out);

} // namespace cwsim

#endif // CWSIM_BASE_JSONL_HH
