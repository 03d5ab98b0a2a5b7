/**
 * @file
 * Minimal printf-style string formatting used by logging and tables.
 */

#ifndef CWSIM_BASE_STR_HH
#define CWSIM_BASE_STR_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace cwsim
{

/**
 * Format a string printf-style into a std::string.
 *
 * @param fmt printf format string.
 * @return The formatted string.
 */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Split @p s on the separator character, keeping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * The last (up to) @p n non-empty lines of @p s, newline-joined, no
 * trailing newline. Used to attach the tail of a diagnostic dump
 * (flight-recorder events) to failure summaries.
 */
std::string lastLines(const std::string &s, size_t n);

/**
 * Parse @p text as an unsigned integer in @p base (10 or 16): digits
 * of that base only — no sign, whitespace, "0x" prefix or trailing
 * junk, so "-1" cannot wrap to 2^64-1 and "010" is ten, not octal —
 * and at most @p max. The one unsigned parser behind every config,
 * CLI, record and profile reader. @return false, leaving @p out
 * untouched, when @p text is not such a number.
 */
bool parseUnsigned(std::string_view text, uint64_t &out,
                   unsigned base = 10,
                   uint64_t max = std::numeric_limits<uint64_t>::max());

/**
 * Parse @p text as a finite decimal floating-point number ("-2",
 * "0.5", "1e3"): the whole string — no whitespace, '+' sign, hex,
 * "inf", "nan", trailing junk or overflow. The one float parser
 * behind every config, assembly, record and profile reader.
 * @return false, leaving @p out untouched, when @p text is not such a
 * number.
 */
bool parseDouble(std::string_view text, double &out);

/** The longest duration parseSeconds() accepts (about 31 years). */
constexpr double max_seconds = 1e9;

/**
 * Parse @p text as a duration in seconds: a parseDouble() number
 * that is not negative (no '-' sign, even on zero) and at most
 * max_seconds, so a deadline in microseconds always fits an int64.
 * The one seconds parser behind every CLI flag and environment knob
 * that takes a duration; callers that need a positive value reject 0
 * themselves. @return false, leaving @p out untouched, when @p text
 * is not such a number.
 */
bool parseSeconds(std::string_view text, double &out);

/**
 * Read an unsigned integer from the environment, with validation.
 *
 * Returns @p fallback when @p name is unset. Values parseUnsigned()
 * rejects and values below @p min are rejected with a warn() and fall
 * back too, so every knob read from the environment (CWSIM_SCALE,
 * CWSIM_JOBS, ...) reports bad input the same way.
 */
uint64_t envUint64(const char *name, uint64_t min, uint64_t fallback);

} // namespace cwsim

#endif // CWSIM_BASE_STR_HH
