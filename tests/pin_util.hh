/**
 * @file
 * Helpers for the tests that pin an output stream by its line count
 * and digest.
 */

#ifndef CWSIM_TESTS_PIN_UTIL_HH
#define CWSIM_TESTS_PIN_UTIL_HH

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

namespace cwsim
{

/** The whole file at @p path ("" when it cannot be read). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** 64-bit FNV-1a over @p text. */
inline uint64_t
fnv1a64(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace cwsim

#endif // CWSIM_TESTS_PIN_UTIL_HH
