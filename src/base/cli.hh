/**
 * @file
 * One command-line parser for every program. A program declares each
 * flag once, as a CliFlag row bound to its options struct; parseCli()
 * walks argv against the rows, and the same rows give --help
 * (cliHelp), the numeric bounds, the environment defaults and the
 * error messages. Value flags take "--flag value" and "--flag=value";
 * a switch takes no value, and "--switch=value" is refused. A count
 * is parseUnsigned() digits within its row's bounds, a duration
 * parseSeconds(). A malformed argument yields an error
 * string, and each program picks its error path: fatal() for the
 * benches (parseCliOrFatal), "prog: message" and exit 2 for the tools
 * (svc::parseToolArgs). --help and --version end the walk as a
 * CliRequest, never an exit.
 */

#ifndef CWSIM_BASE_CLI_HH
#define CWSIM_BASE_CLI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace cwsim
{

/** What a command line asks the program to do. */
enum class CliRequest
{
    Run,
    Help,    ///< Print cliHelp() and exit 0.
    Version, ///< Print the program's identity and exit 0.
};

/**
 * Where a row's value goes; its type is the row's kind: a switch
 * (bool *, stores CliFlag::sets), text, repeatable text (appended in
 * order), a bounded count (uint64_t * or unsigned *, the latter at
 * most 2^32-1), seconds (double *), or a request that ends the walk.
 */
using CliTarget =
    std::variant<bool *, std::string *, std::vector<std::string> *,
                 uint64_t *, unsigned *, double *, CliRequest>;

/** One flag: its names, value kind, bounds, help and environment. */
struct CliFlag
{
    const char *name;            ///< "--jobs".
    const char *alias = nullptr; ///< "-j"; takes no inline value.
    const char *meta = nullptr;  ///< The value's name in --help ("N").
    CliTarget to;
    bool required = false; ///< Text: refused when empty after the walk.
    uint64_t min = 0;      ///< Counts: inclusive bounds.
    uint64_t max = std::numeric_limits<uint64_t>::max();
    bool positive = false;   ///< Seconds: refuse 0.
    bool sets = true;        ///< Switches: the value stored.
    bool *implies = nullptr; ///< Also set to true when the flag is given.
    /**
     * Read before argv as the default (a switch's as a count, on when
     * non-zero); a malformed value warns and keeps the default.
     */
    const char *env = nullptr;
    /** Read by a library, not the parser; --help only names it. */
    const char *libEnv = nullptr;
    const char *help;
};

/** The --help and --version rows, as every program spells them. */
inline const CliFlag cli_help{.name = "--help", .alias = "-h",
                              .to = CliRequest::Help,
                              .help = "this message"};
inline const CliFlag cli_version{.name = "--version",
                                 .to = CliRequest::Version,
                                 .help = "print schema/protocol/build "
                                         "identity"};

/** A program's command line. */
struct CliSpec
{
    std::vector<std::string> usage; ///< Synopses, after "usage: PROG".
    const char *about = nullptr;    ///< Paragraph before the flags.
    std::vector<CliFlag> flags;
    /** Where non-flag arguments ("-" too) go; null = refuse them. */
    std::vector<std::string> *operands = nullptr;
};

/**
 * Apply every row's env default, then walk @p argv (argv[0] is the
 * program) in order. @return false with @p err set at the first
 * malformed argument (an unknown option's message carries the --help
 * text) or a required row left empty. @p request is Help or Version
 * when such a row ended the walk.
 */
bool parseCli(const CliSpec &spec, int argc, const char *const *argv,
              CliRequest &request, std::string &err);

/** parseCli() whose rejections are fatal() (exit 1, or a SimError). */
CliRequest parseCliOrFatal(const CliSpec &spec, int argc,
                           const char *const *argv);

/** The --help text: synopsis, paragraph, one line per row. */
std::string cliHelp(const CliSpec &spec, const char *prog);

} // namespace cwsim

#endif // CWSIM_BASE_CLI_HH
