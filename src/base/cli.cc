#include "base/cli.hh"

#include <algorithm>
#include <cstdlib>

#include "base/logging.hh"
#include "base/str.hh"

namespace cwsim
{

namespace
{

/** Parse @p text into @p f's target; false with @p err set. */
bool
store(const CliFlag &f, const std::string &text, std::string &err)
{
    if (auto s = std::get_if<std::string *>(&f.to)) {
        **s = text;
    } else if (auto list = std::get_if<std::vector<std::string> *>(&f.to)) {
        (*list)->push_back(text);
    } else if (auto d = std::get_if<double *>(&f.to)) {
        double v = 0;
        if (!parseSeconds(text, v)) {
            err = strfmt("%s: not a non-negative number of seconds: '%s'",
                         f.name, text.c_str());
        } else if (f.positive && v == 0) {
            err = strfmt("%s: must be positive", f.name);
        } else {
            **d = v;
        }
    } else {
        auto narrow = std::get_if<unsigned *>(&f.to);
        uint64_t max = narrow ? std::min<uint64_t>(f.max, ~0u) : f.max;
        uint64_t v = 0;
        if (!parseUnsigned(text, v)) {
            err = strfmt("%s: not an unsigned integer: '%s'", f.name,
                         text.c_str());
        } else if (v < f.min || v > max) {
            err = strfmt("%s: must be %s %llu (got %llu)", f.name,
                         v < f.min ? ">=" : "<=",
                         static_cast<unsigned long long>(
                             v < f.min ? f.min : max),
                         static_cast<unsigned long long>(v));
        } else if (narrow) {
            **narrow = static_cast<unsigned>(v);
        } else if (auto on = std::get_if<bool *>(&f.to)) {
            if (v != 0)
                **on = f.sets;
        } else {
            *std::get<uint64_t *>(f.to) = v;
        }
    }
    return err.empty();
}

} // anonymous namespace

bool
parseCli(const CliSpec &spec, int argc, const char *const *argv,
         CliRequest &request, std::string &err)
{
    request = CliRequest::Run;
    err.clear();
    // Environment defaults first; a malformed one warns and is ignored.
    for (const CliFlag &f : spec.flags) {
        const char *text = f.env ? std::getenv(f.env) : nullptr;
        if (text && *text && !store(f, text, err)) {
            warn("ignoring %s=%s (%s)", f.env, text, err.c_str());
            err.clear();
        }
    }

    for (int i = 1; i < argc; ++i) {
        // "--flag=value" names its flag before the '='.
        std::string arg = argv[i];
        size_t eq = startsWith(arg, "--") ? arg.find('=') : arg.npos;
        auto f = std::find_if(
            spec.flags.begin(), spec.flags.end(), [&](const CliFlag &row) {
                return arg.compare(0, eq, row.name) == 0 ||
                       (row.alias && arg == row.alias);
            });
        if (f == spec.flags.end()) {
            if (spec.operands &&
                (arg.empty() || arg == "-" || arg[0] != '-')) {
                spec.operands->push_back(arg);
                continue;
            }
            err = strfmt("unknown option '%s'\n%s", arg.c_str(),
                         cliHelp(spec, argv[0]).c_str());
            return false;
        }
        if (auto r = std::get_if<CliRequest>(&f->to)) {
            request = *r;
            return true;
        }
        if (auto on = std::get_if<bool *>(&f->to)) {
            if (eq != arg.npos) {
                err = strfmt("%s takes no value", f->name);
                return false;
            }
            **on = f->sets;
        } else if (eq == arg.npos && i + 1 >= argc) {
            err = strfmt("%s requires a value", f->name);
            return false;
        } else if (!store(*f, eq == arg.npos ? argv[++i] : arg.substr(eq + 1),
                          err)) {
            return false;
        }
        if (f->implies)
            *f->implies = true;
    }
    for (const CliFlag &f : spec.flags) {
        if (f.required && std::get<std::string *>(f.to)->empty()) {
            err = strfmt("%s %s is required", f.name, f.meta);
            return false;
        }
    }
    return true;
}

CliRequest
parseCliOrFatal(const CliSpec &spec, int argc, const char *const *argv)
{
    CliRequest request = CliRequest::Run;
    std::string err;
    fatal_if(!parseCli(spec, argc, argv, request, err), "%s", err.c_str());
    return request;
}

std::string
cliHelp(const CliSpec &spec, const char *prog)
{
    std::string out;
    for (size_t i = 0; i < spec.usage.size(); ++i) {
        out += strfmt("%s %s %s\n", i ? "      " : "usage:", prog,
                      spec.usage[i].c_str());
    }
    if (spec.about)
        out += strfmt("\n%s\n", spec.about);
    out += "\n";
    bool envs = false;
    for (const CliFlag &f : spec.flags) {
        std::string flag = std::string(f.name) +
                           (f.meta ? std::string(" ") + f.meta : "") +
                           (f.alias ? std::string(", ") + f.alias : "");
        out += strfmt("  %-20s %s", flag.c_str(), f.help);
        if (f.required)
            out += " (required)";
        if (f.min > 0)
            out += strfmt(" (min %llu)", (unsigned long long)f.min);
        if (const char *env = f.env ? f.env : f.libEnv) {
            out += strfmt(" [%s]", env);
            envs = true;
        }
        out += "\n";
    }
    out += "\nValue flags also take --flag=value.";
    if (envs)
        out += " [VAR] is the environment variable\nread when the flag "
               "is absent.";
    return out + "\n";
}

} // namespace cwsim
