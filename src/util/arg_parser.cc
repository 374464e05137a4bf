#include "util/arg_parser.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"
#include "util/strings.hh"

namespace wlcache {
namespace util {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

ArgParser &
ArgParser::option(const std::string &name,
                  const std::string &default_value,
                  const std::string &help)
{
    wlc_assert(find(name) == nullptr, "duplicate option --%s",
               name.c_str());
    options_.push_back({ name, default_value, help, false, false, {} });
    return *this;
}

ArgParser &
ArgParser::flag(const std::string &name, const std::string &help)
{
    wlc_assert(find(name) == nullptr, "duplicate flag --%s",
               name.c_str());
    options_.push_back({ name, "0", help, true, false, {} });
    return *this;
}

ArgParser &
ArgParser::listOption(const std::string &name, const std::string &help)
{
    wlc_assert(find(name) == nullptr, "duplicate option --%s",
               name.c_str());
    options_.push_back({ name, "", help, false, true, {} });
    return *this;
}

ArgParser::Option *
ArgParser::find(const std::string &name)
{
    for (auto &o : options_)
        if (o.name == name)
            return &o;
    return nullptr;
}

const ArgParser::Option *
ArgParser::find(const std::string &name) const
{
    return const_cast<ArgParser *>(this)->find(name);
}

bool
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            return false;
        }
        if (!startsWith(arg, "--")) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        Option *opt = find(arg);
        if (!opt) {
            std::fprintf(stderr, "%s: unknown option --%s\n%s",
                         program_.c_str(), arg.c_str(),
                         usage().c_str());
            return false;
        }
        if (opt->is_flag) {
            if (has_value) {
                std::fprintf(stderr,
                             "%s: flag --%s takes no value\n",
                             program_.c_str(), arg.c_str());
                return false;
            }
            // A char, not "1": GCC 12 warns a false -Wrestrict on
            // assigning this string literal here.
            opt->value = '1';
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "%s: option --%s needs a value\n",
                             program_.c_str(), arg.c_str());
                return false;
            }
            value = argv[++i];
        }
        if (opt->is_list) {
            for (const auto &item : split(value, ','))
                if (!item.empty())
                    opt->values.push_back(item);
        } else {
            opt->value = value;
        }
    }
    return true;
}

std::string
ArgParser::get(const std::string &name) const
{
    const Option *opt = find(name);
    if (!opt)
        fatal("unknown option '%s'", name.c_str());
    return opt->value;
}

namespace {

/** fatal() unless a strto*() call on option --@p name's @p text
 *  consumed all of it (ending at @p end) without leaving the range. */
void
checkNumber(const std::string &name, const std::string &text,
            const char *end)
{
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        fatal("option --%s: '%s' is not a number in range",
              name.c_str(), text.c_str());
}

} // anonymous namespace

long
ArgParser::getInt(const std::string &name) const
{
    const std::string text = get(name);
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(text.c_str(), &end, 0);
    checkNumber(name, text, end);
    return v;
}

std::uint64_t
ArgParser::getCount(const std::string &name) const
{
    const long v = getInt(name);
    if (v < 0)
        fatal("--%s must be >= 0, got %ld", name.c_str(), v);
    return static_cast<std::uint64_t>(v);
}

double
ArgParser::getDouble(const std::string &name) const
{
    const std::string text = get(name);
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    checkNumber(name, text, end);
    return v;
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return get(name) == "1";
}

const std::vector<std::string> &
ArgParser::getList(const std::string &name) const
{
    const Option *opt = find(name);
    if (!opt)
        fatal("unknown option '%s'", name.c_str());
    if (!opt->is_list)
        fatal("option '%s' is not a list option", name.c_str());
    return opt->values;
}

std::string
ArgParser::usage() const
{
    std::string out = program_ + " - " + summary_ + "\n\noptions:\n";
    for (const auto &o : options_) {
        std::string left = "  --" + o.name;
        if (!o.is_flag)
            left += " <v>";
        out += padRight(left, 28) + o.help;
        if (o.is_list)
            out += " (repeatable)";
        else if (!o.is_flag && !o.value.empty())
            out += " (default: " + o.value + ")";
        out += "\n";
    }
    return out;
}

} // namespace util
} // namespace wlcache
