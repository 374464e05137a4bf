/**
 * @file
 * Tiny command-line argument parser for the tools and examples:
 * GNU-style `--flag`, `--key value`, and `--key=value` options with
 * typed accessors, defaults, and generated usage text. No external
 * dependencies, deliberately minimal.
 */

#ifndef WLCACHE_UTIL_ARG_PARSER_HH
#define WLCACHE_UTIL_ARG_PARSER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wlcache {
namespace util {

/** Declarative option list + parsed values. */
class ArgParser
{
  public:
    /**
     * @param program Program name for the usage text.
     * @param summary One-line description.
     */
    ArgParser(std::string program, std::string summary);

    /** Declare an option taking a value, with a default. */
    ArgParser &option(const std::string &name,
                      const std::string &default_value,
                      const std::string &help);

    /** Declare a boolean flag (default false). */
    ArgParser &flag(const std::string &name, const std::string &help);

    /**
     * Declare a list-valued option: every occurrence appends, and a
     * value may itself carry a comma-separated list, so
     * `--objective time --objective nvm,energy` collects
     * {time, nvm, energy}. Scalar options silently keep the last
     * occurrence; list options exist for the flags where all
     * occurrences matter.
     */
    ArgParser &listOption(const std::string &name,
                          const std::string &help);

    /**
     * Parse argv. Returns false (after printing usage or an error)
     * when the caller should exit; `--help` is handled here.
     */
    bool parse(int argc, char **argv);

    // --- Typed accessors (fatal() on unknown names; getInt and
    // getDouble also on a value that is not one in-range number) ---
    std::string get(const std::string &name) const;
    long getInt(const std::string &name) const;
    /** getInt() for a count: fatal() on a negative value. */
    std::uint64_t getCount(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;
    /** Collected values of a list option (empty when never given). */
    const std::vector<std::string> &
    getList(const std::string &name) const;

    /** Positional arguments left after option parsing. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Render the usage text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string name;
        std::string value;
        std::string help;
        bool is_flag;
        bool is_list = false;
        std::vector<std::string> values;  //!< List-option payload.
    };

    Option *find(const std::string &name);
    const Option *find(const std::string &name) const;

    std::string program_;
    std::string summary_;
    std::vector<Option> options_;
    std::vector<std::string> positional_;
};

} // namespace util
} // namespace wlcache

#endif // WLCACHE_UTIL_ARG_PARSER_HH
