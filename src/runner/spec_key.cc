#include "runner/spec_key.hh"

#include <sstream>

#include "nvp/schema.hh"
#include "util/strings.hh"

namespace wlcache {
namespace runner {

std::string
specKeyText(const nvp::ExperimentSpec &spec)
{
    std::ostringstream spec_os;
    nvp::dumpFields(spec_os, nvp::specFields(), &spec);
    std::string spec_lines = spec_os.str();
    // Schema-8 keys carry two retired spec lines after power_seed (a
    // per-node power trace that no run uses any more). Fixed text
    // keeps every cached record's key; drop it at the next
    // kResultSchemaVersion bump (8 -> 9).
    const std::size_t seed = spec_lines.find("\npower_seed=");
    spec_lines.insert(spec_lines.find('\n', seed + 1) + 1,
                      "power_node=0\npower_jitter=0\n");

    std::ostringstream os;
    os << "schema=" << kResultSchemaVersion << '\n' << spec_lines;
    // The configuration the run actually uses: design preset plus the
    // caller's tweak hook.
    nvp::dumpConfigKey(os, nvp::resolveConfig(spec));
    return os.str();
}

std::string
hashKeyText(const std::string &text)
{
    return util::fnv1a128Hex(text.data(), text.size());
}

std::string
specKey(const nvp::ExperimentSpec &spec)
{
    return hashKeyText(specKeyText(spec));
}

} // namespace runner
} // namespace wlcache
