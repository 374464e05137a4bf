#include "runner/spec_key.hh"

#include <sstream>

#include "nvp/schema.hh"
#include "util/strings.hh"

namespace wlcache {
namespace runner {

std::string
specKeyText(const nvp::ExperimentSpec &spec)
{
    std::ostringstream os;
    os << "schema=" << kResultSchemaVersion << '\n';
    nvp::dumpFields(os, nvp::specFields(), &spec);
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
