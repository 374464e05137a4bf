#include "runner/spec_key.hh"

#include <sstream>

#include "nvp/schema.hh"
#include "util/strings.hh"

namespace wlcache {
namespace runner {

namespace {

/** The schema line and the spec-level fields every key starts with. */
void
writeSpecPrefix(std::ostream &os, const nvp::ExperimentSpec &spec,
                bool resume)
{
    os << "schema=" << kResultSchemaVersion << '\n'
       << (resume ? "resume\n" : "");
    nvp::dumpFields(os, nvp::specFields(), &spec);
}

} // anonymous namespace

std::string
specKeyText(const nvp::ExperimentSpec &spec)
{
    std::ostringstream os;
    writeSpecPrefix(os, spec, false);
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

std::string
resumeKey(const nvp::ExperimentSpec &spec)
{
    std::ostringstream os;
    writeSpecPrefix(os, spec, true);
    nvp::dumpConfigKey(os, nvp::resumeNeutral(nvp::resolveConfig(spec)));
    return hashKeyText(os.str());
}

} // namespace runner
} // namespace wlcache
