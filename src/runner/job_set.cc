#include "runner/job_set.hh"

#include <sstream>

#include "runner/spec_key.hh"

namespace wlcache {
namespace runner {

std::size_t
JobSet::add(nvp::ExperimentSpec spec, std::string label,
            std::shared_ptr<const nvp::SystemSnapshot> resume)
{
    Job job;
    job.index = jobs_.size();
    if (label.empty()) {
        std::ostringstream id;
        id << job.index << ':' << nvp::designKindName(spec.design)
           << '/' << spec.workload << '@';
        if (spec.no_failure)
            id << "no-failure";
        else
            id << energy::traceKindName(spec.power);
        label = id.str();
    }
    job.id = std::move(label);
    job.key = specKey(spec);
    job.spec = std::move(spec);
    job.resume = std::move(resume);
    jobs_.push_back(std::move(job));
    return jobs_.back().index;
}

} // namespace runner
} // namespace wlcache
