#include "runner/job_set.hh"

#include <sstream>

#include "runner/spec_key.hh"

namespace wlcache {
namespace runner {

std::size_t
JobSet::add(nvp::ExperimentSpec spec, std::string label)
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
    jobs_.push_back(std::move(job));
    return jobs_.back().index;
}

void
JobSet::setResume(std::size_t i,
                  std::shared_ptr<const nvp::SystemSnapshot> resume)
{
    jobs_.at(i).resume = std::move(resume);
}

} // namespace runner
} // namespace wlcache
