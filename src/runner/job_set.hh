/**
 * @file
 * A batch of independent experiments. JobSet turns a sequence of
 * ExperimentSpecs into jobs with stable IDs: the submission index
 * orders the result vector (parallel execution returns results in
 * exactly this order), the content key addresses the result cache,
 * and the human-readable id labels progress lines and the manifest.
 */

#ifndef WLCACHE_RUNNER_JOB_SET_HH
#define WLCACHE_RUNNER_JOB_SET_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "nvp/experiment.hh"

namespace wlcache {
namespace runner {

/** One schedulable experiment. */
struct Job
{
    std::size_t index = 0;    //!< Submission order == result slot.
    std::string id;           //!< Stable human-readable identifier.
    std::string key;          //!< Content-addressed cache key.
    nvp::ExperimentSpec spec;
    /**
     * Resume point (may be null; verification campaigns). Purely an
     * accelerator: a resumed run is observationally identical to a
     * cold one, so attaching a resume snapshot never changes the
     * cache key.
     */
    std::shared_ptr<const nvp::SystemSnapshot> resume;
};

class JobSet
{
  public:
    /**
     * Append one experiment.
     * @param spec The experiment to run.
     * @param label Optional id; defaults to
     *              "<index>:<design>/<workload>@<power>".
     * @param resume Optional resume snapshot (key unchanged; see Job).
     * @return the job's submission index.
     */
    std::size_t add(nvp::ExperimentSpec spec, std::string label = "",
                    std::shared_ptr<const nvp::SystemSnapshot> resume = {});

    std::size_t size() const { return jobs_.size(); }
    bool empty() const { return jobs_.empty(); }

    const Job &operator[](std::size_t i) const { return jobs_[i]; }
    const std::vector<Job> &jobs() const { return jobs_; }

  private:
    std::vector<Job> jobs_;
};

} // namespace runner
} // namespace wlcache

#endif // WLCACHE_RUNNER_JOB_SET_HH
