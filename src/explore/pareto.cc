#include "explore/pareto.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace wlcache {
namespace explore {

bool
dominates(const std::vector<double> &a, const std::vector<double> &b)
{
    wlc_assert(a.size() == b.size(),
               "objective vectors differ in length (%zu vs %zu)",
               a.size(), b.size());
    bool strictly = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > b[i])
            return false;
        if (a[i] < b[i])
            strictly = true;
    }
    return strictly;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<std::vector<double>> &objectives,
               const std::vector<std::string> &ids)
{
    wlc_assert(objectives.size() == ids.size());
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < objectives.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < objectives.size() && !dominated;
             ++j)
            dominated = j != i &&
                        dominates(objectives[j], objectives[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    std::sort(frontier.begin(), frontier.end(),
              [&](std::size_t a, std::size_t b) {
                  if (objectives[a] != objectives[b])
                      return objectives[a] < objectives[b];
                  return ids[a] < ids[b];
              });
    return frontier;
}

} // namespace explore
} // namespace wlcache
