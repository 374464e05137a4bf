/**
 * @file
 * Reproduces paper Figure 9: per-application sensitivity of WL-Cache
 * to the maxline threshold (2/4/6/8) under both FIFO and LRU *cache*
 * replacement, normalized to NVSRAM(ideal), Power Trace 1. Static
 * thresholds (adaptive management off), DQ-FIFO, as in the paper's
 * sweep. The sweep itself is two declarative axis expansions through
 * the explore subsystem — the baseline over workloads, the WL grid
 * over (workload x replacement x maxline).
 */

#include "bench/speedup_figure.hh"
#include "sim/logging.hh"

using namespace wlcache;
using namespace wlcache::bench;

int
main()
{
    setQuiet(true);
    const SpeedupTable table = maxlineFigure();
    table.print();
    table.maybeWriteCsv("fig9");
    return 0;
}
