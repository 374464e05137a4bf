/**
 * @file
 * Figure drivers shared by the bench harnesses and paper_shape_test.
 * The Figure 4/5/6 driver runs every cache design over all 23
 * applications in one energy environment, normalizes to
 * NVSRAM(ideal), and prints the per-app speedup series exactly as the
 * paper's bar charts report them; the Figure 8b, 9 and 13a drivers
 * return their numbers without printing.
 */

#ifndef WLCACHE_BENCH_SPEEDUP_FIGURE_HH
#define WLCACHE_BENCH_SPEEDUP_FIGURE_HH

#include <string>

#include "bench/bench_common.hh"

namespace wlcache {
namespace bench {

/**
 * Run the full design-comparison sweep.
 * @param title Figure caption.
 * @param slug CSV slug.
 * @param power Environment (ignored when no_failure).
 * @param no_failure Infinite power (Figure 4).
 * @return the populated table (already printed).
 */
SpeedupTable runSpeedupFigure(const std::string &title,
                              const std::string &slug,
                              energy::TraceKind power, bool no_failure);

/**
 * Figure 8b: gmean speedup over NVSRAM(ideal) of WL-Cache with
 * @p assoc-way I- and D-caches (their access energy scaled for the
 * extra tag compares).
 */
double associativityGmean(unsigned assoc, energy::TraceKind power,
                          bool no_failure);

/**
 * Figure 9: WL-Cache with static maxline 2/4/6/8 under FIFO and LRU
 * cache replacement, over NVSRAM(ideal), Power Trace 1. Series are
 * named "FIFO@2" .. "LRU@8"; the table is not printed.
 */
SpeedupTable maxlineFigure();

/** One design's Figure 13a entry under one power trace. */
struct TraceGmean
{
    double speedup;  //!< gmean over NVSRAM(ideal).
    double outages;  //!< Mean power failures per application.
};

/** Figure 13a: @p design (WL-Cache(dyn) when @p dyn) under @p power. */
TraceGmean traceGmean(nvp::DesignKind design, energy::TraceKind power,
                      bool dyn);

} // namespace bench
} // namespace wlcache

#endif // WLCACHE_BENCH_SPEEDUP_FIGURE_HH
