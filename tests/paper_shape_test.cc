/**
 * @file
 * Gate on the paper's headline shapes: the orderings of the Figure
 * 4/5/6 speedups over NVSRAM(ideal), as gmeans over all 23 apps. The
 * tests assert orderings, not values, so a change that moves a number
 * passes unless it flips a conclusion the paper draws. Only the Total
 * gmean is used: the per-suite gmeans are closer (in Figure 6,
 * VCache-WT's MiBench gmean is above WL-Cache's).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bench/speedup_figure.hh"
#include "sim/logging.hh"

using namespace wlcache;

namespace {

/** Total gmeans of one speedup figure. */
struct Gmeans
{
    double wl, replay, wt, nvc;
};

Gmeans
figure(const std::string &slug, energy::TraceKind power,
       bool no_failure)
{
    setQuiet(true);
    const bench::SpeedupTable t =
        bench::runSpeedupFigure(slug, slug, power, no_failure);
    return { t.gmean("WL-Cache"), t.gmean("ReplayCache"),
             t.gmean("VCache-WT"), t.gmean("NVCache-WB") };
}

/** The measured gmeans, printed with a failed assertion. */
std::string
describe(const Gmeans &g)
{
    std::ostringstream os;
    os << "gmean(Total): WL-Cache " << g.wl << ", ReplayCache "
       << g.replay << ", VCache-WT " << g.wt << ", NVCache-WB "
       << g.nvc;
    return os.str();
}

/** WL-Cache beats NVCache-WB by at least 2x (every figure). */
void
expectWlDoublesNvCache(const Gmeans &g)
{
    EXPECT_GE(g.wl, 2.0 * g.nvc) << describe(g);
}

/** Under a power trace: WL > ReplayCache > VCache-WT, and WL > 1. */
void
expectFailureOrdering(const Gmeans &g)
{
    EXPECT_GT(g.wl, g.replay) << describe(g);
    EXPECT_GT(g.replay, g.wt) << describe(g);
    EXPECT_GT(g.wl, 1.0) << describe(g);
    expectWlDoublesNvCache(g);
}

} // namespace

TEST(PaperShape, Fig4NoFailure)
{
    expectWlDoublesNvCache(
        figure("fig4", energy::TraceKind::Constant, true));
}

TEST(PaperShape, Fig5PowerTrace1)
{
    expectFailureOrdering(
        figure("fig5", energy::TraceKind::RfHome, false));
}

TEST(PaperShape, Fig6PowerTrace2)
{
    expectFailureOrdering(
        figure("fig6", energy::TraceKind::RfOffice, false));
}
