/**
 * @file
 * Gate on the paper's headline shapes: the orderings of the Figure
 * 4/5/6 speedups over NVSRAM(ideal), as gmeans over all 23 apps, and
 * the Figure 8b, 9 and 13a shapes that bench_output.txt shows. The
 * tests assert orderings, not values, so a change that moves a number
 * passes unless it flips a conclusion the paper draws. Only the Total
 * gmean is used: the per-suite gmeans are closer (in Figure 6,
 * VCache-WT's MiBench gmean is above WL-Cache's). One TEST per
 * figure; each prints its measured values when it fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

/** Figure 8b: direct-mapped caches are the worst choice everywhere. */
TEST(PaperShape, Fig8bDirectMappedWorst)
{
    setQuiet(true);
    struct Cond
    {
        const char *name;
        energy::TraceKind power;
        bool no_failure;
    };
    const Cond conds[] = {
        { "no failure", energy::TraceKind::Constant, true },
        { "trace 1", energy::TraceKind::RfHome, false },
        { "trace 2", energy::TraceKind::RfOffice, false },
    };
    for (const Cond &c : conds) {
        const double dmap =
            bench::associativityGmean(1, c.power, c.no_failure);
        const double way2 =
            bench::associativityGmean(2, c.power, c.no_failure);
        const double way4 =
            bench::associativityGmean(4, c.power, c.no_failure);
        std::ostringstream os;
        os << c.name << ": D-Map " << dmap << ", 2-Way " << way2
           << ", 4-Way " << way4;
        EXPECT_LT(dmap, std::min(way2, way4)) << os.str();
    }
}

/** Figure 9: with FIFO replacement the gmean peaks at maxline 6. */
TEST(PaperShape, Fig9FifoPeaksAtMaxline6)
{
    setQuiet(true);
    const bench::SpeedupTable t = bench::maxlineFigure();
    const double g2 = t.gmean("FIFO@2"), g4 = t.gmean("FIFO@4"),
                 g6 = t.gmean("FIFO@6"), g8 = t.gmean("FIFO@8");
    std::ostringstream os;
    os << "gmean(Total) FIFO@2/4/6/8: " << g2 << ' ' << g4 << ' ' << g6
       << ' ' << g8;
    EXPECT_GT(g6, std::max({ g2, g4, g8 })) << os.str();
}

/**
 * Figure 13a: WL-Cache beats NVSRAM(ideal) on all three RF traces, and
 * its outages per app order tr.3 > tr.2 > tr.1, an order of magnitude
 * above solar and thermal.
 */
TEST(PaperShape, Fig13aTraceSensitivity)
{
    setQuiet(true);
    auto wl = [](energy::TraceKind power) {
        return bench::traceGmean(nvp::DesignKind::WL, power, false);
    };
    const bench::TraceGmean tr1 = wl(energy::TraceKind::RfHome);
    const bench::TraceGmean tr2 = wl(energy::TraceKind::RfOffice);
    const bench::TraceGmean tr3 = wl(energy::TraceKind::RfMementos);
    const bench::TraceGmean solar = wl(energy::TraceKind::Solar);
    const bench::TraceGmean thermal = wl(energy::TraceKind::Thermal);
    std::ostringstream os;
    os << "WL-Cache speedup / outages per app: tr.1 " << tr1.speedup
       << " / " << tr1.outages << ", tr.2 " << tr2.speedup << " / "
       << tr2.outages << ", tr.3 " << tr3.speedup << " / " << tr3.outages
       << ", solar " << solar.speedup << " / " << solar.outages
       << ", thermal " << thermal.speedup << " / " << thermal.outages;
    EXPECT_GT(tr1.speedup, 1.0) << os.str();
    EXPECT_GT(tr2.speedup, 1.0) << os.str();
    EXPECT_GT(tr3.speedup, 1.0) << os.str();
    EXPECT_GT(tr3.outages, tr2.outages) << os.str();
    EXPECT_GT(tr2.outages, tr1.outages) << os.str();
    EXPECT_GT(tr1.outages, 10.0 * std::max(solar.outages, thermal.outages))
        << os.str();
}
