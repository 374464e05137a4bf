/**
 * @file
 * Reproduces paper Figure 8(b): WL-Cache speedup with direct-mapped,
 * 2-way, and 4-way set-associative caches, normalized to the default
 * NVSRAM(ideal), for no failure and Power Traces 1 and 2. The paper
 * picks 2-way as the sweet spot (4-way pays extra access power).
 */

#include <iostream>

#include "bench/speedup_figure.hh"
#include "sim/logging.hh"
#include "util/table.hh"

using namespace wlcache;
using namespace wlcache::bench;

int
main()
{
    setQuiet(true);
    std::cout << "=== Figure 8b: WL-Cache set associativity "
                 "(gmean speedup vs NVSRAM ideal) ===\n";
    util::TextTable t;
    t.header({ "condition", "D-Map", "2-Way", "4-Way" });
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
    for (const auto &c : conds) {
        t.rowDoubles(c.name,
                     { associativityGmean(1, c.power, c.no_failure),
                       associativityGmean(2, c.power, c.no_failure),
                       associativityGmean(4, c.power, c.no_failure) });
    }
    t.print(std::cout);
    return 0;
}
