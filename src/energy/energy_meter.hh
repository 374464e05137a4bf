/**
 * @file
 * Energy bookkeeping by consumption category, matching the breakdown
 * the paper reports in Figure 13(b): cache read/write, memory
 * read/write, and compute, plus checkpoint/restore and leakage which
 * the paper folds into the totals.
 *
 * Accumulators are integer attojoules (see attojoule.hh): integer
 * addition is associative, so the skip-ahead loop can batch a gap's
 * leakage as one `cycles * rate` add and land on exactly the state
 * the per-cycle reference loop reaches one add at a time.
 */

#ifndef WLCACHE_ENERGY_ENERGY_METER_HH
#define WLCACHE_ENERGY_ENERGY_METER_HH

#include <array>
#include <cstddef>

#include "energy/attojoule.hh"
#include "sim/logging.hh"

namespace wlcache {

class StateIo;

namespace energy {

/** Consumption category for the Fig. 13(b) breakdown. */
enum class EnergyCategory : std::size_t
{
    Compute = 0,
    CacheRead,
    CacheWrite,
    MemRead,
    MemWrite,
    Checkpoint,
    Restore,
    Leakage,
    NumCategories,
};

/** Human-readable category name. */
const char *energyCategoryName(EnergyCategory cat);

/** Accumulates attojoules per category (joule API quantizes). */
class EnergyMeter
{
  public:
    static constexpr std::size_t kNumCategories =
        static_cast<std::size_t>(EnergyCategory::NumCategories);

    /** Add @p joules (quantized to whole aJ) to category @p cat. */
    void add(EnergyCategory cat, double joules)
    {
        wlc_assert(joules >= 0.0);
        addAj(cat, toAttojoules(joules));
    }

    /** Add an exact attojoule amount to category @p cat. */
    void addAj(EnergyCategory cat, Attojoules aj)
    {
        wlc_assert(cat != EnergyCategory::NumCategories);
        aj_[static_cast<std::size_t>(cat)] += aj;
        total_ += aj;
    }

    /** Consumption of a single category, joules. */
    double get(EnergyCategory cat) const;

    /** Consumption of a single category, attojoules (exact). */
    Attojoules getAj(EnergyCategory cat) const;

    /** Total across all categories, joules. */
    double total() const;

    /** Total across all categories, attojoules (exact, O(1)). */
    Attojoules totalAj() const { return total_; }

    /** Zero every category. */
    void reset();

    /** Serialize every category's accumulator. */
    void ioState(StateIo &io);

  private:
    std::array<Attojoules, kNumCategories> aj_{};
    /**
     * Running sum of aj_, so the run loop reads the total per event
     * without the category sum. Derived state: not serialized.
     */
    Attojoules total_ = 0;
};

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_ENERGY_METER_HH
