/**
 * @file
 * Exact integer energy arithmetic. Every energy quantity the run loop
 * integrates (meter accumulators, the capacitor level, harvester
 * deposit rates) is quantized to whole attojoules (1 aJ = 1e-18 J)
 * and accumulated in uint64_t. Integer addition is associative, so
 * integrating a compute gap cycle-by-cycle and integrating it in one
 * closed-form step produce bit-identical state — the invariant the
 * `step_mode = {percycle, skip_ahead}` differential harness rests on
 * (DESIGN.md §15). Doubles would break this: N tiny adds and one
 * N-scaled add round differently.
 *
 * Range: 2^64 aJ ≈ 18.4 J, far above anything an energy-harvesting
 * node moves per run (whole runs consume millijoules; the default
 * capacitor stores ~6 uJ). Conversions saturate defensively anyway.
 */

#ifndef WLCACHE_ENERGY_ATTOJOULE_HH
#define WLCACHE_ENERGY_ATTOJOULE_HH

#include <cstdint>

namespace wlcache {
namespace energy {

/** Whole attojoules (1e-18 J) in a uint64_t. */
using Attojoules = std::uint64_t;

/** Attojoules per joule (exactly representable as a double). */
constexpr double kAttojoulesPerJoule = 1.0e18;

/**
 * Saturation ceiling for toAttojoules(), ~9 J. It stays below 2^63
 * (~9.2e18), so a quantized amount also fits an int64 and the
 * double-to-integer conversion in toAttojoules() is always defined.
 */
constexpr Attojoules kMaxAttojoules = 9'000'000'000'000'000'000ull;

/**
 * Quantize a non-negative joule amount to whole attojoules (round to
 * nearest, halves away from zero). This is the single quantizer every
 * component shares: two call sites quantizing the same double always
 * agree.
 *
 * Equal to std::llround(joules * 1e18) wherever that is defined, but
 * with no libm call: truncate, then round the fraction. `aj - whole`
 * is exact for every double in range (the fraction is a multiple of
 * aj's ulp below 1; from 2^53 up it is 0), so the half compare sees
 * the true fraction.
 */
inline Attojoules
toAttojoules(double joules)
{
    if (!(joules > 0.0))
        return 0;
    const double aj = joules * kAttojoulesPerJoule;
    if (aj >= static_cast<double>(kMaxAttojoules))
        return kMaxAttojoules;
    const Attojoules whole = static_cast<Attojoules>(aj);
    return whole + (aj - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

/**
 * Scale a per-cycle attojoule rate by a cycle count, saturating at
 * kMaxAttojoules instead of wrapping. A multi-second span at watt
 * scale can exceed 2^64 aJ; saturation keeps the result a valid
 * "more than the capacitor can hold" deposit in that case.
 */
inline Attojoules
scaleAttojoules(Attojoules rate, std::uint64_t cycles)
{
    // One 128-bit multiply, no divide: rate * cycles > kMaxAttojoules
    // holds exactly when cycles > kMaxAttojoules / rate (floored).
    __extension__ using U128 = unsigned __int128;
    const U128 aj = static_cast<U128>(rate) * cycles;
    return aj > kMaxAttojoules ? kMaxAttojoules
                               : static_cast<Attojoules>(aj);
}

/**
 * Convert attojoules back to joules. Division by the exactly
 * representable 1e18 yields the correctly rounded double of the exact
 * rational aj/1e18, so equal integer states always render as equal
 * doubles (reports, JSON records, thresholds).
 */
inline double
toJoules(Attojoules aj)
{
    return static_cast<double>(aj) / kAttojoulesPerJoule;
}

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_ATTOJOULE_HH
