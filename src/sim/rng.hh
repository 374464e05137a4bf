/**
 * @file
 * Deterministic pseudo-random number generation for workload inputs
 * and power-trace synthesis. All simulator randomness flows through
 * this class so experiments are reproducible bit-for-bit.
 */

#ifndef WLCACHE_SIM_RNG_HH
#define WLCACHE_SIM_RNG_HH

#include <bit>
#include <cmath>
#include <cstdint>

#include "sim/logging.hh"

namespace wlcache {

class StateIo;

/**
 * xoshiro256** PRNG seeded via SplitMix64. Small, fast, and fully
 * deterministic across platforms (no libstdc++ distribution use).
 */
class Rng
{
  public:
    /** Construct with the given 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound); @p bound must be non-zero. */
    std::uint64_t nextBelow(std::uint64_t bound)
    {
        wlc_assert(bound != 0);
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in the inclusive range [lo, hi]. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi)
    {
        wlc_assert(lo <= hi);
        const std::uint64_t span =
            static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(span == 0 ? next()
                                                        : nextBelow(span));
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi)
    {
        return lo + (hi - lo) * nextDouble();
    }

    /** Standard-normal sample (Box-Muller, deterministic). */
    double nextGaussian();

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p = 0.5) { return nextDouble() < p; }

    /**
     * Exponentially distributed sample with the given mean
     * (inter-arrival times for bursty power traces).
     */
    double nextExponential(double mean_value)
    {
        double u = nextDouble();
        while (u <= 1e-300)
            u = nextDouble();
        return -mean_value * std::log(u);
    }

    /** Serialize the generator state (stream + cached gaussian). */
    void ioState(StateIo &io);

  private:
    std::uint64_t s_[4];
    bool have_cached_gaussian_ = false;
    double cached_gaussian_ = 0.0;
};

} // namespace wlcache

#endif // WLCACHE_SIM_RNG_HH
