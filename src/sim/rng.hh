/**
 * @file
 * Deterministic pseudo-random number generation for workload inputs
 * and power-trace synthesis. All simulator randomness flows through
 * this class so experiments are reproducible bit-for-bit.
 */

#ifndef WLCACHE_SIM_RNG_HH
#define WLCACHE_SIM_RNG_HH

#include <cstdint>

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
    std::uint64_t next();

    /** Uniform value in [0, bound); @p bound must be non-zero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in the inclusive range [lo, hi]. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Standard-normal sample (Box-Muller, deterministic). */
    double nextGaussian();

    /** Bernoulli trial with probability @p p of returning true. */
    bool nextBool(double p = 0.5);

    /**
     * Exponentially distributed sample with the given mean
     * (inter-arrival times for bursty power traces).
     */
    double nextExponential(double mean_value);

    /** Serialize the generator state (stream + cached gaussian). */
    void ioState(StateIo &io);

  private:
    std::uint64_t s_[4];
    bool have_cached_gaussian_ = false;
    double cached_gaussian_ = 0.0;
};

} // namespace wlcache

#endif // WLCACHE_SIM_RNG_HH
