/**
 * @file
 * Boot-time adaptive maxline/waterline management (paper §4). The
 * runtime system measures each power-on interval with a watchdog
 * timer (a 2-byte NVFF-backed value), keeps the last two measurements
 * across outages, and at every reboot compares them: a significantly
 * longer interval implies a good energy source (raise maxline, act
 * more like write-back); a significantly shorter one implies a poor
 * source (lower maxline, act more like write-through). Thresholds
 * never change mid-interval — reconfiguration happens only at boot,
 * where Vbackup can be adjusted safely.
 */

#ifndef WLCACHE_CORE_ADAPTIVE_RUNTIME_HH
#define WLCACHE_CORE_ADAPTIVE_RUNTIME_HH

#include <cstdint>

#include "sim/stats.hh"

namespace wlcache {

class StateIo;

namespace core {

/** Adaptive-management tunables. */
struct AdaptiveConfig
{
    bool enabled = true;
    /** Relative change in power-on time considered significant. */
    double delta = 0.15;
    unsigned maxline_min = 2;
    unsigned maxline_max = 6;
    /** Watchdog timer tick (2-byte counter => 65.5 ms range). */
    double timer_resolution_s = 1.0e-6;
};

/** Direction of a boot-time reconfiguration decision. */
enum class AdaptDecision
{
    Keep,
    Raise,
    Lower,
};

/**
 * The adaptive controller. Owns the NVFF-resident state: the last
 * two quantized power-on times and the current maxline.
 */
class AdaptiveRuntime
{
  public:
    AdaptiveRuntime(const AdaptiveConfig &cfg, unsigned initial_maxline);

    /**
     * Called at each reboot with the measured duration of the
     * just-finished power-on interval.
     * @return the maxline to use for the next interval.
     */
    unsigned onBoot(double prev_on_time_s);

    unsigned maxline() const { return maxline_; }
    const AdaptiveConfig &config() const { return cfg_; }

    /** Quantize a duration the way the 2-byte watchdog NVFF would. */
    std::uint16_t quantize(double seconds) const;

    /** NVFF bytes this runtime persists across outages (§5.5). */
    static constexpr unsigned kNvffBytes = 2 /*maxline+waterline*/ +
                                           2 * 2 /*two timers*/;

    // --- Reported statistics (paper §6.6) ---
    unsigned reconfigurations() const { return reconfigs_; }
    unsigned observedMaxlineMin() const { return observed_min_; }
    unsigned observedMaxlineMax() const { return observed_max_; }
    /** Fraction of boot-time decisions the next interval validated. */
    double predictionAccuracy() const;

    /** Serialize the controller's mutable state. */
    void ioState(StateIo &io);

  private:
    AdaptDecision decide(std::uint16_t t_prev2,
                         std::uint16_t t_prev1) const;

    AdaptiveConfig cfg_;
    unsigned maxline_;
    std::uint16_t t_n2_ = 0;  //!< T[n-2], quantized.
    std::uint16_t t_n1_ = 0;  //!< T[n-1], quantized.
    unsigned boots_ = 0;
    unsigned reconfigs_ = 0;
    unsigned observed_min_;
    unsigned observed_max_;
    AdaptDecision last_decision_ = AdaptDecision::Keep;
    bool cooldown_ = false;  //!< Skip one comparison after a change.
    bool have_pending_prediction_ = false;
    unsigned predictions_ = 0;
    unsigned correct_predictions_ = 0;
};

} // namespace core
} // namespace wlcache

#endif // WLCACHE_CORE_ADAPTIVE_RUNTIME_HH
