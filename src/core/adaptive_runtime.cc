#include "core/adaptive_runtime.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace core {

AdaptiveRuntime::AdaptiveRuntime(const AdaptiveConfig &cfg,
                                 unsigned initial_maxline)
    : cfg_(cfg), maxline_(initial_maxline),
      observed_min_(initial_maxline), observed_max_(initial_maxline)
{
    wlc_assert(cfg_.maxline_min >= 1);
    wlc_assert(cfg_.maxline_min <= cfg_.maxline_max);
    wlc_assert(cfg_.delta > 0.0);
    maxline_ = std::clamp(maxline_, cfg_.maxline_min, cfg_.maxline_max);
}

std::uint16_t
AdaptiveRuntime::quantize(double seconds) const
{
    const double ticks = seconds / cfg_.timer_resolution_s;
    if (ticks >= 65535.0)
        return 65535;
    if (ticks <= 0.0)
        return 0;
    return static_cast<std::uint16_t>(std::lround(ticks));
}

AdaptDecision
AdaptiveRuntime::decide(std::uint16_t t_prev2, std::uint16_t t_prev1) const
{
    const double a = static_cast<double>(t_prev2);
    const double b = static_cast<double>(t_prev1);
    if (a <= 0.0)
        return AdaptDecision::Keep;
    if (b > a * (1.0 + cfg_.delta))
        return AdaptDecision::Raise;
    if (b < a * (1.0 - cfg_.delta))
        return AdaptDecision::Lower;
    return AdaptDecision::Keep;
}

unsigned
AdaptiveRuntime::onBoot(double prev_on_time_s)
{
    const std::uint16_t t_new = quantize(prev_on_time_s);

    // Grade the previous boot's decision against the interval it
    // predicted (paper §6.6 reports >98% accuracy).
    if (have_pending_prediction_) {
        ++predictions_;
        const double prev = static_cast<double>(t_n1_);
        const double cur = static_cast<double>(t_new);
        bool correct = true;
        if (last_decision_ == AdaptDecision::Raise)
            correct = cur >= prev * (1.0 - cfg_.delta);
        else if (last_decision_ == AdaptDecision::Lower)
            correct = cur <= prev * (1.0 + cfg_.delta);
        if (correct)
            ++correct_predictions_;
    }

    // Shift the NVFF history window.
    t_n2_ = t_n1_;
    t_n1_ = t_new;
    ++boots_;

    if (!cfg_.enabled || boots_ < 2) {
        have_pending_prediction_ = false;
        return maxline_;
    }

    // A reconfiguration moves Von/Vbackup, which changes the length
    // of the next power-on interval regardless of the energy source.
    // Comparing across the change would read our own adjustment as a
    // source-quality trend and ratchet the threshold, so the first
    // interval after a change only re-baselines the watchdog history.
    if (cooldown_) {
        cooldown_ = false;
        have_pending_prediction_ = false;
        return maxline_;
    }

    const AdaptDecision d = decide(t_n2_, t_n1_);
    last_decision_ = d;
    have_pending_prediction_ = true;

    unsigned next = maxline_;
    if (d == AdaptDecision::Raise && maxline_ < cfg_.maxline_max)
        next = maxline_ + 1;
    else if (d == AdaptDecision::Lower && maxline_ > cfg_.maxline_min)
        next = maxline_ - 1;

    if (next != maxline_) {
        ++reconfigs_;
        maxline_ = next;
        observed_min_ = std::min(observed_min_, maxline_);
        observed_max_ = std::max(observed_max_, maxline_);
        cooldown_ = true;
    }
    return maxline_;
}

double
AdaptiveRuntime::predictionAccuracy() const
{
    if (predictions_ == 0)
        return 1.0;
    return static_cast<double>(correct_predictions_) /
        static_cast<double>(predictions_);
}

void
AdaptiveRuntime::ioState(StateIo &io)
{
    io.section("ADPT");
    io.u32(maxline_);
    io.u32(t_n2_);
    io.u32(t_n1_);
    io.u32(boots_);
    io.u32(reconfigs_);
    io.u32(observed_min_);
    io.u32(observed_max_);
    io.u8(last_decision_);
    io.b(cooldown_);
    io.b(have_pending_prediction_);
    io.u32(predictions_);
    io.u32(correct_predictions_);
}

} // namespace core
} // namespace wlcache
