#include "energy/power_trace.hh"

#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace wlcache {
namespace energy {

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::RfHome:     return "trace1";
      case TraceKind::RfOffice:   return "trace2";
      case TraceKind::RfMementos: return "trace3";
      case TraceKind::Solar:      return "solar";
      case TraceKind::Thermal:    return "thermal";
      case TraceKind::Constant:   return "constant";
    }
    panic("unknown TraceKind %d", static_cast<int>(kind));
}

namespace {

constexpr TraceKind kAllTraceKinds[] = {
    TraceKind::RfHome, TraceKind::RfOffice, TraceKind::RfMementos,
    TraceKind::Solar,  TraceKind::Thermal,  TraceKind::Constant,
};

} // anonymous namespace

bool
traceKindFromName(const std::string &name, TraceKind &out)
{
    for (const TraceKind k : kAllTraceKinds) {
        if (name == traceKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::string
traceKindNameList()
{
    std::string list;
    for (const TraceKind k : kAllTraceKinds) {
        if (!list.empty())
            list += ", ";
        list += traceKindName(k);
    }
    return list;
}

PowerTrace::PowerTrace(double sample_period_s,
                       std::vector<double> samples_w)
    : sample_period_s_(sample_period_s), num_samples_(samples_w.size()),
      stored_w_(std::move(samples_w))
{
    wlc_assert(sample_period_s_ > 0.0);
    wlc_assert(!stored_w_.empty());
}

PowerTrace::Cursor
PowerTrace::cursor() const
{
    return Cursor(*this);
}

std::vector<double>
PowerTrace::samples() const
{
    std::vector<double> out;
    out.reserve(num_samples_);
    Cursor c = cursor();
    for (std::size_t i = 0; i < num_samples_; ++i)
        out.push_back(c.next());
    return out;
}

double
PowerTrace::powerAt(double t_s) const
{
    if (num_samples_ == 0)
        return 0.0;
    const double dur = duration();
    double t = std::fmod(t_s, dur);
    if (t < 0.0)
        t += dur;
    auto idx = static_cast<std::size_t>(t / sample_period_s_);
    if (idx >= num_samples_)
        idx = num_samples_ - 1;
    return samples()[idx];
}

double
PowerTrace::duration() const
{
    return sample_period_s_ * static_cast<double>(num_samples_);
}

double
PowerTrace::meanPower() const
{
    if (num_samples_ == 0)
        return 0.0;
    double sum = 0.0;
    for (double w : samples())
        sum += w;
    return sum / static_cast<double>(num_samples_);
}

double
PowerTrace::variationCoefficient() const
{
    const double m = meanPower();
    if (m <= 0.0 || num_samples_ < 2)
        return 0.0;
    double sq = 0.0;
    for (double w : samples())
        sq += (w - m) * (w - m);
    const double sd =
        std::sqrt(sq / static_cast<double>(num_samples_ - 1));
    return sd / m;
}

namespace {

/**
 * Shortest-exact double rendering for save(): %.17g survives a
 * strtod round trip bit-for-bit, so save → load → save is
 * byte-identical (the default 6-significant-digit stream precision
 * silently truncated samples).
 */
inline void
writeExactDouble(std::ostream &os, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf << '\n';
}

} // anonymous namespace

void
PowerTrace::save(std::ostream &os) const
{
    writeExactDouble(os, sample_period_s_);
    for (double w : samples())
        writeExactDouble(os, w);
}

PowerTrace
PowerTrace::load(std::istream &is)
{
    double period = 0.0;
    if (!(is >> period) || period <= 0.0)
        fatal("PowerTrace::load: bad sample period");
    std::vector<double> samples;
    double w;
    while (is >> w)
        samples.push_back(w);
    if (samples.empty())
        fatal("PowerTrace::load: no samples");
    return PowerTrace(period, std::move(samples));
}

namespace {

/**
 * Two-state (burst/idle) semi-Markov RF model. Burst and idle
 * durations are exponentially distributed; burst power wanders with
 * bounded Gaussian steps. The three RF environments differ in mean
 * power, duty cycle, and variability.
 */
struct RfParams
{
    double burst_power_w;   //!< Mean power while a source is active.
    double idle_power_w;    //!< Residual power between bursts.
    double burst_mean_s;    //!< Mean burst duration.
    double idle_mean_s;     //!< Mean idle duration.
    double jitter;          //!< Relative power jitter inside a burst.
};

const RfParams &
rfParams(TraceKind kind)
{
    // Paper Trace 1: comparatively stable home RF environment.
    static constexpr RfParams home{ 24.0e-3, 2.8e-3, 3000.0e-6, 600.0e-6,
                                    0.25 };
    // Paper Trace 2: office RF, shorter bursts, more idle time.
    static constexpr RfParams office{ 24.0e-3, 2.5e-3, 1700.0e-6,
                                      800.0e-6, 0.45 };
    // Paper tr.3: RFID-scale source, very low duty cycle.
    static constexpr RfParams mementos{ 20.0e-3, 1.8e-3, 600.0e-6,
                                        1300.0e-6, 0.60 };
    switch (kind) {
      case TraceKind::RfHome:     return home;
      case TraceKind::RfOffice:   return office;
      case TraceKind::RfMementos: return mementos;
      default: break;
    }
    panic("TraceKind %d is not an RF kind", static_cast<int>(kind));
}

} // anonymous namespace

double
PowerTrace::Cursor::next()
{
    wlc_assert(idx_ < trace_->num_samples_);
    double w = trace_->constant_w_;
    if (!trace_->stored_w_.empty()) {
        w = trace_->stored_w_[idx_];
    } else {
        switch (trace_->kind_) {
          case TraceKind::RfHome:
          case TraceKind::RfOffice:
          case TraceKind::RfMementos: w = nextRf(); break;
          case TraceKind::Solar:      w = nextSolar(); break;
          case TraceKind::Thermal:    w = nextThermal(); break;
          case TraceKind::Constant:   break;
        }
    }
    ++idx_;
    return w;
}

double
PowerTrace::Cursor::nextRf()
{
    const RfParams &p = rfParams(trace_->kind_);
    if (idx_ == 0) {
        rng_ = Rng(trace_->seed_);
        in_burst_ = rng_.nextBool(
            p.burst_mean_s / (p.burst_mean_s + p.idle_mean_s));
        left_s_ = rng_.nextExponential(in_burst_ ? p.burst_mean_s
                                                 : p.idle_mean_s);
        level_ = p.burst_power_w;
    }
    if (left_s_ <= 0.0) {
        in_burst_ = !in_burst_;
        left_s_ = rng_.nextExponential(in_burst_ ? p.burst_mean_s
                                                 : p.idle_mean_s);
        if (in_burst_) {
            level_ = p.burst_power_w * (1.0 + p.jitter * rng_.nextGaussian());
            if (level_ < 0.2 * p.burst_power_w)
                level_ = 0.2 * p.burst_power_w;
        }
    }
    double w = in_burst_ ? level_ : p.idle_power_w;
    // Small per-sample flutter so samples are not perfectly flat.
    w *= 1.0 + 0.05 * p.jitter * rng_.nextGaussian();
    left_s_ -= trace_->sample_period_s_;
    return w > 0.0 ? w : 0.0;
}

double
PowerTrace::Cursor::nextSolar()
{
    // Strong base level with slow irradiance drift and occasional
    // cloud dips.
    const double base_w = 46.0e-3;
    const double period = trace_->sample_period_s_;
    if (idx_ == 0) {
        rng_ = Rng(trace_->seed_ ^ 0x50a1a2ull);
        level_ = 1.0;
    }
    const double t = static_cast<double>(idx_) * period;
    const double drift = 1.0 + 0.12 * std::sin(2.0 * M_PI * t / 2.7) +
        0.05 * std::sin(2.0 * M_PI * t / 0.61);
    if (left_s_ <= 0.0 && rng_.nextBool(2e-4)) {
        left_s_ = rng_.nextDouble(0.02, 0.08);
        level_ = rng_.nextDouble(0.45, 0.75);
    }
    double factor = 1.0;
    if (left_s_ > 0.0) {
        factor = level_;
        left_s_ -= period;
    }
    return base_w * drift * factor;
}

double
PowerTrace::Cursor::nextThermal()
{
    // Thermal gradients change very slowly: near-constant output.
    const double base_w = 44.0e-3;
    if (idx_ == 0) {
        rng_ = Rng(trace_->seed_ ^ 0x7e41ull);
        level_ = base_w;
    }
    level_ += 0.03e-3 * rng_.nextGaussian();
    if (level_ < 0.9 * base_w)
        level_ = 0.9 * base_w;
    if (level_ > 1.1 * base_w)
        level_ = 1.1 * base_w;
    return level_;
}

PowerTrace
makeTrace(TraceKind kind, const TraceGenConfig &cfg, double constant_w)
{
    wlc_assert(cfg.sample_period_s > 0.0);
    const auto n =
        static_cast<std::size_t>(cfg.duration_s / cfg.sample_period_s);
    wlc_assert(n > 0 || kind == TraceKind::Constant,
               "a %s trace of %g s has no samples", traceKindName(kind),
               cfg.duration_s);
    PowerTrace t;
    t.sample_period_s_ = cfg.sample_period_s;
    t.num_samples_ = n ? n : 1;
    t.kind_ = kind;
    t.seed_ = cfg.seed;
    t.constant_w_ = constant_w;
    return t;
}

} // namespace energy
} // namespace wlcache
