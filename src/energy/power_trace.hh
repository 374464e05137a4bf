/**
 * @file
 * Ambient-power traces. The paper evaluates with two RF traces
 * recorded at a home and an office (NVPsim's Trace 1 / Trace 2), a
 * third RF trace from Mementos, and solar/thermal traces. Those
 * recordings are not redistributable, so this module synthesizes
 * deterministic traces whose *stability ordering* and burst character
 * match the paper's description (see DESIGN.md §2): thermal and solar
 * are strong and stable; RF traces are weak and bursty, with Trace 2
 * less stable than Trace 1 and the Mementos trace (tr.3) the most
 * unstable of all.
 */

#ifndef WLCACHE_ENERGY_POWER_TRACE_HH
#define WLCACHE_ENERGY_POWER_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace wlcache {
namespace energy {

/** The ambient-energy environments evaluated in the paper. */
enum class TraceKind
{
    RfHome,     //!< Paper "Trace 1": RF at home, relatively stable.
    RfOffice,   //!< Paper "Trace 2": RF at office, less stable.
    RfMementos, //!< Paper "tr.3": RFID-scale, highly unstable.
    Solar,      //!< Strong, slowly varying.
    Thermal,    //!< Strong, nearly constant.
    Constant,   //!< Fixed power level (testing / no-failure runs).
};

/** Human-readable name for a trace kind ("trace1", "solar", ...). */
const char *traceKindName(TraceKind kind);

/**
 * Inverse of traceKindName(): parse "trace1".."trace3", "solar",
 * "thermal", "constant".
 * @return true and set @p out on a match; false on an unknown name.
 */
bool traceKindFromName(const std::string &name, TraceKind &out);

/**
 * Comma-separated list of every valid trace-kind name, for error
 * messages ("trace1, trace2, trace3, solar, thermal, constant").
 */
std::string traceKindNameList();

/** Tunable parameters for the synthetic trace generators. */
struct TraceGenConfig
{
    std::uint64_t seed = 1;
    double duration_s = 2.0;          //!< Length of one recording pass.
    double sample_period_s = 20.0e-6; //!< 20 us granularity.
};

/**
 * A piecewise-constant ambient power waveform. Sampled at a fixed
 * period; reads past the end wrap around, so a finite recording models
 * an arbitrarily long environment.
 *
 * A trace is an immutable recipe: stored samples (load() or the vector
 * constructor) or a synthetic kind with its generator settings.
 * Readers walk it with a Cursor, so a run generates only the samples
 * it reads, and one trace can be read from several threads at once.
 */
class PowerTrace
{
  public:
    class Cursor;

    /** Empty trace (powerAt() returns 0). */
    PowerTrace() = default;

    /**
     * @param sample_period_s Seconds covered by each sample.
     * @param samples_w Power in watts for each period.
     */
    PowerTrace(double sample_period_s, std::vector<double> samples_w);

    /** Ambient power in watts at absolute time @p t_s (wraps). */
    double powerAt(double t_s) const;

    /** Duration of one pass over the recording, seconds. */
    double duration() const;

    double samplePeriod() const { return sample_period_s_; }
    std::size_t numSamples() const { return num_samples_; }

    /** Every sample of one pass, generated by one cursor walk. */
    std::vector<double> samples() const;

    /** A cursor positioned on sample 0. */
    Cursor cursor() const;

    /** Mean power over the whole recording, watts. */
    double meanPower() const;

    /** Coefficient of variation (stddev/mean) — instability measure. */
    double variationCoefficient() const;

    /** Serialize as "period_s\nW0\nW1\n..." text. */
    void save(std::ostream &os) const;

    /** Parse the save() format; throws via fatal() on bad input. */
    static PowerTrace load(std::istream &is);

  private:
    friend PowerTrace makeTrace(TraceKind, const TraceGenConfig &,
                                double);

    double sample_period_s_ = 1.0e-3;
    std::size_t num_samples_ = 0;
    std::vector<double> stored_w_;  //!< Recorded samples, if any.
    TraceKind kind_ = TraceKind::Constant; //!< Generator otherwise.
    std::uint64_t seed_ = 0;
    double constant_w_ = 0.0;
};

/**
 * Sequential reader of one pass over a PowerTrace. It reads the trace
 * in place (the trace must outlive it) and generates each synthetic
 * sample on demand, drawing the generator's random stream in sample
 * order, so every reader sees the same samples. A new pass starts from
 * a fresh PowerTrace::cursor().
 */
class PowerTrace::Cursor
{
  public:
    /** Power of the current sample, watts; then step to the next.
     *  At most numSamples() calls per cursor. */
    double next();

  private:
    friend class PowerTrace;
    explicit Cursor(const PowerTrace &trace) : trace_(&trace) {}

    double nextRf();
    double nextSolar();
    double nextThermal();

    const PowerTrace *trace_;
    std::size_t idx_ = 0;    //!< Index of the sample next() returns.
    Rng rng_;
    bool in_burst_ = false;  //!< RF: inside a burst.
    double left_s_ = 0.0;    //!< RF: state time left; solar: cloud left.
    double level_ = 0.0;     //!< RF burst / thermal level; cloud factor.
};

/**
 * Synthesize a power trace of the given kind. Generates nothing: the
 * samples are drawn when a cursor reads them.
 *
 * @param kind Which environment to model.
 * @param cfg Generator seed/length parameters.
 * @param constant_w Power level used when @p kind is Constant.
 */
PowerTrace makeTrace(TraceKind kind, const TraceGenConfig &cfg = {},
                     double constant_w = 5.0e-3);

} // namespace energy
} // namespace wlcache

#endif // WLCACHE_ENERGY_POWER_TRACE_HH
