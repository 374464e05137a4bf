/**
 * @file
 * Lightweight statistics framework in the spirit of gem5's stats
 * package. Components create named scalar and distribution statistics
 * inside a StatGroup; groups nest, dump to a stream, and reset between
 * simulation phases.
 */

#ifndef WLCACHE_SIM_STATS_HH
#define WLCACHE_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace wlcache {

class StateIo;

namespace stats {

/** Abstract named statistic. */
class Statistic
{
  public:
    Statistic(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~Statistic() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Render the current value for dumping. */
    virtual std::string render() const = 0;

    /** Write the value as one compact JSON object. */
    virtual void writeJson(std::ostream &os) const = 0;

    /** Reset to the initial value. */
    virtual void reset() = 0;

    /** Serialize the accumulator state for a simulation snapshot. */
    virtual void ioState(StateIo &io) = 0;

  private:
    std::string name_;
    std::string desc_;
};

/**
 * Simple accumulating scalar (counter or gauge). Unsigned integral
 * increments accumulate into a dedicated 64-bit integer so hot
 * counters stay exact past 2^53 (doubles silently lose low bits
 * there); the rendered/reported value is the sum of both halves.
 */
class Scalar : public Statistic
{
  public:
    using Statistic::Statistic;

    Scalar &operator+=(double v) { value_ += v; return *this; }

    /** Overflow-safe increment for unsigned integral counters. */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                               std::is_unsigned_v<T>, int> = 0>
    Scalar &operator+=(T v)
    {
        u64_ += static_cast<std::uint64_t>(v);
        return *this;
    }

    Scalar &operator++() { ++u64_; return *this; }
    void set(double v) { value_ = v; u64_ = 0; }

    double value() const
    {
        return value_ + static_cast<double>(u64_);
    }

    /** Exact integer half (the unsigned-increment accumulator). */
    std::uint64_t valueU64() const { return u64_; }

    std::string render() const override;
    void writeJson(std::ostream &os) const override;
    void reset() override { value_ = 0.0; u64_ = 0; }
    void ioState(StateIo &io) override;

  private:
    double value_ = 0.0;
    std::uint64_t u64_ = 0;
};

/**
 * Streaming distribution: tracks count, sum, min, max, and sum of
 * squares, enough for mean and standard deviation without storing
 * samples.
 */
class Distribution : public Statistic
{
  public:
    /** Power-of-two histogram buckets (bucket i holds [2^(i-1), 2^i)). */
    static constexpr std::size_t kNumBuckets = 64;

    using Statistic::Statistic;

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const;
    double stddev() const;

    /** Samples in log2 bucket @p i (0 = everything below 1). */
    std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

    /** Log2 bucket index a sample value falls in. */
    static std::size_t bucketIndex(double v);

    std::string render() const override;
    void writeJson(std::ostream &os) const override;
    void reset() override;
    void ioState(StateIo &io) override;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sum_sq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::array<std::uint64_t, kNumBuckets> buckets_{};
};

/**
 * A named collection of statistics. Groups own their statistics and
 * may own child groups, forming a dump tree.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Create (and own) a scalar statistic. */
    Scalar &addScalar(const std::string &name, const std::string &desc);

    /** Create (and own) a distribution statistic. */
    Distribution &addDistribution(const std::string &name,
                                  const std::string &desc);

    /** Register a child group (not owned). */
    void addChild(StatGroup *child);

    /** Reset every statistic in this group and its children. */
    void resetAll();

    /** Dump "group.stat value # desc" lines recursively. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Dump the group as one compact JSON object: each statistic is a
     * member (see Scalar/Distribution::writeJson), each child group a
     * nested object keyed by its name. Machine-readable counterpart
     * of dump(); lands in RunResult::stats_json.
     */
    void dumpJson(std::ostream &os) const;

    /** Find a statistic by name in this group only; null if absent. */
    const Statistic *find(const std::string &name) const;

    /**
     * Serialize every owned statistic and child group in registration
     * order. Restore requires the identical group structure (the same
     * component built from the same configuration), which snapshots
     * guarantee via their compatibility key.
     */
    void ioState(StateIo &io);

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::vector<std::unique_ptr<Statistic>> owned_;
    std::vector<StatGroup *> children_;
};

} // namespace stats
} // namespace wlcache

#endif // WLCACHE_SIM_STATS_HH
