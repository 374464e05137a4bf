#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"
#include "util/strings.hh"

namespace wlcache {
namespace stats {

std::string
Scalar::render() const
{
    // The pure-integer path renders the exact accumulator; mixed or
    // fractional values render like before (integers without a
    // fraction, everything else with 6 significant digits).
    if (value_ == 0.0)
        return std::to_string(u64_);
    const double total = value();
    if (total == static_cast<double>(static_cast<std::int64_t>(total)))
        return std::to_string(static_cast<std::int64_t>(total));
    return util::fmtDouble(total, 6);
}

void
Scalar::writeJson(std::ostream &os) const
{
    os << "{\"type\":\"scalar\",\"value\":";
    if (value_ == 0.0)
        os << u64_;   // Exact past 2^53.
    else
        os << util::fmtExact(value());
    os << ",\"desc\":\"" << util::jsonEscape(desc()) << "\"}";
}

void
Distribution::sample(double v)
{
    ++count_;
    sum_ += v;
    sum_sq_ += v * v;
    if (v < min_)
        min_ = v;
    if (v > max_)
        max_ = v;
    ++buckets_[bucketIndex(v)];
}

std::size_t
Distribution::bucketIndex(double v)
{
    if (!(v >= 1.0))
        return 0;   // Sub-unit, zero, and negative samples.
    const int l = std::ilogb(v);
    return std::min<std::size_t>(kNumBuckets - 1,
                                 static_cast<std::size_t>(l) + 1);
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    // All-equal samples have zero variance by definition; computing
    // it would amplify catastrophic cancellation in sum_sq_ - sum_^2/n
    // into a spurious nonzero stddev for large magnitudes.
    if (min_ == max_)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::string
Distribution::render() const
{
    return "n=" + std::to_string(count_) +
        " mean=" + util::fmtDouble(mean(), 4) +
        " min=" + util::fmtDouble(min(), 4) +
        " max=" + util::fmtDouble(max(), 4) +
        " sd=" + util::fmtDouble(stddev(), 4);
}

void
Distribution::writeJson(std::ostream &os) const
{
    os << "{\"type\":\"distribution\",\"count\":" << count_
       << ",\"sum\":" << util::fmtExact(sum_)
       << ",\"min\":" << util::fmtExact(min())
       << ",\"max\":" << util::fmtExact(max())
       << ",\"mean\":" << util::fmtExact(mean())
       << ",\"stddev\":" << util::fmtExact(stddev())
       << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << '[' << i << ',' << buckets_[i] << ']';
    }
    os << "],\"desc\":\"" << util::jsonEscape(desc()) << "\"}";
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    sum_sq_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    buckets_.fill(0);
}

void
Scalar::ioState(StateIo &io)
{
    io.f64(value_);
    io.u64(u64_);
}

void
Distribution::ioState(StateIo &io)
{
    io.u64(count_);
    io.f64(sum_);
    io.f64(sum_sq_);
    io.f64(min_);
    io.f64(max_);
    for (std::uint64_t &b : buckets_)
        io.u64(b);
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    wlc_assert(find(name) == nullptr, "duplicate stat '%s'", name.c_str());
    auto stat = std::make_unique<Scalar>(name, desc);
    Scalar &ref = *stat;
    owned_.push_back(std::move(stat));
    return ref;
}

Distribution &
StatGroup::addDistribution(const std::string &name, const std::string &desc)
{
    wlc_assert(find(name) == nullptr, "duplicate stat '%s'", name.c_str());
    auto stat = std::make_unique<Distribution>(name, desc);
    Distribution &ref = *stat;
    owned_.push_back(std::move(stat));
    return ref;
}

void
StatGroup::addChild(StatGroup *child)
{
    wlc_assert(child != nullptr);
    children_.push_back(child);
}

void
StatGroup::resetAll()
{
    for (auto &s : owned_)
        s->reset();
    for (auto *c : children_)
        c->resetAll();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &s : owned_) {
        os << util::padRight(full + "." + s->name(), 44) << ' '
           << util::padLeft(s->render(), 14) << "  # " << s->desc()
           << '\n';
    }
    for (const auto *c : children_)
        c->dump(os, full);
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (const auto &s : owned_) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << util::jsonEscape(s->name()) << "\":";
        s->writeJson(os);
    }
    for (const auto *c : children_) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << util::jsonEscape(c->name()) << "\":";
        c->dumpJson(os);
    }
    os << '}';
}

void
StatGroup::ioState(StateIo &io)
{
    io.section("STAT");
    io.check(owned_.size(),
             ("stat group '" + name_ + "' statistics count").c_str());
    for (auto &s : owned_)
        s->ioState(io);
    io.check(children_.size(),
             ("stat group '" + name_ + "' children count").c_str());
    for (auto *c : children_)
        c->ioState(io);
}

const Statistic *
StatGroup::find(const std::string &name) const
{
    for (const auto &s : owned_)
        if (s->name() == name)
            return s.get();
    return nullptr;
}

} // namespace stats
} // namespace wlcache
