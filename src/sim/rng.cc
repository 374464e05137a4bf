#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {

namespace {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    wlc_assert(bound != 0);
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    wlc_assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next()
                                                    : nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::nextGaussian()
{
    if (have_cached_gaussian_) {
        have_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1 = nextDouble();
    double u2 = nextDouble();
    while (u1 <= 1e-300)
        u1 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gaussian_ = r * std::sin(theta);
    have_cached_gaussian_ = true;
    return r * std::cos(theta);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
Rng::nextExponential(double mean_value)
{
    double u = nextDouble();
    while (u <= 1e-300)
        u = nextDouble();
    return -mean_value * std::log(u);
}

void
Rng::ioState(StateIo &io)
{
    io.section("RNG ");
    for (std::uint64_t &s : s_)
        io.u64(s);
    io.b(have_cached_gaussian_);
    io.f64(cached_gaussian_);
}

} // namespace wlcache
