#include "sim/rng.hh"

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

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
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
