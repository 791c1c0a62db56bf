#include "src/sim/random.hh"

#include <cmath>

#include "src/util/log.hh"

namespace piso {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/**
 * Whether uniformInt(@p n) keeps the raw draw @p v. Rejection sampling
 * avoids modulo bias: only draws below limit = max - max % n, the end
 * of the last whole run of n values, are kept. limit exceeds max - n,
 * so a draw at or below that is kept without computing limit; only
 * the last n values of the range cost the division.
 */
bool
keepsDraw(std::uint64_t v, std::uint64_t n)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    return v <= kMax - n || v < kMax - kMax % n;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
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

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniformRange(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    if (n == 0)
        PISO_PANIC("uniformInt(0)");
    std::uint64_t v;
    do {
        v = next();
    } while (!keepsDraw(v, n));
    return v % n;
}

void
Rng::skipUniformInt(std::uint64_t n)
{
    if (n == 0)
        PISO_PANIC("skipUniformInt(0)");
    while (!keepsDraw(next(), n)) {
    }
}

double
Rng::exponential(double mean)
{
    // Inverse CDF; 1 - uniform() is in (0, 1] so log() is finite.
    return -mean * std::log(1.0 - uniform());
}

Time
Rng::exponentialTime(Time mean)
{
    double v = exponential(static_cast<double>(mean));
    return static_cast<Time>(v);
}

Time
Rng::uniformTime(Time span)
{
    return span == 0 ? Time{0} : uniformInt(span);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace piso
