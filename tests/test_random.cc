/**
 * @file
 * Unit tests for the deterministic random source.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/random.hh"

using namespace piso;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(17);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniformRange(3.0, 5.0);
        EXPECT_GE(v, 3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng r(19);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i)
        ++seen[r.uniformInt(10)];
    for (int c : seen)
        EXPECT_GT(c, 700); // each bucket near 1000
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng r(23);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(42.0);
    EXPECT_NEAR(sum / n, 42.0, 1.0);
}

TEST(Rng, ExponentialNonNegative)
{
    Rng r(29);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.exponential(5.0), 0.0);
}

TEST(Rng, ExponentialTimeMeanMatches)
{
    Rng r(31);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.exponentialTime(10 * kMs));
    EXPECT_NEAR(sum / n, static_cast<double>(10 * kMs),
                static_cast<double>(kMs));
}

TEST(Rng, UniformTimeZeroSpan)
{
    Rng r(37);
    EXPECT_EQ(r.uniformTime(0), 0u);
}

TEST(Rng, UniformTimeWithinSpan)
{
    Rng r(41);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.uniformTime(kSec), kSec);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(43);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(47);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIndependentOfParentDraws)
{
    // fork() then parent draws should not change the child's stream.
    Rng parent1(99);
    Rng child1 = parent1.fork();
    Rng parent2(99);
    Rng child2 = parent2.fork();
    (void)parent1.next(); // extra parent draw
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(child1.next(), child2.next());
}

TEST(Rng, ForkedStreamsDiffer)
{
    Rng parent(101);
    Rng a = parent.fork();
    Rng b = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

namespace {

/** uniformInt as first written: limit computed on every draw. */
std::uint64_t
uniformIntTwoDivisions(Rng &r, std::uint64_t n)
{
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
    std::uint64_t v;
    do {
        v = r.next();
    } while (v >= limit);
    return v % n;
}

} // namespace

TEST(Rng, UniformIntAndItsSkipMatchTheTwoDivisionFormula)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::vector<std::uint64_t> ns = {1,
                                     2,
                                     3,
                                     (std::uint64_t{1} << 32) - 1,
                                     (std::uint64_t{1} << 32) + 1,
                                     std::uint64_t{1} << 63,
                                     (std::uint64_t{1} << 63) + 1,
                                     kMax};
    Rng pick(99);
    for (int i = 0; i < 8; ++i) {
        ns.push_back(pick.next() | 1);                  // any width
        ns.push_back(1 + (pick.next() >> (1 + i * 7))); // narrower
    }

    const std::uint64_t halfPlusOne = (std::uint64_t{1} << 63) + 1;
    std::uint64_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        for (const std::uint64_t n : ns) {
            Rng fast(seed), skip(seed), ref(seed);
            for (int d = 0; d < 64; ++d) {
                ASSERT_EQ(fast.uniformInt(n), uniformIntTwoDivisions(ref, n))
                    << "seed " << seed << " n " << n << " draw " << d;
                skip.skipUniformInt(n);
                ASSERT_EQ(skip, ref) << "seed " << seed << " n " << n;
            }
            ASSERT_EQ(fast, ref);
            if (n != halfPlusOne)
                continue;
            // Raw draws beyond the 64 kept ones were rejected.
            Rng walk(seed);
            for (std::uint64_t draws = 0; !(walk == ref); ++draws) {
                walk.next();
                rejected += draws >= 64 ? 1 : 0;
            }
        }
    }
    // n = 2^63 + 1 keeps only draws at or below 2^63, so about half of
    // all raw draws are rejected and the rejection loop is exercised.
    EXPECT_GT(rejected, 64u * 64 / 2);
}
