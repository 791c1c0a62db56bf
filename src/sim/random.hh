#ifndef PISO_SIM_RANDOM_HH
#define PISO_SIM_RANDOM_HH

/**
 * @file
 * Deterministic pseudo-random source for the simulator.
 *
 * Every stochastic element of the simulation (rotational latency, page
 * touch intervals, workload jitter) draws from an Rng seeded from the
 * SystemConfig, so a run is exactly reproducible from its seed.
 */

#include <cstdint>

#include "src/sim/checkpoint.hh"
#include "src/util/time.hh"

namespace piso {

/**
 * A small, fast, seedable generator (xoshiro256**) with the handful of
 * distributions the simulator needs. Not cryptographic; deterministic
 * across platforms (no libstdc++ distribution objects are used).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (splitmix64-expanded to 256 bits). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniformRange(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Advance the stream exactly as uniformInt(@p n) would (the same
     *  next() calls and rejections) without computing the value. */
    void skipUniformInt(std::uint64_t n);

    /** Exponentially distributed double with the given mean. */
    double exponential(double mean);

    /** Exponentially distributed Time with the given mean. */
    Time exponentialTime(Time mean);

    /** Time uniform in [0, span). */
    Time uniformTime(Time span);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /**
     * Fork a statistically independent child stream. Used to give each
     * subsystem its own stream so adding draws in one subsystem does not
     * perturb another.
     */
    Rng fork();

    /** Same stream position. */
    bool operator==(const Rng &) const = default;

    /** Image the full 256-bit stream position. */
    void
    ckpt(CkptIo &io)
    {
        for (std::uint64_t &s : s_)
            io.u64(s);
    }

  private:
    std::uint64_t s_[4];
};

} // namespace piso

#endif // PISO_SIM_RANDOM_HH
