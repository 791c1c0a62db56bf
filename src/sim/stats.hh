#ifndef PISO_SIM_STATS_HH
#define PISO_SIM_STATS_HH

/**
 * @file
 * Lightweight statistics primitives for the simulator.
 *
 * Three shapes cover everything the evaluation needs:
 *  - Counter:     monotonically increasing event/byte/sector counts.
 *  - Accumulator: streaming mean / min / max / stddev of samples
 *                 (request wait times, seek latencies, ...).
 *  - Histogram:   fixed-width buckets for distribution shape.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/checkpoint.hh"

namespace piso {

/** A monotonically increasing count. */
class Counter
{
  public:
    /** Add @p n to the count. */
    void add(std::uint64_t n = 1) { value_ += n; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero. */
    void reset() { value_ = 0; }

    void ckpt(CkptIo &io) { io.u64(value_); }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Streaming sample statistics using Welford's algorithm (numerically
 * stable single-pass mean and variance).
 */
class Accumulator
{
  public:
    /** Record one sample. */
    void sample(double v);

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Mean of samples (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Smallest sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Largest sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Population standard deviation (0 with < 2 samples). */
    double stddev() const;

    /** Discard all samples. */
    void reset();

    void
    ckpt(CkptIo &io)
    {
        io.u64(count_);
        io.f64(mean_);
        io.f64(m2_);
        io.f64(sum_);
        io.f64(min_);
        io.f64(max_);
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width-bucket histogram over [lo, hi); out-of-range samples land
 * in saturating underflow/overflow buckets.
 */
class Histogram
{
  public:
    /**
     * @param lo      Lower bound of the tracked range.
     * @param hi      Upper bound (exclusive); must be > lo.
     * @param buckets Number of equal-width buckets; must be >= 1.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample. */
    void sample(double v);

    /** Count in bucket @p i (0-based). */
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }

    /** Number of in-range buckets. */
    std::size_t buckets() const { return counts_.size(); }

    /** Samples below lo. */
    std::uint64_t underflow() const { return underflow_; }

    /** Samples at or above hi. */
    std::uint64_t overflow() const { return overflow_; }

    /** Total samples recorded, including under/overflow. */
    std::uint64_t total() const { return total_; }

    /**
     * Value below which @p fraction of samples fall (linear
     * interpolation inside the winning bucket). @p fraction in [0, 1].
     */
    double percentile(double fraction) const;

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace piso

#endif // PISO_SIM_STATS_HH
