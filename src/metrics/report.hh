#ifndef PISO_METRICS_REPORT_HH
#define PISO_METRICS_REPORT_HH

/**
 * @file
 * Plain-text table/figure formatting for the benchmark harnesses.
 *
 * The paper's figures are bars of response time normalised to the
 * SMP balanced case (= 100); TextTable renders aligned rows, and
 * normalize() applies the paper's convention.
 */

#include <string>
#include <vector>

namespace piso {

/** Simple aligned text table. */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append a row (must match the header width). */
    void addRow(std::vector<std::string> row);

    /** Render with column alignment and a separator under the
     *  header. */
    std::string str() const;

    /** Render to stdout. */
    void print() const;

    /** Format a double with @p decimals places. */
    static std::string num(double v, int decimals = 1);

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** value / base * 100 (the paper's normalised response time). */
double normalize(double value, double base);

/** A banner line for bench output, e.g. "== Figure 2: ... ==". */
void printBanner(const std::string &title);

struct SimResults;

/** Render a full run summary (jobs, SPUs, disks, kernel counters) as
 *  aligned tables — a one-call report for examples and debugging.
 *  @p withPerf adds a simulator-performance line (events executed,
 *  host wall-clock, events/sec); it defaults off because host timing
 *  is nondeterministic and must stay out of golden comparisons. */
std::string formatResults(const SimResults &results,
                          bool withPerf = false);

/** formatResults() to stdout. */
void printResults(const SimResults &results);

/**
 * Render a run's results as a JSON object (jobs, SPUs, disks, kernel
 * counters) for scripting and plotting. Stable key names; numbers in
 * seconds/milliseconds as named.
 *
 * @p withPerf appends a "perf" object (events, wall_ms, setup_ms,
 * events_per_sec, policy iterations) describing the *simulator's*
 * host-side speed. It defaults off — and must stay off wherever
 * byte-identical output is required (golden fixtures, sweep JSONL
 * streams) — because wall-clock varies run to run.
 */
std::string formatResultsJson(const SimResults &results,
                              bool withPerf = false);

} // namespace piso

#endif // PISO_METRICS_REPORT_HH
