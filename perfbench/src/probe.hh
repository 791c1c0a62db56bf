#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

/**
 * @file
 * Instruments of the traced pass, all living in the benchmark's own
 * binary so the library is measured exactly as it is built:
 *
 *  - an allocation counter (this binary replaces the global
 *    operator new/delete; counting is armed only in the traced pass);
 *  - a SIGPROF sampler that records interrupted host PCs while a gate
 *    is open (around Simulation::run() / exp::runPlan);
 *  - a forwarding Behavior decorator that times and counts the
 *    workload layer's next() calls. It is installed at the
 *    Simulation::addJob seam (the link step wraps that symbol), so
 *    jobs added by library code — populateWorkloadSpec, the sweep
 *    engine's workers — are decorated too.
 */

#include <array>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

/** Host monotonic clock in nanoseconds. */
std::uint64_t nowNs();

/** Action kinds the decorator tallies (the workload's action mix). */
enum ActionKind : std::size_t
{
    kActCompute,
    kActRead,
    kActWrite,
    kActLock,
    kActOther,
    kActKinds
};

/** Counters of the traced pass's instruments. */
struct ProbeCounts
{
    std::uint64_t allocs = 0;      //!< operator new calls while armed
    std::uint64_t nextCalls = 0;   //!< Behavior::next() calls
    std::uint64_t nextNs = 0;      //!< host ns spent inside next()
    std::array<std::uint64_t, kActKinds> actions{};
};

/** Arm or disarm allocation counting (and the in-allocator flag the
 *  sampler reads). */
void setCountAllocs(bool on);

/** Decorate jobs added from now on (true) or add them untouched. */
void setDecorateJobs(bool on);

/** Snapshot of the counters (they only grow; callers diff two). */
ProbeCounts probeCounts();

/** Interrupted PC and the return addresses of its callers. */
constexpr std::size_t kStackDepth = 6;
struct SampleStack
{
    std::uintptr_t pc[kStackDepth];
    std::size_t depth = 0;
};

/** Samples gathered by the SIGPROF sampler. */
struct Profile
{
    /** Call chain (interrupted PC first) -> samples. */
    std::map<std::vector<std::uintptr_t>, std::uint64_t> stacks;
    std::uint64_t allocSamples = 0;  //!< inside new/delete/malloc/free
    std::uint64_t dropped = 0;       //!< buffer full
};

/** Start the CPU-time interval timer (@p intervalUs of process CPU
 *  time per sample). Samples are kept only while the gate is open;
 *  each records the interrupted PC and up to kStackDepth - 1 callers
 *  (unwound from the signal frame through the unwind tables). */
void startSampler(int intervalUs);
void stopSampler();
void setSampleGate(bool open);

/** Drain the sample buffer into a histogram. */
Profile takeProfile();

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
