#ifndef PISO_OS_BEHAVIOR_HH
#define PISO_OS_BEHAVIOR_HH

/**
 * @file
 * Behavior: the program a simulated process executes.
 */

#include "src/os/action.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"
#include "src/util/time.hh"

namespace piso {

class Process;

/** Read-only context handed to behaviours when they emit actions. */
struct BehaviorContext
{
    Time now;   //!< current simulated time
    Rng &rng;   //!< per-process random stream
};

/**
 * A supplier of Actions. The kernel calls next() each time the previous
 * action finishes; returning ExitAction ends the process.
 *
 * Implementations live in src/workload (pmake, Ocean, file copy, ...)
 * and in tests (scripted sequences).
 */
class Behavior
{
  public:
    virtual ~Behavior() = default;

    /** Produce the process's next action. */
    virtual Action next(Process &self, const BehaviorContext &ctx) = 0;

    /** @name Checkpoint — image only mutable cursor state; the
     *  behaviour object itself (scripts, parameters) is rebuilt by
     *  the deterministic setup replay. */
    /// @{
    /** One body writes the state and reads it back (io.loading()
     *  tells which), checking what it reads only when loading.
     *  Default: stateless. */
    virtual void ckpt(CkptIo &) {}

    /** The two directions Process::ckpt calls, both running ckpt(). A
     *  behaviour that wraps another forwards these to it. */
    virtual void
    save(CkptWriter &w) const
    {
        CkptIo io(w);
        // Saving only reads the fields ckpt() names.
        const_cast<Behavior *>(this)->ckpt(io);
    }

    virtual void
    load(CkptReader &r)
    {
        CkptIo io(r);
        ckpt(io);
    }
    /// @}
};

} // namespace piso

#endif // PISO_OS_BEHAVIOR_HH
