#include "src/os/process.hh"

#include <type_traits>
#include <utility>

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

const char *
procStateName(ProcState s)
{
    switch (s) {
      case ProcState::Embryo:
        return "embryo";
      case ProcState::Ready:
        return "ready";
      case ProcState::Running:
        return "running";
      case ProcState::Blocked:
        return "blocked";
      case ProcState::Exited:
        return "exited";
    }
    return "?";
}

Process::Process(Pid pid, SpuId spu, JobId job, std::string name,
                 std::unique_ptr<Behavior> behavior, Rng rng)
    : pid_(pid), spu_(spu), job_(job), name_(std::move(name)),
      behavior_(std::move(behavior)), rng_(rng)
{
    if (!behavior_)
        PISO_FATAL("process '", name_, "' created without a behavior");
}

namespace {

/** A default-constructed action of variant alternative @p kind. */
template <std::size_t... I>
Action
actionOfKind(std::size_t kind, std::index_sequence<I...>)
{
    Action a;
    ((kind == I ? (void)a.emplace<I>() : void()), ...);
    return a;
}

void
ckptAction(CkptIo &io, Action &a)
{
    auto kind = static_cast<std::uint8_t>(a.index());
    io.u8(kind);
    if (io.loading()) {
        if (kind >= std::variant_size_v<Action>) {
            throw ConfigError("checkpoint image rejected: unknown action "
                              "kind " + std::to_string(kind));
        }
        a = actionOfKind(
            kind, std::make_index_sequence<std::variant_size_v<Action>>{});
    }
    std::visit(
        [&io](auto &act) {
            using T = std::decay_t<decltype(act)>;
            if constexpr (std::is_same_v<T, ComputeAction> ||
                          std::is_same_v<T, SleepAction>) {
                io.time(act.duration);
            } else if constexpr (std::is_same_v<T, ReadAction>) {
                io.i64(act.file);
                io.u64(act.offset);
                io.u64(act.bytes);
            } else if constexpr (std::is_same_v<T, WriteAction>) {
                io.i64(act.file);
                io.u64(act.offset);
                io.u64(act.bytes);
                io.boolean(act.sync);
            } else if constexpr (std::is_same_v<T, GrowMemAction> ||
                                 std::is_same_v<T, ShrinkMemAction>) {
                io.u64(act.pages);
            } else if constexpr (std::is_same_v<T, BarrierAction>) {
                io.i64(act.barrier);
                io.boolean(act.spin);
            } else if constexpr (std::is_same_v<T, LockAction>) {
                io.i64(act.lock);
                io.boolean(act.exclusive);
                io.time(act.hold);
            } else if constexpr (std::is_same_v<T, SendAction>) {
                io.u64(act.bytes);
            } else {
                static_assert(std::is_same_v<T, ExitAction>);
            }
        },
        a);
}

} // namespace

void
ckptProcess(CkptIo &io, Process *&p, const ProcessByPid &byPid)
{
    Pid pid = io.loading() ? kNoPid : p->pid();
    io.i64(pid);
    if (io.loading())
        p = byPid(pid);
}

void
Process::ckpt(CkptIo &io)
{
    io.u8(state_);
    if (state_ > ProcState::Exited) {
        throw ConfigError("checkpoint image rejected: unknown process "
                          "state " +
                          std::to_string(static_cast<int>(state_)));
    }
    rng_.ckpt(io);
    // Through save()/load(), the seams a wrapping behaviour forwards;
    // both run the behaviour's own ckpt().
    if (io.loading())
        behavior_->load(io.reader());
    else
        behavior_->save(io.writer());

    double recent = recentCpu();  // images carry the decay folded in
    io.f64(recent);
    io.f64(nice);
    io.i64(runningOn);
    io.i64(lastRanOn);
    io.time(sliceUsed);
    io.time(readySince);

    io.time(computeRemaining);
    io.time(segmentStart);
    io.boolean(segmentFaults);
    io.i64(pendingIo);
    io.i64(lockHeld);
    bool hasAction = pendingAction.has_value();
    io.boolean(hasAction);
    if (io.loading()) {
        pendingAction = hasAction ? std::optional<Action>(std::in_place)
                                  : std::nullopt;
    }
    if (pendingAction)
        ckptAction(io, *pendingAction);
    io.boolean(spinning);
    io.boolean(ioFailed);

    io.u64(workingSet);
    io.u64(resident);
    io.u64(everTouched);
    io.f64(dirtyFraction);
    io.time(touchInterval);
    io.time(growInterval);

    io.time(startTime);
    io.time(endTime);
    io.time(cpuTime);
    io.time(blockedTime);
    io.time(lastBlockStart);
    io.u64(zeroFillFaults);
    io.u64(refaults);
    io.u64(diskReads);
    io.u64(diskWrites);

    if (io.loading()) {
        setRecentCpu(recent);
        // The pending events are re-linked by the restore path.
        segmentEvent = kNoEvent;
        startEvent = kNoEvent;
        wakeEvent = kNoEvent;
    }
}

} // namespace piso
