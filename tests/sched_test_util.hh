#ifndef PISO_TESTS_SCHED_TEST_UTIL_HH
#define PISO_TESTS_SCHED_TEST_UTIL_HH

/**
 * @file
 * Test harness for CPU-scheduler policies: a fake SchedClient that
 * models pure compute-bound processes without the full Kernel.
 */

#include <map>
#include <memory>
#include <vector>

#include "src/os/scheduler.hh"
#include "src/sim/event_queue.hh"
#include "src/workload/synthetic.hh"
#include "tests/fn_sink.hh"

namespace piso::test {

/**
 * Executes processes as simple compute burners: each process has a
 * fixed amount of work; when it finishes it exits. Preemption
 * deducts partial progress, exactly like the real kernel.
 */
class FakeClient : public SchedClient
{
  public:
    FakeClient(EventQueue &events, CpuScheduler &sched)
        : events_(events), sched_(sched)
    {
        sched_.setClient(this);
    }

    /** Create a process with @p work CPU demand; does not start it. */
    Process *
    createProcess(SpuId spu, Time work, const std::string &name = "p")
    {
        const Pid pid = nextPid_++;
        auto p = std::make_unique<Process>(
            pid, spu, kNoJob, name,
            std::make_unique<ScriptBehavior>(std::vector<Action>{}),
            Rng(static_cast<std::uint64_t>(pid)));
        work_[p.get()] = work;
        sched_.processCreated(p.get());
        procs_.push_back(std::move(p));
        return procs_.back().get();
    }

    /** Make @p p runnable now. */
    void
    startProcess(Process *p)
    {
        p->startTime = events_.now();
        sched_.processReady(p);
    }

    void
    startRunning(Process &p) override
    {
        p.segmentStart = events_.now();
        const Time w = work_[&p];
        pending_[&p] = done_.scheduleAfter(w, [this, &p] {
            pending_.erase(&p);
            p.cpuTime += events_.now() - p.segmentStart;
            work_[&p] = 0;
            sched_.processExited(&p);
        });
    }

    void
    stopRunning(Process &p) override
    {
        auto it = pending_.find(&p);
        if (it != pending_.end()) {
            events_.cancel(it->second);
            pending_.erase(it);
        }
        const Time elapsed = events_.now() - p.segmentStart;
        p.cpuTime += elapsed;
        Time &w = work_[&p];
        w -= std::min(elapsed, w);
    }

    /** Stop the running @p p mid-segment and block it; its remaining
     *  work resumes when it is next made ready. */
    void
    block(Process *p)
    {
        stopRunning(*p);
        sched_.processBlocked(p);
    }

    /** Stop the running @p p mid-segment and exit it early. */
    void
    exit(Process *p)
    {
        stopRunning(*p);
        sched_.processExited(p);
    }

    Time remainingWork(Process *p) const { return work_.at(p); }

    /** Run until all created processes exited (with a safety cap). */
    void
    runToCompletion(Time cap = 3600 * kSec)
    {
        while (events_.now() <= cap) {
            bool anyLive = false;
            for (const auto &p : procs_)
                anyLive |= p->state() != ProcState::Exited;
            if (!anyLive)
                break;
            if (!events_.runOne())
                break;
        }
    }

  private:
    EventQueue &events_;
    CpuScheduler &sched_;
    FnSink done_{events_};
    Pid nextPid_ = 1;
    std::vector<std::unique_ptr<Process>> procs_;
    std::map<Process *, Time> work_;
    std::map<Process *, EventId> pending_;
};

} // namespace piso::test

#endif // PISO_TESTS_SCHED_TEST_UTIL_HH
