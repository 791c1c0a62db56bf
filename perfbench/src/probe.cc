#include "perfbench/src/probe.hh"

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unwind.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <variant>

#include "src/simulation.hh"

namespace perfbench {

namespace {

// --- Allocation counter ---------------------------------------------

std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};

/** True while this thread is inside the allocator with counting armed;
 *  the SIGPROF handler (which runs on the interrupted thread) reads it
 *  to charge the sample to allocation. */
thread_local bool tlInAlloc = false;

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (n == 0)
        n = 1;
    const bool counting = gCountAllocs.load(std::memory_order_relaxed);
    if (counting) {
        gAllocs.fetch_add(1, std::memory_order_relaxed);
        tlInAlloc = true;
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n);
    } else if (posix_memalign(&p, align, n) != 0) {
        p = nullptr;
    }
    if (counting) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
        tlInAlloc = false;
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    if (!gCountAllocs.load(std::memory_order_relaxed)) {
        std::free(p);
        return;
    }
    tlInAlloc = true;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    std::free(p);
    std::atomic_signal_fence(std::memory_order_seq_cst);
    tlInAlloc = false;
}

void *
allocOrThrow(std::size_t n, std::size_t align = 0)
{
    void *p = countedAlloc(n, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

// --- Sampler ----------------------------------------------------------

constexpr std::size_t kMaxSamples = std::size_t{1} << 16;
SampleStack gSamples[kMaxSamples];
std::atomic<std::size_t> gSampleCount{0};
std::atomic<std::uint64_t> gAllocSamples{0};
std::atomic<bool> gGate{false};

/** Frames walked by one sample: skip the handler and the signal
 *  trampoline up to the interrupted PC, then keep it and its callers
 *  (return addresses moved back into their call instruction). */
struct Walk
{
    std::uintptr_t interrupted = 0;
    SampleStack *out = nullptr;
    std::size_t skipped = 0;
    bool found = false;
};

_Unwind_Reason_Code
onFrame(_Unwind_Context *ctx, void *arg)
{
    auto *w = static_cast<Walk *>(arg);
    int exact = 0;
    const auto ip = static_cast<std::uintptr_t>(_Unwind_GetIPInfo(ctx, &exact));
    if (!w->found) {
        if (ip != w->interrupted)
            return ++w->skipped < 4 ? _URC_NO_REASON : _URC_END_OF_STACK;
        w->found = true;
        return _URC_NO_REASON;
    }
    w->out->pc[w->out->depth++] = exact ? ip : ip - 1;
    return w->out->depth < kStackDepth ? _URC_NO_REASON : _URC_END_OF_STACK;
}

void
onProf(int, siginfo_t *, void *context)
{
    if (!gGate.load(std::memory_order_relaxed))
        return;
    if (tlInAlloc) {
        gAllocSamples.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const auto *uc = static_cast<const ucontext_t *>(context);
    std::uintptr_t pc = 0;
#if defined(__x86_64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
    (void)uc;  // unknown architecture: every sample stays unresolved
#endif
    const std::size_t i =
        gSampleCount.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSamples)
        return;
    SampleStack &s = gSamples[i];
    s.pc[0] = pc;
    s.depth = 1;
    Walk w{pc, &s};
    _Unwind_Backtrace(onFrame, &w);
}

// --- Behavior decorator -----------------------------------------------

std::atomic<bool> gDecorate{false};
std::atomic<std::uint64_t> gNextCalls{0};
std::atomic<std::uint64_t> gNextNs{0};
std::array<std::atomic<std::uint64_t>, kActKinds> gActions{};

ActionKind
kindOf(const piso::Action &a)
{
    if (std::holds_alternative<piso::ComputeAction>(a))
        return kActCompute;
    if (std::holds_alternative<piso::ReadAction>(a))
        return kActRead;
    if (std::holds_alternative<piso::WriteAction>(a))
        return kActWrite;
    if (std::holds_alternative<piso::LockAction>(a))
        return kActLock;
    return kActOther;
}

/** Forwards every call to the wrapped behaviour; times and tallies
 *  next(). Adds no state of its own, so checkpoint images are the
 *  same bytes with or without it. */
class TimedBehavior final : public piso::Behavior
{
  public:
    explicit TimedBehavior(std::unique_ptr<piso::Behavior> inner)
        : inner_(std::move(inner))
    {
    }

    piso::Action
    next(piso::Process &self, const piso::BehaviorContext &ctx) override
    {
        const std::uint64_t t0 = nowNs();
        piso::Action a = inner_->next(self, ctx);
        const std::uint64_t t1 = nowNs();
        gNextCalls.fetch_add(1, std::memory_order_relaxed);
        gNextNs.fetch_add(t1 - t0, std::memory_order_relaxed);
        gActions[kindOf(a)].fetch_add(1, std::memory_order_relaxed);
        return a;
    }

    void save(piso::CkptWriter &w) const override { inner_->save(w); }
    void load(piso::CkptReader &r) override { inner_->load(r); }

  private:
    std::unique_ptr<piso::Behavior> inner_;
};

piso::JobSpec
decorate(piso::JobSpec spec)
{
    spec.build = [build = std::move(spec.build)](piso::Kernel &k,
                                                 piso::WorkloadEnv &env) {
        std::vector<piso::ProcessSpec> procs = build(k, env);
        for (piso::ProcessSpec &p : procs)
            p.behavior = std::make_unique<TimedBehavior>(std::move(p.behavior));
        return procs;
    };
    return spec;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setCountAllocs(bool on)
{
    gCountAllocs.store(on, std::memory_order_relaxed);
}

void
setDecorateJobs(bool on)
{
    gDecorate.store(on, std::memory_order_relaxed);
}

ProbeCounts
probeCounts()
{
    ProbeCounts c;
    c.allocs = gAllocs.load();
    c.nextCalls = gNextCalls.load();
    c.nextNs = gNextNs.load();
    for (std::size_t k = 0; k < kActKinds; ++k)
        c.actions[k] = gActions[k].load();
    return c;
}

void
startSampler(int intervalUs)
{
    // Walk once outside the handler, so any lazy set-up of the
    // unwinder has happened before the first signal.
    SampleStack scratch;
    Walk w{0, &scratch};
    _Unwind_Backtrace(onFrame, &w);

    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval tv = {};
    tv.it_interval.tv_usec = intervalUs;
    tv.it_value.tv_usec = intervalUs;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

void
stopSampler()
{
    itimerval tv = {};
    setitimer(ITIMER_PROF, &tv, nullptr);
    gGate.store(false);
}

void
setSampleGate(bool open)
{
    gGate.store(open, std::memory_order_relaxed);
}

Profile
takeProfile()
{
    Profile p;
    const std::size_t n = gSampleCount.exchange(0);
    for (std::size_t i = 0; i < n && i < kMaxSamples; ++i) {
        const SampleStack &s = gSamples[i];
        ++p.stacks[std::vector<std::uintptr_t>(s.pc, s.pc + s.depth)];
    }
    p.dropped = n > kMaxSamples ? n - kMaxSamples : 0;
    p.allocSamples = gAllocSamples.exchange(0);
    return p;
}

} // namespace perfbench

// --- The addJob seam --------------------------------------------------
//
// The link step passes --wrap for the mangled Simulation::addJob, so
// every call from outside simulation.cc lands here first. With the
// decorator off this is a plain forward.

extern "C" piso::JobId
__real__ZN4piso10Simulation6addJobEiNS_7JobSpecE(piso::Simulation *sim,
                                                 piso::SpuId spu,
                                                 piso::JobSpec spec);

extern "C" piso::JobId
__wrap__ZN4piso10Simulation6addJobEiNS_7JobSpecE(piso::Simulation *sim,
                                                 piso::SpuId spu,
                                                 piso::JobSpec spec)
{
    if (perfbench::gDecorate.load(std::memory_order_relaxed))
        spec = perfbench::decorate(std::move(spec));
    return __real__ZN4piso10Simulation6addJobEiNS_7JobSpecE(
        sim, spu, std::move(spec));
}

// --- Global allocation functions --------------------------------------

void *operator new(std::size_t n) { return perfbench::allocOrThrow(n); }
void *operator new[](std::size_t n) { return perfbench::allocOrThrow(n); }

void *
operator new(std::size_t n, std::align_val_t al)
{
    return perfbench::allocOrThrow(n, static_cast<std::size_t>(al));
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return perfbench::allocOrThrow(n, static_cast<std::size_t>(al));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return perfbench::countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return perfbench::countedAlloc(n);
}

void operator delete(void *p) noexcept { perfbench::countedFree(p); }
void operator delete[](void *p) noexcept { perfbench::countedFree(p); }
void operator delete(void *p, std::size_t) noexcept
{
    perfbench::countedFree(p);
}
void operator delete[](void *p, std::size_t) noexcept
{
    perfbench::countedFree(p);
}
void operator delete(void *p, std::align_val_t) noexcept
{
    perfbench::countedFree(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    perfbench::countedFree(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    perfbench::countedFree(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    perfbench::countedFree(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    perfbench::countedFree(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    perfbench::countedFree(p);
}
