#ifndef PISO_CORE_MEM_POLICY_HH
#define PISO_CORE_MEM_POLICY_HH

/**
 * @file
 * The memory sharing policy of Section 3.2.
 *
 * Periodically recomputes each SPU's *entitled* level (its share of
 * memory net of kernel/shared usage and the Reserve Threshold) and
 * moves the *allowed* levels: SPUs under memory pressure receive the
 * system's idle pages, less the Reserve Threshold that hides the
 * revocation cost. When a lender wants its pages back, the borrowers'
 * allowed levels fall and the pageout daemon reclaims the excess.
 */

#include <cstdint>

#include "src/core/spu.hh"
// piso-lint: allow(layering) -- the policy/mechanism seam: the sharing
// policy drives the OS VM ledger one layer up; see
// docs/static-analysis.md (layering).
#include "src/os/vm.hh"
#include "src/sim/event_queue.hh"
#include "src/util/time.hh"

namespace piso {

/** Tunables of the sharing policy. */
struct MemPolicyConfig
{
    /** How often levels are recomputed. */
    Time period = 100 * kMs;

    /** Fraction of total memory kept free (the paper picks 8%, the
     *  value IRIX uses to decide it is low on memory). */
    double reserveFraction = 0.08;
};

/** Periodic entitled/allowed level manager for the PIso scheme. */
class MemorySharingPolicy : public EventSink
{
  public:
    MemorySharingPolicy(EventQueue &events, VirtualMemory &vm,
                        SpuManager &spus, MemPolicyConfig config = {});

    /** Set the reserve and initial levels, and begin periodic
     *  recomputation. */
    void start();

    /**
     * (Re-)schedule the periodic tick. No-op before start() or while
     * a tick is already pending. A tick that finds no active leaf SPU
     * stops rescheduling itself so an idle simulation's event queue
     * can drain; call this after SPUs are created or resumed
     * (Simulation::rebalanceSpus does) to restart the loop.
     */
    void arm();

    /**
     * One recomputation pass (public so tests and setup can invoke it
     * directly):
     *  1. entitled_i = share_i x (total - kernel - shared - reserve),
     *     with share_i resolved down the SPU tree level by level
     *     (SpuManager::entitleLeaves);
     *  2. lendable = free + sum(borrowed-out) - reserve;
     *  3. allowed_i = entitled_i, plus an equal split of lendable for
     *     SPUs under pressure.
     *
     * Costs O(leaves in the VM's active set): entitlements are
     * written only when the divisible pages or the SPU tree moved
     * (then every leaf is visited once), and steps 2 and 3 visit only
     * the leaves that hold pages, have pressure pending, are allowed
     * more than their entitlement or are entitled to nothing. Every
     * other leaf is idle at allowed = entitled, which a pass over it
     * would write back unchanged (tests/mem_ref_util.hh keeps that
     * full pass as the reference).
     */
    void recompute();

    const MemPolicyConfig &config() const { return config_; }

    /** SPU visits made by recompute passes — each leaf when
     *  entitlements are rewritten, each active-set member per pass —
     *  the policy_iters_mem perf counter. Out of band: never serialised,
     *  never in JSONL. */
    std::uint64_t policyIters() const { return policyIters_; }

    /** Checkpoint restore: whether the restored event queue holds
     *  this policy's tick. The replayed start()'s tick was wiped with
     *  the rest of the queue, so the image is the only source of
     *  truth. The policy holds no other imaged state — levels live in
     *  the VM's ledger, and the VM rebuilt its active set on load — and
     *  its entitlement cache is dropped, so the first pass after a
     *  restore is a full one. */
    void
    setTickPending(bool pending)
    {
        armed_ = pending;
        entitledValid_ = false;
    }

  private:
    /** EventSink: the memPolicy event. */
    void fire(EvKind kind, const EventArg &arg) override;
    void tick();

    /** Every managed leaf outside the VM's active set is idle: no
     *  pages, no pressure, entitled to something and allowed exactly
     *  that (the invariant recompute() relies on; a PISO_CHECK). */
    bool idleOutsideActiveSet() const;

    EventQueue &events_;
    VirtualMemory &vm_;
    SpuManager &spus_;
    MemPolicyConfig config_;

    /** start() has run (recompute() may schedule ticks). */
    bool started_ = false;

    /** A tick event is currently pending. */
    bool armed_ = false;

    /** Versions of the VM ledger and the SPU registry captured at the
     *  end of the last full recompute pass. A tick that finds both
     *  unchanged skips the pass in O(1): no charge, entitlement, or
     *  topology change means the pass would write back the identical
     *  levels (and pressure, which bumps the VM version when noted,
     *  is necessarily zero). One pass is not idempotent: one that
     *  counted an SPU below its entitlement as needy only through the
     *  pressure it consumed leaves seenValid_ false, since the next
     *  pass would withdraw that SPU's grant. */
    bool seenValid_ = false;
    std::uint64_t seenVmVersion_ = 0;
    std::uint64_t seenSpuVersion_ = 0;

    /** Entitlement cache: each managed leaf's entitlement (0 for one
     *  under a zero-share level), valid while the divisible pages and
     *  the SPU-tree version match the ones it was computed for. A
     *  leaf is managed (an active leaf) iff it has an entry. Derived
     *  state: never imaged. */
    bool entitledValid_ = false;
    std::uint64_t entitledDivisible_ = 0;
    std::uint64_t entitledSpuVersion_ = 0;
    SpuTable<std::uint64_t> entitled_;

    std::uint64_t policyIters_ = 0;
};

} // namespace piso

#endif // PISO_CORE_MEM_POLICY_HH
