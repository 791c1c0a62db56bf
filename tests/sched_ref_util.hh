#ifndef PISO_TESTS_SCHED_REF_UTIL_HH
#define PISO_TESTS_SCHED_REF_UTIL_HH

/**
 * @file
 * Full-scan reference model for CPU placement, and an index check.
 *
 * CpuScheduler places a ready process, reclaims a loaned CPU and runs
 * the tick's idle pass from a per-SPU CPU index, visiting only the
 * CPUs an SPU holds a share on. The reference here is the
 * implementation the index replaces: every wake-up scans all CPUs,
 * PIso's revocation scans all CPUs for the SPU's loaned one, and every
 * tick offers a dispatch to every idle CPU. FullScanRef<Policy> runs a
 * policy with those scans, so a twin driven through the same steps
 * must end every step in the same state (test_sched_index.cc). The
 * cross-SPU picks (Quo's popBestForeign, PIso's popBestKin) walk only
 * the SPUs with waiting work; their full ready-table scans are kept
 * here as popForeignRef. The path-building kinship PIso's loans used
 * before it walked the tree in place is kept here too, and so are the
 * node-based ready structures the queues were before they became
 * vectors (ListReadyRef).
 */

#include <algorithm>
#include <cstdint>
#include <list>
#include <set>
#include <type_traits>
#include <vector>

#include "src/core/sched_piso.hh"
#include "src/core/spu_table.hh"
#include "src/os/scheduler.hh"

namespace piso::testutil {

/** @p Policy with the full-machine scans of the pre-index scheduler. */
template <class Policy>
class FullScanRef : public Policy
{
  public:
    using Policy::Policy;

    /** processReady as the full scan did it. */
    void
    processReadyRef(Process *p)
    {
        p->setState(ProcState::Ready);
        p->readySince = this->events_.now();
        const CpuId id = fullScanCpuFor(p);
        this->enqueueReady(p);
        if (id != kNoCpu)
            this->dispatch(this->cpus_[static_cast<std::size_t>(id)]);
        else
            this->onReadyNoIdle(p);
    }

    /** The first idle eligible CPU whose home SPU is p's own or none,
     *  else the first idle eligible CPU at all (kNoCpu if none). */
    CpuId
    fullScanCpuFor(const Process *p) const
    {
        CpuId fallback = kNoCpu;
        for (const Cpu &c : this->cpus_) {
            if (!c.online || c.running || !this->eligibleIdle(c, p))
                continue;
            if (c.homeSpu == p->spu() || c.homeSpu == kNoSpu)
                return c.id;
            if (fallback == kNoCpu)
                fallback = c.id;
        }
        return fallback;
    }

    /** @name Cross-SPU picks */
    /// @{
    /** Make @p p ready without placing it (a ready set, built up). */
    void enqueue(Process *p) { this->enqueueReady(p); }

    /** The policy's own pick of the best ready process outside
     *  @p owner's queue: popBestKin under PIso, else popBestForeign. */
    Process *
    popForeign(SpuId owner)
    {
        if constexpr (std::is_base_of_v<PisoScheduler, Policy>)
            return this->popBestKin(owner);
        else
            return this->popBestForeign(owner);
    }

    /** The same pick as a scan of every SPU's queue, empty or not, in
     *  ascending id order: the highest kinship with @p owner wins,
     *  then priority. With no parent links every kinship is 0, which
     *  is popBestForeign's scan. */
    Process *
    popForeignRef(SpuId owner)
    {
        Process *best = nullptr;
        std::size_t bestAt = 0;
        std::size_t bestKin = 0;
        for (auto [spu, queue] : this->ready_) {
            if (spu == owner)
                continue;
            const std::size_t kin =
                PisoScheduler::kinship(parents_, owner, spu);
            if (best && kin < bestKin)
                continue;
            for (std::size_t i = 0; i < queue.size(); ++i) {
                if (!best || kin > bestKin ||
                    (kin == bestKin &&
                     this->higherPriority(queue[i], best))) {
                    best = queue[i];
                    bestAt = i;
                    bestKin = kin;
                }
            }
        }
        return best ? this->takeReady(best->spu(), bestAt) : nullptr;
    }
    /// @}

    void
    setSpuParents(const SpuTable<SpuId> &parents) override
    {
        // Only PIso's loans follow kinship.
        if constexpr (std::is_base_of_v<PisoScheduler, Policy>)
            parents_ = parents;
        Policy::setSpuParents(parents);
    }

  protected:
    void
    onReadyNoIdle(Process *p) override
    {
        if constexpr (std::is_base_of_v<PisoScheduler, Policy>) {
            for (Cpu &c : this->cpus_) {
                if (this->currentOwner(c) != p->spu() || !c.loaned)
                    continue;
                this->reclaim(c);
                return;
            }
        } else {
            Policy::onReadyNoIdle(p);
        }
    }

    void
    idlePass() override
    {
        for (Cpu &c : this->cpus_) {
            if (!c.running)
                this->dispatch(c);
        }
    }

  private:
    /** The parent links popForeignRef's kinship reads. */
    SpuTable<SpuId> parents_;
};

/** PisoScheduler::kinship as it was first written: build both
 *  root-down paths and count their common prefix. */
inline std::size_t
pathKinship(const SpuTable<SpuId> &parents, SpuId a, SpuId b)
{
    const auto pathTo = [&parents](SpuId spu) {
        std::vector<SpuId> path;
        for (SpuId n = spu; n != kNoSpu;) {
            path.push_back(n);
            const SpuId *p = parents.find(n);
            n = p ? *p : kNoSpu;
        }
        std::reverse(path.begin(), path.end());
        return path;
    };
    const std::vector<SpuId> pa = pathTo(a);
    const std::vector<SpuId> pb = pathTo(b);
    std::size_t n = 0;
    while (n < pa.size() && n < pb.size() && pa[n] == pb[n])
        ++n;
    return n;
}

/** CpuScheduler's priority order, for code outside a scheduler. */
struct PriorityOrder : CpuScheduler
{
    using CpuScheduler::higherPriority;
};

/**
 * The ready structures as they were before the queues became vectors,
 * with each pick written over them as it was and its policy-loop
 * iterations counted alike: one global std::list (SMP), or a std::list
 * per SPU plus a std::set of the SPUs with waiting work (Quo, PIso).
 * A twin fed the same processes as a policy must pick the same ones,
 * count the same iterations and image the same bytes
 * (test_sched_index.cc).
 */
class ListReadyRef
{
  public:
    /** @p global: SMP's one queue, else per-SPU queues. */
    explicit ListReadyRef(bool global) : global_(global) {}

    /** Make @p p ready, at the back of its queue. */
    void
    enqueue(Process *p)
    {
        if (global_) {
            all_.push_back(p);
            return;
        }
        ready_[p->spu()].push_back(p);
        nonEmpty_.insert(p->spu());
    }

    /** Take the queued @p p off its queue without a pick. */
    void
    take(Process *p)
    {
        if (global_) {
            all_.remove(p);
            return;
        }
        ready_[p->spu()].remove(p);
        noteQueueDrained(p->spu());
    }

    /** SmpScheduler::selectNext. */
    Process *
    popGlobal()
    {
        if (all_.empty())
            return nullptr;
        iters_ += all_.size();
        auto best = all_.begin();
        for (auto it = std::next(all_.begin()); it != all_.end(); ++it) {
            if (PriorityOrder::higherPriority(*it, *best))
                best = it;
        }
        Process *p = *best;
        all_.erase(best);
        return p;
    }

    /** QuotaScheduler::popBest. */
    Process *
    popBest(SpuId spu)
    {
        auto *qp = ready_.find(spu);
        if (!qp || qp->empty())
            return nullptr;
        auto &queue = *qp;
        iters_ += queue.size();
        auto best = queue.begin();
        for (auto q = std::next(queue.begin()); q != queue.end(); ++q) {
            if (PriorityOrder::higherPriority(*q, *best))
                best = q;
        }
        Process *p = *best;
        queue.erase(best);
        noteQueueDrained(spu);
        return p;
    }

    /** PisoScheduler::popBestKin over @p parents; with no links,
     *  QuotaScheduler::popBestForeign. */
    Process *
    popBestKin(SpuId owner, const SpuTable<SpuId> &parents)
    {
        Process *best = nullptr;
        std::size_t bestKin = 0;
        for (SpuId spu : nonEmpty_) {
            ++iters_;
            if (spu == owner)
                continue;
            const std::size_t kin =
                parents.empty() ? 0
                                : PisoScheduler::kinship(parents, owner, spu);
            if (best && kin < bestKin)
                continue;
            for (Process *q : ready_[spu]) {
                if (!best || kin > bestKin ||
                    (kin == bestKin &&
                     PriorityOrder::higherPriority(q, best))) {
                    best = q;
                    bestKin = kin;
                }
            }
        }
        if (best)
            take(best);
        return best;
    }

    /** Image the queues as the policy's ckptReady does. */
    void
    ckpt(CkptIo &io, const ProcessByPid &byPid, std::size_t spuBound)
    {
        if (global_) {
            ckptProcesses(io, all_, byPid);
            return;
        }
        ready_.table(io, spuBound, [&io, &byPid](std::list<Process *> &q) {
            ckptProcesses(io, q, byPid);
        });
        if (!io.loading())
            return;
        nonEmpty_.clear();
        for (auto [spu, queue] : ready_) {
            if (!queue.empty())
                nonEmpty_.insert(spu);
        }
    }

    /** Ready processes of @p spu (per-SPU queues). */
    std::size_t
    readyCount(SpuId spu) const
    {
        const auto *queue = ready_.find(spu);
        return queue ? queue->size() : 0;
    }

    /** Ready processes in the global queue. */
    std::size_t globalCount() const { return all_.size(); }

    std::uint64_t policyIters() const { return iters_; }

  private:
    void
    noteQueueDrained(SpuId spu)
    {
        const auto *q = ready_.find(spu);
        if (q == nullptr || q->empty())
            nonEmpty_.erase(spu);
    }

    bool global_;
    std::list<Process *> all_;
    SpuTable<std::list<Process *>> ready_;
    std::set<SpuId> nonEmpty_;
    std::uint64_t iters_ = 0;
};

/** cpusOf/unownedCpus recomputed from the CPUs' ownership fields. */
struct CpuIndexRef
{
    SpuTable<std::vector<CpuId>> own;
    std::vector<CpuId> unowned;
};

inline CpuIndexRef
cpuIndexFromCpus(const CpuScheduler &s)
{
    CpuIndexRef ref;
    for (CpuId id = 0; id < s.numCpus(); ++id) {
        const Cpu &c = s.cpu(id);
        if (c.homeSpu == kNoSpu)
            ref.unowned.push_back(id);
        std::vector<SpuId> holders;
        if (c.homeSpu != kNoSpu)
            holders.push_back(c.homeSpu);
        for (const auto &[spu, frac] : c.timeShares)
            holders.push_back(spu);
        for (SpuId spu : holders) {
            std::vector<CpuId> &v = ref.own[spu];
            if (v.empty() || v.back() != id)
                v.push_back(id);
        }
    }
    return ref;
}

} // namespace piso::testutil

#endif // PISO_TESTS_SCHED_REF_UTIL_HH
