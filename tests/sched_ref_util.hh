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
 * path-building kinship PIso's loans used before it walked the tree
 * in place is kept here too.
 */

#include <algorithm>
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
