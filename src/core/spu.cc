#include "src/core/spu.hh"

#include <algorithm>
#include <cmath>

#include "src/core/ledger.hh"
#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

SpuManager::SpuManager()
{
    Spu kernel;
    kernel.id = kKernelSpu;
    kernel.name = "kernel";
    spus_[kKernelSpu] = kernel;

    Spu shared;
    shared.id = kSharedSpu;
    shared.name = "shared";
    spus_[kSharedSpu] = shared;
}

SpuId
SpuManager::create(const SpuSpec &spec)
{
    if (!(spec.share > 0.0) || !std::isfinite(spec.share))
        PISO_FATAL("SPU '", spec.name, "' must have a positive finite ",
                   "share, got ", spec.share);
    if (spec.parent != kNoSpu) {
        const Spu *p = spus_.find(spec.parent);
        if (!p || spec.parent < kFirstUserSpu)
            PISO_FATAL("SPU '", spec.name, "' declared under unknown ",
                       "parent SPU ", spec.parent);
    }
    Spu s;
    s.id = next_++;
    s.name = spec.name.empty() ? "spu" + std::to_string(s.id) : spec.name;
    s.share = spec.share;
    s.homeDisk = spec.homeDisk;
    s.parent = spec.parent;
    spus_[s.id] = s;
    if (spec.parent == kNoSpu)
        topLevel_.push_back(s.id);
    else
        spus_[spec.parent].children.push_back(s.id);
    ++version_;
    return s.id;
}

void
SpuManager::destroy(SpuId spu)
{
    if (spu == kKernelSpu || spu == kSharedSpu)
        PISO_FATAL("the default SPUs cannot be destroyed");
    const Spu *s = spus_.find(spu);
    if (!s)
        PISO_FATAL("destroying unknown SPU ", spu);
    if (!s->children.empty())
        PISO_FATAL("destroying SPU '", s->name, "' which still has ",
                   s->children.size(), " child SPUs");
    std::vector<SpuId> &siblings =
        s->parent == kNoSpu ? topLevel_ : spus_[s->parent].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), spu),
                   siblings.end());
    spus_.erase(spu);
    ++version_;
}

void
SpuManager::suspend(SpuId spu)
{
    Spu *s = spus_.find(spu);
    if (!s || spu < kFirstUserSpu)
        PISO_FATAL("cannot suspend SPU ", spu);
    s->state = SpuState::Suspended;
    ++version_;
}

void
SpuManager::resume(SpuId spu)
{
    Spu *s = spus_.find(spu);
    if (!s || spu < kFirstUserSpu)
        PISO_FATAL("cannot resume SPU ", spu);
    s->state = SpuState::Active;
    ++version_;
}

const Spu &
SpuManager::spu(SpuId id) const
{
    const Spu *s = spus_.find(id);
    if (!s)
        PISO_FATAL("unknown SPU ", id);
    return *s;
}

bool
SpuManager::exists(SpuId id) const
{
    return spus_.contains(id);
}

SpuId
SpuManager::parentOf(SpuId id) const
{
    return spu(id).parent;
}

const std::vector<SpuId> &
SpuManager::childrenOf(SpuId parent) const
{
    return parent == kNoSpu ? topLevel_ : spu(parent).children;
}

bool
SpuManager::isGroup(SpuId id) const
{
    return !spu(id).children.empty();
}

std::vector<SpuId>
SpuManager::pathOf(SpuId id) const
{
    std::vector<SpuId> path;
    for (SpuId n = id; n != kNoSpu; n = spu(n).parent)
        path.push_back(n);
    std::reverse(path.begin(), path.end());
    return path;
}

bool
SpuManager::hierarchical() const
{
    // Setup/report-time query, not an event callback.
    for (const auto &[id, s] : spus_) {
        if (id >= kFirstUserSpu && s.parent != kNoSpu)
            return true;
    }
    return false;
}

bool
SpuManager::pathActive(SpuId id) const
{
    for (SpuId n = id; n != kNoSpu; n = spu(n).parent) {
        if (spu(n).state != SpuState::Active)
            return false;
    }
    return true;
}

void
SpuManager::refreshCaches() const
{
    if (cacheVersion_ == version_)
        return;
    userCache_.clear();
    leafCache_.clear();
    topTotalCache_ = shareSum(topLevel_);
    groupTotalCache_.clear();
    // Rebuilt once per topology change and served from the cache in between.
    for (const auto &[id, s] : spus_) {
        if (!s.children.empty())
            groupTotalCache_[id] = shareSum(s.children);
        if (id < kFirstUserSpu || !pathActive(id))
            continue;
        if (s.state == SpuState::Active)
            userCache_.push_back(id);
        if (s.children.empty())
            leafCache_.push_back(id);
    }
    cacheVersion_ = version_;
}

const std::vector<SpuId> &
SpuManager::userSpus() const
{
    refreshCaches();
    return userCache_;
}

const std::vector<SpuId> &
SpuManager::leafSpus() const
{
    refreshCaches();
    return leafCache_;
}

double
SpuManager::shareSum(const std::vector<SpuId> &children) const
{
    // Suspended siblings contribute +0.0 rather than being skipped:
    // the flat registry kept suspended SPUs in its share ledger with
    // share 0, and the float sum must stay identical.
    double total = 0.0;
    for (SpuId c : children) {
        const Spu &s = spu(c);
        total += s.state == SpuState::Active ? s.share : 0.0;
    }
    return total;
}

double
SpuManager::siblingTotal(SpuId parent) const
{
    refreshCaches();
    if (parent == kNoSpu)
        return topTotalCache_;
    const double *total = groupTotalCache_.find(parent);
    return total ? *total : 0.0;
}

double
SpuManager::shareOf(SpuId id) const
{
    const Spu &s = this->spu(id);
    if (s.state != SpuState::Active)
        return 0.0;
    if (id < kFirstUserSpu) {
        // The default SPUs do not participate in the user contract;
        // report their weight against the top level (callers never
        // rely on this).
        const double total = siblingTotal(kNoSpu);
        return total == 0.0 ? 0.0 : s.share / total;
    }
    // Product of sibling-normalised shares from the top level down.
    // 1.0 * x == x exactly, so a depth-1 tree yields precisely the
    // flat share / Σ shares value.
    double f = 1.0;
    for (SpuId n : pathOf(id)) {
        const Spu &node = spu(n);
        if (node.state != SpuState::Active)
            return 0.0;
        const double total = siblingTotal(node.parent);
        if (total == 0.0)
            return 0.0;
        f = f * (node.share / total);
    }
    return f;
}

SpuTable<double>
SpuManager::cpuShares() const
{
    SpuTable<double> shares;
    for (SpuId id : leafSpus())
        shares[id] = shareOf(id);
    return shares;
}

void
SpuManager::entitleUnder(SpuId parent, std::uint64_t amount,
                         SpuTable<std::uint64_t> &out) const
{
    const double total = siblingTotal(parent);
    if (total == 0.0)
        return;
    for (SpuId c : childrenOf(parent)) {
        const Spu &s = spu(c);
        if (s.state != SpuState::Active)
            continue;
        const std::uint64_t part =
            ResourceLedger::entitledFloor(s.share / total, amount);
        if (s.children.empty())
            out[c] = part;
        else
            entitleUnder(c, part, out);
    }
}

SpuTable<std::uint64_t>
SpuManager::entitleLeaves(std::uint64_t divisible) const
{
    SpuTable<std::uint64_t> out;
    entitleLeaves(divisible, out);
    return out;
}

void
SpuManager::entitleLeaves(std::uint64_t divisible,
                          SpuTable<std::uint64_t> &out) const
{
    out.clear();
    entitleUnder(kNoSpu, divisible, out);
}

void
SpuManager::buildSubtree(SpuId parent, std::size_t node,
                         ShareTree &tree) const
{
    for (SpuId c : childrenOf(parent)) {
        const Spu &s = spu(c);
        const double share =
            s.state == SpuState::Active ? s.share : 0.0;
        const std::size_t child = tree.add(node, c, share);
        buildSubtree(c, child, tree);
    }
}

ShareTree
SpuManager::shareTree() const
{
    ShareTree tree;
    buildSubtree(kNoSpu, ShareTree::kRoot, tree);
    return tree;
}

void
SpuManager::ckpt(CkptIo &io)
{
    io.expect(spus_.size(), "SPU");
    for (SpuId id : spus_.keys()) {
        bool suspended = spus_[id].state == SpuState::Suspended;
        io.u64(id);
        io.boolean(suspended);
        if (!io.loading())
            continue;
        if (!exists(id)) {
            throw ConfigError(
                "checkpoint references unknown SPU id " +
                std::to_string(static_cast<std::uint64_t>(id)));
        }
        spus_[id].state =
            suspended ? SpuState::Suspended : SpuState::Active;
    }
    io.u64(next_);
    // The restored states may differ from anything observed during
    // setup replay; invalidate caches and captured versions.
    if (io.loading())
        ++version_;
}

} // namespace piso
