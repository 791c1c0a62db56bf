#include "src/core/ledger.hh"

#include <algorithm>
#include <cmath>

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

ResourceLedger::ResourceLedger(std::string resource)
    : resource_(std::move(resource))
{
}

void
ResourceLedger::registerSpu(SpuId spu)
{
    spus_.tryEmplace(spu);
}

void
ResourceLedger::forget(SpuId spu)
{
    spus_.erase(spu);
}

bool
ResourceLedger::knows(SpuId spu) const
{
    return spus_.contains(spu);
}

const ResourceLedger::Entry &
ResourceLedger::entry(SpuId spu) const
{
    const Entry *e = spus_.find(spu);
    PISO_INVARIANT(e, resource_, " ledger: unknown SPU ", spu);
    return *e;
}

ResourceLedger::Entry &
ResourceLedger::entry(SpuId spu)
{
    return const_cast<Entry &>(
        static_cast<const ResourceLedger *>(this)->entry(spu));
}

void
ResourceLedger::setShare(SpuId spu, double share)
{
    if (!(share >= 0.0) || !std::isfinite(share))
        PISO_FATAL(resource_, " ledger: share of SPU ", spu,
                   " must be a finite non-negative number, got ",
                   share);
    registerSpu(spu);
    entry(spu).share = share;
}

double
ResourceLedger::share(SpuId spu) const
{
    const Entry *e = spus_.find(spu);
    return e ? e->share : 1.0;
}

double
ResourceLedger::totalShare() const
{
    double total = 0.0;
    // Rebalance/report-time aggregation, not an event callback.
    for (const auto &[spu, e] : spus_)
        total += e.share;
    return total;
}

double
ResourceLedger::normalizedShare(SpuId spu) const
{
    const double total = totalShare();
    return total == 0.0 ? 0.0 : share(spu) / total;
}

void
ResourceLedger::setEntitled(SpuId spu, std::uint64_t units)
{
    entry(spu).levels.entitled = units;
}

void
ResourceLedger::setAllowed(SpuId spu, std::uint64_t units)
{
    entry(spu).levels.allowed = units;
}

const ResourceLevels &
ResourceLedger::levels(SpuId spu) const
{
    return entry(spu).levels;
}

bool
ResourceLedger::atLimit(SpuId spu) const
{
    const ResourceLevels &l = entry(spu).levels;
    return l.used >= l.allowed;
}

std::uint64_t
ResourceLedger::overAllowed(SpuId spu) const
{
    const ResourceLevels &l = entry(spu).levels;
    return l.used > l.allowed ? l.used - l.allowed : 0;
}

bool
ResourceLedger::tryUse(SpuId spu)
{
    ResourceLevels &l = entry(spu).levels;
    if (l.used >= l.allowed)
        return false;
    ++l.used;
    return true;
}

void
ResourceLedger::use(SpuId spu, std::uint64_t units)
{
    ResourceLevels &l = entry(spu).levels;
    PISO_CHECK(l.used + units >= l.used, resource_,
               " ledger: use of SPU ", spu, " overflows used units");
    l.used += units;
}

void
ResourceLedger::release(SpuId spu, std::uint64_t units)
{
    ResourceLevels &l = entry(spu).levels;
    PISO_INVARIANT(l.used >= units, resource_,
                   " ledger: release of SPU ", spu,
                   " below zero used units");
    l.used -= units;
}

void
ResourceLedger::transfer(SpuId from, SpuId to, std::uint64_t units)
{
    release(from, units);
    use(to, units);
}

std::uint64_t
ResourceLedger::usedTotal() const
{
    std::uint64_t total = 0;
    // Rebalance/report-time aggregation, not an event callback.
    for (const auto &[spu, e] : spus_)
        total += e.levels.used;
    return total;
}

std::uint64_t
ResourceLedger::entitledTotal() const
{
    std::uint64_t total = 0;
    // Rebalance/report-time aggregation, not an event callback.
    for (const auto &[spu, e] : spus_)
        total += e.levels.entitled;
    return total;
}

std::uint64_t
ResourceLedger::entitledFloor(double share, std::uint64_t divisible)
{
    return static_cast<std::uint64_t>(
        std::floor(share * static_cast<double>(divisible)));
}

std::vector<std::uint64_t>
ResourceLedger::apportion(const std::vector<double> &shares,
                          std::uint64_t divisible)
{
    std::vector<std::uint64_t> out(shares.size(), 0);
    double total = 0.0;
    for (double s : shares) {
        PISO_INVARIANT(s >= 0.0 && std::isfinite(s),
                       "apportioning a non-finite or negative share");
        total += s;
    }
    // Guard the all-suspended / all-zero level: nothing to normalise
    // against, so nobody is entitled to anything.
    if (shares.empty() || total == 0.0)
        return out;

    // Floor allocation, remembering each slot's fractional remainder.
    std::uint64_t assigned = 0;
    std::vector<std::pair<double, std::size_t>> fractions;
    for (std::size_t i = 0; i < shares.size(); ++i) {
        const double exact = shares[i] / total *
                             static_cast<double>(divisible);
        const std::uint64_t floor =
            static_cast<std::uint64_t>(std::floor(exact));
        out[i] = floor;
        assigned += floor;
        if (shares[i] > 0.0)
            fractions.emplace_back(exact - static_cast<double>(floor),
                                   i);
    }

    // Largest remainder first; ties go to the lower index (`fractions`
    // is ascending by index, stable_sort keeps it).
    std::stable_sort(fractions.begin(), fractions.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (std::size_t i = 0; assigned < divisible && i < fractions.size();
         ++i, ++assigned) {
        ++out[fractions[i].second];
    }
    // Rounding noise can leave a residue even after every slot got one
    // extra unit; sweep it into the first positive-share slot so the
    // parts always sum exactly to the divisible amount.
    if (assigned < divisible && !fractions.empty())
        out[fractions.front().second] += divisible - assigned;
    return out;
}

void
ResourceLedger::entitleByShare(std::uint64_t divisible)
{
    std::vector<SpuId> ids;
    std::vector<double> shares;
    ids.reserve(spus_.size());
    shares.reserve(spus_.size());
    // Runs once per rebalance, gated by the policy version skip, not
    // per event.
    for (const auto &[spu, e] : spus_) {
        ids.push_back(spu);
        shares.push_back(e.share);
    }
    const std::vector<std::uint64_t> parts = apportion(shares, divisible);
    for (std::size_t i = 0; i < ids.size(); ++i)
        spus_[ids[i]].levels.entitled = parts[i];
}

void
ResourceLedger::entitleByShare(const ShareTree &tree,
                               std::uint64_t divisible)
{
    // Top-down: each node's amount is split exactly among its
    // children; the root's amount is the whole divisible resource.
    // Iterative over an explicit stack — config trees are shallow but
    // adversarial test trees need not be.
    std::vector<std::pair<std::size_t, std::uint64_t>> stack;
    stack.emplace_back(ShareTree::kRoot, divisible);
    while (!stack.empty()) {
        const auto [idx, amount] = stack.back();
        stack.pop_back();
        const ShareTree::Node &node = tree.node(idx);
        if (node.spu != kNoSpu) {
            registerSpu(node.spu);
            entry(node.spu).levels.entitled = amount;
        }
        if (node.children.empty())
            continue;
        std::vector<double> shares;
        shares.reserve(node.children.size());
        for (std::size_t child : node.children)
            shares.push_back(tree.node(child).share);
        const std::vector<std::uint64_t> parts =
            apportion(shares, amount);
        for (std::size_t i = 0; i < node.children.size(); ++i)
            stack.emplace_back(node.children[i], parts[i]);
    }
}

} // namespace piso
