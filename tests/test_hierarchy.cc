/**
 * @file
 * Property tests for the hierarchical SPU tree: entitlements exact-sum
 * at *every* level of randomly generated trees (depth <= 4, <= 256
 * leaves), and depth-1 trees reproduce the flat code path bit for bit
 * — the guarantee that lets the golden fixtures stand untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/ledger.hh"
#include "src/core/share_tree.hh"
#include "src/core/spu.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"
#include "src/util/error.hh"

using namespace piso;

namespace {

constexpr std::size_t kMaxDepth = 4;
constexpr std::size_t kMaxLeaves = 256;

/** shareOf() recomputed from the public tree, summing every sibling
 *  set afresh instead of reading SpuManager's cached totals. */
double
uncachedShareOf(const SpuManager &mgr, SpuId id)
{
    if (mgr.spu(id).state != SpuState::Active)
        return 0.0;
    double f = 1.0;
    for (SpuId n : mgr.pathOf(id)) {
        const Spu &node = mgr.spu(n);
        if (node.state != SpuState::Active)
            return 0.0;
        double total = 0.0;
        for (SpuId c : mgr.childrenOf(node.parent)) {
            const Spu &s = mgr.spu(c);
            total += s.state == SpuState::Active ? s.share : 0.0;
        }
        if (total == 0.0)
            return 0.0;
        f = f * (node.share / total);
    }
    return f;
}

/** Grow a random tree under @p parent, returning next free SPU id. */
SpuId
growRandom(ShareTree &tree, Rng &rng, std::size_t parent,
           std::size_t depth, std::size_t &leaves, SpuId next)
{
    const std::size_t fanout = 1 + rng.uniformInt(5);
    for (std::size_t i = 0; i < fanout && leaves < kMaxLeaves; ++i) {
        // An occasional zero share models a suspended SPU.
        const double share =
            rng.uniformInt(8) == 0 ? 0.0 : rng.uniform() * 4.0;
        const std::size_t node = tree.add(parent, next++, share);
        if (depth + 1 < kMaxDepth && rng.uniformInt(3) == 0) {
            next = growRandom(tree, rng, node, depth + 1, leaves, next);
        } else {
            ++leaves;
        }
    }
    return next;
}

ShareTree
randomTree(Rng &rng)
{
    ShareTree tree;
    std::size_t leaves = 0;
    growRandom(tree, rng, ShareTree::kRoot, 0, leaves, kFirstUserSpu);
    return tree;
}

/** Check the exact-sum invariant at one node and recurse. */
void
checkNode(const ShareTree &tree, const ResourceLedger &l,
          std::size_t idx, std::uint64_t amount)
{
    const ShareTree::Node &node = tree.node(idx);
    if (node.spu != kNoSpu) {
        EXPECT_EQ(l.levels(node.spu).entitled, amount)
            << "node for SPU " << node.spu;
        if (node.share == 0.0)
            EXPECT_EQ(amount, 0u) << "zero-share SPU " << node.spu;
    }
    if (node.children.empty())
        return;
    bool anyPositive = false;
    std::uint64_t childSum = 0;
    for (std::size_t c : node.children) {
        anyPositive |= tree.node(c).share > 0.0;
        childSum += l.levels(tree.node(c).spu).entitled;
    }
    // The exact-sum guarantee at this level: the children partition
    // the node's amount (nothing when every child is suspended).
    EXPECT_EQ(childSum, anyPositive ? amount : 0u);
    for (std::size_t c : node.children)
        checkNode(tree, l, c, l.levels(tree.node(c).spu).entitled);
}

} // namespace

// ---------------------------------------------------------------------
// Exact-sum entitlement at every level of random trees
// ---------------------------------------------------------------------

TEST(Hierarchy, TreeEntitleExactSumAtEveryLevel)
{
    Rng rng(2026);
    for (int trial = 0; trial < 100; ++trial) {
        const ShareTree tree = randomTree(rng);
        const std::uint64_t divisible = rng.uniformInt(1u << 22);
        ResourceLedger l("test");
        l.entitleByShare(tree, divisible);

        bool anyPositive = false;
        std::uint64_t topSum = 0;
        for (std::size_t c : tree.root().children) {
            anyPositive |= tree.node(c).share > 0.0;
            topSum += l.levels(tree.node(c).spu).entitled;
        }
        ASSERT_EQ(topSum, anyPositive ? divisible : 0u)
            << "trial " << trial << " divisible " << divisible;
        for (std::size_t c : tree.root().children)
            checkNode(tree, l, c,
                      l.levels(tree.node(c).spu).entitled);
    }
}

// ---------------------------------------------------------------------
// Depth-1 trees are bit-for-bit the flat code path
// ---------------------------------------------------------------------

TEST(Hierarchy, Depth1TreeMatchesFlatEntitleBitForBit)
{
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(32);
        std::vector<double> shares;
        for (std::size_t i = 0; i < n; ++i) {
            shares.push_back(rng.uniformInt(6) == 0
                                 ? 0.0
                                 : rng.uniform() * 1e3);
        }
        const std::uint64_t divisible = rng.uniformInt(1u << 22);

        ResourceLedger flat("flat");
        ShareTree tree;
        for (std::size_t i = 0; i < n; ++i) {
            const SpuId spu = kFirstUserSpu + static_cast<SpuId>(i);
            flat.setShare(spu, shares[i]);
            tree.add(ShareTree::kRoot, spu, shares[i]);
        }
        flat.entitleByShare(divisible);

        ResourceLedger viaTree("tree");
        viaTree.entitleByShare(tree, divisible);

        for (std::size_t i = 0; i < n; ++i) {
            const SpuId spu = kFirstUserSpu + static_cast<SpuId>(i);
            EXPECT_EQ(viaTree.levels(spu).entitled,
                      flat.levels(spu).entitled)
                << "trial " << trial << " spu " << spu;
        }
    }
}

TEST(Hierarchy, Depth1ManagerSharesMatchFlatRule)
{
    Rng rng(13);
    for (int trial = 0; trial < 50; ++trial) {
        SpuManager mgr;
        const std::size_t n = 1 + rng.uniformInt(16);
        std::vector<SpuId> ids;
        std::vector<double> shares;
        for (std::size_t i = 0; i < n; ++i) {
            shares.push_back(0.25 + rng.uniform() * 8.0);
            ids.push_back(mgr.create({.name = "", .share = shares[i]}));
        }
        // Sum in ascending id order — exactly the flat registry rule.
        double total = 0.0;
        for (double s : shares)
            total += s;
        const std::uint64_t divisible = rng.uniformInt(1u << 22);
        const auto entitled = mgr.entitleLeaves(divisible);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(mgr.shareOf(ids[i]), shares[i] / total);
            ASSERT_TRUE(entitled.contains(ids[i]));
            EXPECT_EQ(*entitled.find(ids[i]),
                      ResourceLedger::entitledFloor(shares[i] / total,
                                                    divisible));
        }
        EXPECT_EQ(mgr.leafSpus(), mgr.userSpus());
        EXPECT_FALSE(mgr.hierarchical());
        EXPECT_TRUE(mgr.shareTree().flat());
    }
}

// ---------------------------------------------------------------------
// Effective shares multiply down the path
// ---------------------------------------------------------------------

TEST(Hierarchy, EffectiveShareIsProductOfSiblingNormalisedShares)
{
    SpuManager mgr;
    const SpuId eng = mgr.create({.name = "eng", .share = 2.0});
    const SpuId ops = mgr.create({.name = "ops", .share = 1.0});
    const SpuId build =
        mgr.create({.name = "eng.build", .share = 3.0, .parent = eng});
    const SpuId test =
        mgr.create({.name = "eng.test", .share = 1.0, .parent = eng});
    const SpuId web =
        mgr.create({.name = "ops.web", .share = 1.0, .parent = ops});

    EXPECT_TRUE(mgr.hierarchical());
    EXPECT_TRUE(mgr.isGroup(eng));
    EXPECT_FALSE(mgr.isGroup(build));
    EXPECT_EQ(mgr.parentOf(build), eng);
    EXPECT_EQ(mgr.pathOf(build), (std::vector<SpuId>{eng, build}));

    // Groups: normalised against each other only.
    EXPECT_EQ(mgr.shareOf(eng), 2.0 / 3.0);
    EXPECT_EQ(mgr.shareOf(ops), 1.0 / 3.0);
    // Leaves: the product down the path.
    EXPECT_EQ(mgr.shareOf(build), (2.0 / 3.0) * (3.0 / 4.0));
    EXPECT_EQ(mgr.shareOf(test), (2.0 / 3.0) * (1.0 / 4.0));
    EXPECT_EQ(mgr.shareOf(web), (1.0 / 3.0) * 1.0);

    // Only leaves hold CPU shares; groups may not run jobs.
    const auto cpu = mgr.cpuShares();
    EXPECT_FALSE(cpu.contains(eng));
    EXPECT_TRUE(cpu.contains(build));
    EXPECT_EQ(mgr.leafSpus(), (std::vector<SpuId>{build, test, web}));
}

TEST(Hierarchy, SuspendedGroupZeroesItsSubtree)
{
    SpuManager mgr;
    const SpuId eng = mgr.create({.name = "eng", .share = 1.0});
    const SpuId ops = mgr.create({.name = "ops", .share = 1.0});
    const SpuId build =
        mgr.create({.name = "eng.build", .share = 1.0, .parent = eng});
    const SpuId web =
        mgr.create({.name = "ops.web", .share = 1.0, .parent = ops});

    mgr.suspend(eng);
    EXPECT_EQ(mgr.shareOf(eng), 0.0);
    EXPECT_EQ(mgr.shareOf(build), 0.0);
    EXPECT_EQ(mgr.shareOf(web), 1.0); // sibling group absorbs the pie
    EXPECT_EQ(mgr.leafSpus(), (std::vector<SpuId>{web}));

    const auto entitled = mgr.entitleLeaves(1000);
    EXPECT_FALSE(entitled.contains(build));
    ASSERT_TRUE(entitled.contains(web));
    EXPECT_EQ(*entitled.find(web), 1000u);

    mgr.resume(eng);
    EXPECT_EQ(mgr.shareOf(build), 0.5);
}

TEST(Hierarchy, EntitleLeavesAppliesPerLevelFloors)
{
    // 10 units over two groups 1:1 -> 5 each; eng splits 5 over 2:1.
    SpuManager mgr;
    const SpuId eng = mgr.create({.name = "eng", .share = 1.0});
    const SpuId ops = mgr.create({.name = "ops", .share = 1.0});
    const SpuId a =
        mgr.create({.name = "eng.a", .share = 2.0, .parent = eng});
    const SpuId b =
        mgr.create({.name = "eng.b", .share = 1.0, .parent = eng});
    const SpuId w =
        mgr.create({.name = "ops.w", .share = 1.0, .parent = ops});

    const auto entitled = mgr.entitleLeaves(10);
    // eng's level amount is floor(0.5 * 10) = 5; within eng,
    // floor(2/3 * 5) = 3 and floor(1/3 * 5) = 1 — per-level floors,
    // remainders staying unassigned exactly like the flat Quota rule.
    EXPECT_EQ(*entitled.find(a), 3u);
    EXPECT_EQ(*entitled.find(b), 1u);
    EXPECT_EQ(*entitled.find(w), 5u);
}

// ---------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------

TEST(Hierarchy, CreateUnderUnknownOrDefaultParentRejected)
{
    SpuManager mgr;
    EXPECT_THROW(
        mgr.create({.name = "x", .share = 1.0, .parent = 99}),
        ConfigError);
    EXPECT_THROW(
        mgr.create({.name = "x", .share = 1.0, .parent = kKernelSpu}),
        ConfigError);
}

TEST(Hierarchy, DestroyRequiresLeafAndDetachesFromParent)
{
    SpuManager mgr;
    const SpuId g = mgr.create({.name = "g", .share = 1.0});
    const SpuId c =
        mgr.create({.name = "g.c", .share = 1.0, .parent = g});
    EXPECT_THROW(mgr.destroy(g), ConfigError);
    mgr.destroy(c);
    EXPECT_FALSE(mgr.isGroup(g)); // g became a leaf again
    mgr.destroy(g);
    EXPECT_FALSE(mgr.exists(g));
}

TEST(Hierarchy, RandomManagerTreesEntitleWithinDivisible)
{
    Rng rng(99);
    for (int trial = 0; trial < 30; ++trial) {
        SpuManager mgr;
        std::vector<SpuId> groups{kNoSpu};
        std::vector<SpuId> all;
        const std::size_t n = 2 + rng.uniformInt(60);
        for (std::size_t i = 0; i < n; ++i) {
            const SpuId parent =
                groups[rng.uniformInt(groups.size())];
            const SpuId id = mgr.create({.name = "",
                                         .share = 0.5 + rng.uniform(),
                                         .parent = parent});
            all.push_back(id);
            // Keep depth <= 4: only shallow nodes may become groups.
            if (mgr.pathOf(id).size() < kMaxDepth &&
                rng.uniformInt(3) == 0) {
                groups.push_back(id);
            }
        }
        const std::uint64_t divisible = 1 + rng.uniformInt(1u << 22);
        const auto entitled = mgr.entitleLeaves(divisible);
        std::uint64_t sum = 0;
        for (const auto &[spu, amount] : entitled) {
            EXPECT_FALSE(mgr.isGroup(spu));
            sum += amount;
        }
        // Per-level floors never over-commit the machine.
        EXPECT_LE(sum, divisible);

        // And the exact-sum tree path stays exact on the same tree.
        ResourceLedger l("test");
        l.entitleByShare(mgr.shareTree(), divisible);
        std::uint64_t topSum = 0;
        for (SpuId top : mgr.childrenOf(kNoSpu))
            topSum += l.levels(top).entitled;
        EXPECT_EQ(topSum, divisible);

        // Then change the tree at random: every cached sibling total
        // must follow each create, destroy, suspend, resume and load.
        auto expectUncached = [&](const char *op, int step) {
            for (SpuId id : all) {
                EXPECT_EQ(mgr.shareOf(id), uncachedShareOf(mgr, id))
                    << "trial " << trial << " step " << step << " after "
                    << op << ", spu " << id;
            }
        };
        for (int step = 0; step < 40; ++step) {
            const SpuId pick = all[rng.uniformInt(all.size())];
            switch (rng.uniformInt(5)) {
              case 0: {
                const SpuId parent =
                    mgr.pathOf(pick).size() < kMaxDepth ? pick : kNoSpu;
                all.push_back(mgr.create({.name = "",
                                          .share = 0.5 + rng.uniform(),
                                          .parent = parent}));
                expectUncached("create", step);
                break;
              }
              case 1:
                if (mgr.isGroup(pick) || all.size() < 2)
                    continue;
                mgr.destroy(pick);
                all.erase(std::find(all.begin(), all.end(), pick));
                expectUncached("destroy", step);
                break;
              case 2:
                mgr.suspend(pick);
                expectUncached("suspend", step);
                break;
              case 3:
                mgr.resume(pick);
                expectUncached("resume", step);
                break;
              default: {
                // Save, flip one SPU's state, load: the image's states
                // come back and the caches must not keep the flip.
                CkptWriter w;
                mgr.save(w);
                const bool wasActive =
                    mgr.spu(pick).state == SpuState::Active;
                if (wasActive)
                    mgr.suspend(pick);
                else
                    mgr.resume(pick);
                EXPECT_EQ(mgr.shareOf(pick), uncachedShareOf(mgr, pick));
                CkptReader r(w.image(0));
                mgr.load(r);
                EXPECT_EQ(mgr.spu(pick).state == SpuState::Active,
                          wasActive);
                expectUncached("load", step);
                break;
              }
            }
        }
    }
}
