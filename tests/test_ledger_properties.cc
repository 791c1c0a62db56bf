/**
 * @file
 * Property tests for ResourceLedger: randomized operation sequences
 * and adversarial share vectors, checked against a trivial reference
 * model. The ledger is the accounting substrate every resource policy
 * (CPU loans, memory lending, bandwidth shares) stands on, so its
 * invariants — conservation under transfer, used <= allowed after
 * tryUse, entitlements summing exactly to the divisible amount — are
 * the isolation guarantees in miniature.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "src/core/ledger.hh"
#include "src/core/spu.hh"
#include "src/sim/random.hh"
#include "src/util/error.hh"

using namespace piso;

namespace {

/** Entitlements must sum exactly to the divisible for any shares. */
void
expectExactSum(const std::vector<double> &shares,
               std::uint64_t divisible)
{
    ResourceLedger l("test");
    double total = 0.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
        l.setShare(static_cast<SpuId>(i), shares[i]);
        total += shares[i];
    }
    l.entitleByShare(divisible);

    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
        const std::uint64_t e =
            l.levels(static_cast<SpuId>(i)).entitled;
        sum += e;
        if (shares[i] == 0.0) {
            EXPECT_EQ(e, 0u) << "zero-share SPU " << i << " got units";
        }
    }
    EXPECT_EQ(sum, total == 0.0 ? 0u : divisible)
        << shares.size() << " spus, divisible " << divisible;
}

} // namespace

// ---------------------------------------------------------------------
// entitleByShare: adversarial share vectors
// ---------------------------------------------------------------------

TEST(LedgerProperties, EntitleExactSumAdversarialShares)
{
    const std::vector<std::vector<double>> vectors = {
        {1.0},
        {1.0, 1.0, 1.0},
        {1.0, 2.0, 3.0},
        {0.0, 0.0, 0.0},            // zero total -> all zero
        {0.0, 1.0, 0.0},
        {1e-9, 1.0, 1e-9},          // tiny vs large
        {1e12, 1.0, 1e12},          // huge shares
        {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0},
        {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
        {7.0, 11.0, 13.0, 17.0, 19.0, 23.0},
    };
    const std::uint64_t divisibles[] = {0,  1,   2,    3,    7,
                                        8,  97,  100,  1024, 4096,
                                        1u << 20, (1u << 20) + 1};
    for (const auto &shares : vectors)
        for (std::uint64_t d : divisibles)
            expectExactSum(shares, d);
}

TEST(LedgerProperties, EntitleExactSumRandomShares)
{
    Rng rng(2026);
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t n = 1 + rng.uniformInt(12);
        std::vector<double> shares;
        for (std::size_t i = 0; i < n; ++i) {
            switch (rng.uniformInt(4)) {
            case 0: shares.push_back(0.0); break;
            case 1: shares.push_back(rng.uniform() * 1e-6); break;
            case 2: shares.push_back(rng.uniform() * 1e6); break;
            default: shares.push_back(rng.uniform()); break;
            }
        }
        expectExactSum(shares, rng.uniformInt(1u << 22));
    }
}

TEST(LedgerProperties, EntitleTiesGoToLowerSpuId)
{
    // Equal shares, indivisible amount: the remainder units must land
    // on the lowest SPU ids, deterministically.
    ResourceLedger l("test");
    for (SpuId s = 0; s < 4; ++s)
        l.setShare(s, 1.0);
    l.entitleByShare(6); // floor = 1 each, remainder 2
    EXPECT_EQ(l.levels(0).entitled, 2u);
    EXPECT_EQ(l.levels(1).entitled, 2u);
    EXPECT_EQ(l.levels(2).entitled, 1u);
    EXPECT_EQ(l.levels(3).entitled, 1u);
}

TEST(LedgerProperties, EntitleIsIdempotent)
{
    ResourceLedger l("test");
    l.setShare(0, 0.3);
    l.setShare(1, 0.7);
    l.entitleByShare(1000);
    const std::uint64_t a0 = l.levels(0).entitled;
    const std::uint64_t a1 = l.levels(1).entitled;
    l.entitleByShare(1000);
    EXPECT_EQ(l.levels(0).entitled, a0);
    EXPECT_EQ(l.levels(1).entitled, a1);
}

// ---------------------------------------------------------------------
// Randomized op sequences against a reference model
// ---------------------------------------------------------------------

TEST(LedgerProperties, RandomOpSequencesMatchModel)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        ResourceLedger l("test");
        std::map<SpuId, ResourceLevels> model;
        std::map<SpuId, double> modelShare;
        const SpuId nSpus = 1 + static_cast<SpuId>(rng.uniformInt(6));
        for (SpuId s = 0; s < nSpus; ++s) {
            l.registerSpu(s);
            model[s]; // zero levels, like registerSpu
            modelShare[s] = 1.0;
        }

        for (int op = 0; op < 400; ++op) {
            const SpuId s = static_cast<SpuId>(rng.uniformInt(nSpus));
            switch (rng.uniformInt(6)) {
            case 0: { // setShare
                const double sh = rng.uniform() * 4.0;
                l.setShare(s, sh);
                modelShare[s] = sh;
                break;
            }
            case 1: { // setAllowed
                const std::uint64_t a = rng.uniformInt(64);
                l.setAllowed(s, a);
                model[s].allowed = a;
                break;
            }
            case 2: { // tryUse: succeeds iff used < allowed
                const bool expect =
                    model[s].used < model[s].allowed;
                EXPECT_EQ(l.tryUse(s), expect);
                if (expect)
                    ++model[s].used;
                break;
            }
            case 3: { // release (only what the model holds)
                if (model[s].used > 0) {
                    const std::uint64_t u =
                        1 + rng.uniformInt(model[s].used);
                    l.release(s, u);
                    model[s].used -= u;
                }
                break;
            }
            case 4: { // transfer to a random other SPU
                const SpuId to =
                    static_cast<SpuId>(rng.uniformInt(nSpus));
                if (model[s].used > 0) {
                    const std::uint64_t u =
                        1 + rng.uniformInt(model[s].used);
                    const std::uint64_t before = l.usedTotal();
                    l.transfer(s, to, u);
                    model[s].used -= u;
                    model[to].used += u;
                    // Conservation: transfer moves, never mints.
                    EXPECT_EQ(l.usedTotal(), before);
                }
                break;
            }
            default: { // unconditional use (caller holds the units)
                const std::uint64_t u = rng.uniformInt(8);
                l.use(s, u);
                model[s].used += u;
                break;
            }
            }

            // The ledger agrees with the model at every step.
            std::uint64_t usedSum = 0;
            for (SpuId q = 0; q < nSpus; ++q) {
                EXPECT_EQ(l.levels(q).used, model[q].used);
                EXPECT_EQ(l.levels(q).allowed, model[q].allowed);
                EXPECT_EQ(l.share(q), modelShare[q]);
                usedSum += model[q].used;
                // tryUse can never push past allowed; only use() can.
                EXPECT_EQ(l.atLimit(q),
                          model[q].used >= model[q].allowed);
            }
            EXPECT_EQ(l.usedTotal(), usedSum);
        }
    }
}

TEST(LedgerProperties, TryUseNeverExceedsAllowed)
{
    // Hammer tryUse alone: used must saturate at allowed exactly.
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        ResourceLedger l("test");
        l.registerSpu(0);
        const std::uint64_t allowed = rng.uniformInt(100);
        l.setAllowed(0, allowed);
        std::uint64_t granted = 0;
        for (int i = 0; i < 200; ++i)
            if (l.tryUse(0))
                ++granted;
        EXPECT_EQ(granted, allowed);
        EXPECT_EQ(l.levels(0).used, allowed);
        EXPECT_TRUE(l.atLimit(0));
        EXPECT_EQ(l.overAllowed(0), 0u);
    }
}

// ---------------------------------------------------------------------
// Zero-active-SPU edge (regression): when every user SPU is suspended,
// all shares are 0 and the entitlement path must not divide by zero.
// ---------------------------------------------------------------------

TEST(LedgerProperties, AllZeroSharesNeverDivideByZero)
{
    for (std::size_t n = 0; n <= 8; ++n) {
        const std::vector<double> shares(n, 0.0);
        for (std::uint64_t d : {0u, 1u, 4096u}) {
            const auto parts = ResourceLedger::apportion(shares, d);
            ASSERT_EQ(parts.size(), n);
            for (std::uint64_t p : parts)
                EXPECT_EQ(p, 0u);
        }
        expectExactSum(shares, 4096);
    }
}

TEST(LedgerProperties, AllSuspendedRegistryEntitlesToZero)
{
    // The full scenario: every user SPU suspended. shareOf and the
    // entitlement paths must all return zero, not NaN or a crash.
    SpuManager mgr;
    const SpuId a = mgr.create({.name = "a", .share = 2.0});
    const SpuId b = mgr.create({.name = "b", .share = 1.0});
    mgr.suspend(a);
    mgr.suspend(b);

    EXPECT_EQ(mgr.userSpus().size(), 0u);
    EXPECT_EQ(mgr.leafSpus().size(), 0u);
    EXPECT_EQ(mgr.shareOf(a), 0.0);
    EXPECT_EQ(mgr.shareOf(b), 0.0);
    EXPECT_TRUE(mgr.cpuShares().empty());
    EXPECT_TRUE(mgr.entitleLeaves(1u << 20).empty());

    ResourceLedger l("test");
    l.entitleByShare(mgr.shareTree(), 1u << 20);
    for (SpuId s : {a, b})
        EXPECT_EQ(l.levels(s).entitled, 0u);

    // Resuming one SPU restores the whole pie to it.
    mgr.resume(a);
    EXPECT_EQ(mgr.shareOf(a), 1.0);
    const auto entitled = mgr.entitleLeaves(1u << 20);
    ASSERT_TRUE(entitled.contains(a));
    EXPECT_EQ(*entitled.find(a), 1u << 20);
}

TEST(LedgerProperties, NonFiniteSharesRejected)
{
    ResourceLedger l("test");
    EXPECT_THROW(l.setShare(0, -1.0), ConfigError);
    EXPECT_THROW(l.setShare(0, std::nan("")), ConfigError);
    EXPECT_THROW(l.setShare(0, HUGE_VAL), ConfigError);
    l.setShare(0, 1.5); // finite non-negative still fine
    EXPECT_EQ(l.share(0), 1.5);
}

TEST(LedgerProperties, ForgetRemovesFromTotals)
{
    ResourceLedger l("test");
    l.registerSpu(0);
    l.registerSpu(1);
    l.use(0, 5);
    l.use(1, 7);
    l.setEntitled(0, 3);
    l.setEntitled(1, 4);
    EXPECT_EQ(l.usedTotal(), 12u);
    EXPECT_EQ(l.entitledTotal(), 7u);
    l.forget(1);
    EXPECT_FALSE(l.knows(1));
    EXPECT_EQ(l.usedTotal(), 5u);
    EXPECT_EQ(l.entitledTotal(), 3u);
    EXPECT_EQ(std::vector<SpuId>(l.spus().begin(), l.spus().end()),
              std::vector<SpuId>{0});
}
