// Randomized cross-checks of the set-reconciliation sketches against
// brute-force set difference. The load-bearing guarantee is one-sided:
// a decode that REPORTS success must be the exact symmetric difference
// (correct-or-rejected — a fallback costs bandwidth, a wrong decode
// would corrupt a replica), so every ok outcome below is compared
// element-for-element with the brute-force answer, and the failure
// paths are checked to reject rather than lie.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sync/reconcile.h"
#include "sync/sketch.h"
#include "sync/sync.h"

namespace hdk::sync {
namespace {

// Two sets with a controlled overlap: `shared` digests in both, plus
// `only_a` / `only_b` unique tails. All digests distinct and nonzero.
struct SetPair {
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  std::vector<uint64_t> only_a;  // sorted
  std::vector<uint64_t> only_b;  // sorted
};

SetPair MakeSets(Rng& rng, size_t shared, size_t only_a, size_t only_b) {
  std::set<uint64_t> used;
  auto draw = [&] {
    uint64_t v;
    do {
      v = rng.Next();
    } while (v == 0 || !used.insert(v).second);
    return v;
  };
  SetPair sets;
  for (size_t i = 0; i < shared; ++i) {
    const uint64_t v = draw();
    sets.a.push_back(v);
    sets.b.push_back(v);
  }
  for (size_t i = 0; i < only_a; ++i) {
    const uint64_t v = draw();
    sets.a.push_back(v);
    sets.only_a.push_back(v);
  }
  for (size_t i = 0; i < only_b; ++i) {
    const uint64_t v = draw();
    sets.b.push_back(v);
    sets.only_b.push_back(v);
  }
  std::sort(sets.only_a.begin(), sets.only_a.end());
  std::sort(sets.only_b.begin(), sets.only_b.end());
  return sets;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------
// Ibf

TEST(IbfTest, DecodesExactSymmetricDifference) {
  Rng rng(101);
  const SetPair sets = MakeSets(rng, /*shared=*/500, /*only_a=*/7,
                                /*only_b=*/5);
  Ibf a(/*cells=*/48, /*num_hashes=*/3, /*seed=*/42);
  Ibf b(/*cells=*/48, /*num_hashes=*/3, /*seed=*/42);
  for (uint64_t e : sets.a) a.Insert(e);
  for (uint64_t e : sets.b) b.Insert(e);
  a.Subtract(b);

  const Ibf::DecodeResult decoded = a.Decode();
  ASSERT_TRUE(decoded.ok);
  EXPECT_EQ(Sorted(decoded.plus), sets.only_a);
  EXPECT_EQ(Sorted(decoded.minus), sets.only_b);
}

TEST(IbfTest, EqualSetsDecodeEmpty) {
  Rng rng(102);
  const SetPair sets = MakeSets(rng, 300, 0, 0);
  Ibf a(16, 3, 7);
  Ibf b(16, 3, 7);
  for (uint64_t e : sets.a) a.Insert(e);
  for (uint64_t e : sets.b) b.Insert(e);
  a.Subtract(b);
  const Ibf::DecodeResult decoded = a.Decode();
  ASSERT_TRUE(decoded.ok);
  EXPECT_TRUE(decoded.plus.empty());
  EXPECT_TRUE(decoded.minus.empty());
}

TEST(IbfTest, OverfullSketchRejectsInsteadOfLying) {
  Rng rng(103);
  // 200 differing elements against a 24-cell budget cannot peel.
  const SetPair sets = MakeSets(rng, 100, 150, 50);
  Ibf a(24, 3, 9);
  Ibf b(24, 3, 9);
  for (uint64_t e : sets.a) a.Insert(e);
  for (uint64_t e : sets.b) b.Insert(e);
  a.Subtract(b);
  EXPECT_FALSE(a.Decode().ok);
}

TEST(IbfTest, RandomizedDecodeIsCorrectOrRejected) {
  Rng rng(104);
  size_t decoded_ok = 0;
  const size_t trials = 200;
  for (size_t t = 0; t < trials; ++t) {
    const size_t shared = rng.NextBounded(400);
    const size_t only_a = rng.NextBounded(30);
    const size_t only_b = rng.NextBounded(30);
    const uint32_t cells = 8 + static_cast<uint32_t>(rng.NextBounded(120));
    const SetPair sets = MakeSets(rng, shared, only_a, only_b);

    Ibf a(cells, 3, 1000 + t);
    Ibf b(cells, 3, 1000 + t);
    for (uint64_t e : sets.a) a.Insert(e);
    for (uint64_t e : sets.b) b.Insert(e);
    a.Subtract(b);
    const Ibf::DecodeResult decoded = a.Decode();
    if (!decoded.ok) continue;  // honest rejection is always allowed
    ++decoded_ok;
    EXPECT_EQ(Sorted(decoded.plus), sets.only_a) << "trial " << t;
    EXPECT_EQ(Sorted(decoded.minus), sets.only_b) << "trial " << t;
  }
  // The budgets above are generous often enough that a healthy decoder
  // succeeds frequently; a decoder that always rejects would trivially
  // pass the loop.
  EXPECT_GT(decoded_ok, trials / 3);
}

// ---------------------------------------------------------------------
// StrataEstimator

TEST(StrataEstimatorTest, EqualSetsEstimateZero) {
  Rng rng(105);
  const SetPair sets = MakeSets(rng, 1000, 0, 0);
  StrataEstimator a;
  StrataEstimator b;
  for (uint64_t e : sets.a) a.Insert(e);
  for (uint64_t e : sets.b) b.Insert(e);
  EXPECT_EQ(a.EstimateDiff(b), 0u);
}

TEST(StrataEstimatorTest, RandomizedEstimateTracksTrueDifference) {
  Rng rng(106);
  for (size_t t = 0; t < 40; ++t) {
    const size_t shared = rng.NextBounded(2000);
    const size_t diff_a = 1 + rng.NextBounded(200);
    const size_t diff_b = rng.NextBounded(200);
    const SetPair sets = MakeSets(rng, shared, diff_a, diff_b);
    const uint64_t truth = diff_a + diff_b;

    StrataEstimator a;
    StrataEstimator b;
    for (uint64_t e : sets.a) a.Insert(e);
    for (uint64_t e : sets.b) b.Insert(e);
    const uint64_t estimate = a.EstimateDiff(b);
    // A nonzero difference must never be estimated as zero (a zero
    // estimate would skip reconciliation and leave divergence in
    // place), and the estimate feeds a cell budget, so it has to stay
    // within a small constant factor of the truth.
    EXPECT_GT(estimate, 0u) << "trial " << t;
    EXPECT_GE(estimate * 8, truth) << "trial " << t << " truth " << truth;
    EXPECT_LE(estimate, truth * 8) << "trial " << t << " truth " << truth;
  }
}

// ---------------------------------------------------------------------
// PlanPairSync

TEST(PlanPairSyncTest, RandomizedPlansMatchBruteForce) {
  Rng rng(107);
  SyncConfig config;
  size_t planned_ok = 0;
  const size_t trials = 60;
  for (size_t t = 0; t < trials; ++t) {
    const size_t shared = rng.NextBounded(1500);
    const size_t missing = rng.NextBounded(40);
    const size_t extra = rng.NextBounded(40);
    const SetPair sets = MakeSets(rng, shared, missing, extra);

    const PairPlan plan = PlanPairSync(sets.a, sets.b, config);
    if (!plan.ok) continue;
    ++planned_ok;
    // ship = desired \ actual, drop = actual \ desired, both sorted.
    EXPECT_EQ(plan.ship, sets.only_a) << "trial " << t;
    EXPECT_EQ(plan.drop, sets.only_b) << "trial " << t;
    EXPECT_GT(plan.sketch_bytes, 0u);
    EXPECT_GT(plan.ibf_cells, 0u);
  }
  // With the default sizing (alpha = 1.6, k = 3) small differences
  // mostly decode (the rest fall back honestly); the fixed seed makes
  // this deterministic.
  EXPECT_GE(planned_ok, trials * 4 / 5);
}

TEST(PlanPairSyncTest, IdenticalSetsPlanEmptyDelta) {
  Rng rng(108);
  const SetPair sets = MakeSets(rng, 800, 0, 0);
  const PairPlan plan = PlanPairSync(sets.a, sets.b, SyncConfig{});
  ASSERT_TRUE(plan.ok);
  EXPECT_TRUE(plan.ship.empty());
  EXPECT_TRUE(plan.drop.empty());
}

TEST(PlanPairSyncTest, EmptyActualShipsEverything) {
  Rng rng(109);
  const SetPair sets = MakeSets(rng, 0, 50, 0);
  const PairPlan plan =
      PlanPairSync(sets.a, std::vector<uint64_t>{}, SyncConfig{});
  ASSERT_TRUE(plan.ok);
  EXPECT_EQ(plan.ship, sets.only_a);
  EXPECT_TRUE(plan.drop.empty());
}

TEST(PlanPairSyncTest, OversizedDifferenceFallsBackBeforeTheIbfLeg) {
  Rng rng(110);
  const SetPair sets = MakeSets(rng, 100, 400, 400);
  SyncConfig config;
  config.max_cells = 64;  // estimate * alpha >> 64
  const PairPlan plan = PlanPairSync(sets.a, sets.b, config);
  EXPECT_FALSE(plan.ok);
  EXPECT_EQ(plan.ibf_cells, 0u);  // rejected before building the IBF
  EXPECT_TRUE(plan.ship.empty());
  EXPECT_TRUE(plan.drop.empty());
}

TEST(PlanPairSyncTest, RejectedPlansNeverCarryADelta) {
  // Sweep adversarially tight budgets: whatever the outcome, a plan is
  // either exactly right or empty-and-rejected — never wrong.
  Rng rng(111);
  SyncConfig config;
  config.min_cells = 4;
  size_t rejected = 0;
  for (size_t t = 0; t < 120; ++t) {
    config.max_cells = 4 + static_cast<uint32_t>(rng.NextBounded(60));
    const size_t diff = 1 + rng.NextBounded(120);
    const SetPair sets =
        MakeSets(rng, rng.NextBounded(300), diff, rng.NextBounded(60));
    const PairPlan plan = PlanPairSync(sets.a, sets.b, config);
    if (plan.ok) {
      EXPECT_EQ(plan.ship, sets.only_a) << "trial " << t;
      EXPECT_EQ(plan.drop, sets.only_b) << "trial " << t;
    } else {
      ++rejected;
      EXPECT_TRUE(plan.ship.empty()) << "trial " << t;
      EXPECT_TRUE(plan.drop.empty()) << "trial " << t;
    }
  }
  // The tight budgets must actually exercise the fallback path.
  EXPECT_GT(rejected, 0u);
}

void ExpectSamePlan(const PairPlan& want, const PairPlan& got,
                    size_t trial) {
  EXPECT_EQ(want.ok, got.ok) << "trial " << trial;
  EXPECT_EQ(want.estimated_diff, got.estimated_diff) << "trial " << trial;
  EXPECT_EQ(want.sketch_bytes, got.sketch_bytes) << "trial " << trial;
  EXPECT_EQ(want.ibf_cells, got.ibf_cells) << "trial " << trial;
  EXPECT_EQ(want.ship, got.ship) << "trial " << trial;
  EXPECT_EQ(want.drop, got.drop) << "trial " << trial;
}

// The subtracted sketches depend only on the symmetric difference: the
// cells of the common elements cancel exactly. So planning a pair over
// its difference alone gives the same plan, field for field — the
// property the replica reconciler computes its plans by.
TEST(PlanPairSyncTest, PlanOfTheDifferenceEqualsPlanOfTheSets) {
  Rng rng(112);
  size_t ok = 0, past_max_cells = 0, stuck = 0;
  for (size_t t = 0; t < 240; ++t) {
    SyncConfig config;
    const uint32_t shape = static_cast<uint32_t>(rng.NextBounded(3));
    if (shape == 1) {
      // Budgets that reject most estimates outright.
      config.max_cells = 2 + static_cast<uint32_t>(rng.NextBounded(40));
    } else if (shape == 2) {
      // Undersized IBFs that mostly decode only partway.
      config.min_cells = 3;
      config.max_cells = 3 + static_cast<uint32_t>(rng.NextBounded(12));
      config.alpha = 0.5;
    }
    // Identical sets, one empty side, small and large differences.
    const size_t kind = rng.NextBounded(4);
    const size_t tail = kind == 3 ? 400 : 30;
    size_t shared = rng.NextBounded(600);
    size_t only_a = rng.NextBounded(tail);
    size_t only_b = rng.NextBounded(tail);
    if (kind == 0) only_a = only_b = 0;
    if (kind == 1) {
      shared = 0;
      (t % 2 == 0 ? only_a : only_b) = 0;
    }
    const SetPair sets = MakeSets(rng, shared, only_a, only_b);

    const PairPlan whole = PlanPairSync(sets.a, sets.b, config);
    const PairPlan diff = PlanPairSync(sets.only_a, sets.only_b, config);
    ExpectSamePlan(whole, diff, t);
    if (whole.ok) {
      ++ok;
    } else if (whole.ibf_cells == 0) {
      ++past_max_cells;
    } else {
      ++stuck;
    }
  }
  // Every planner outcome is exercised.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(past_max_cells, 0u);
  EXPECT_GT(stuck, 0u);
}

TEST(PlanPairSyncTest, IdenticalPairsPlanLikeTwoEmptySets) {
  Rng rng(113);
  for (size_t t = 0; t < 40; ++t) {
    SyncConfig config;
    // max_cells 1 is below even an empty pair's IBF: both reject alike.
    if (t % 4 == 3) config.max_cells = 1;
    const SetPair sets = MakeSets(rng, rng.NextBounded(2000), 0, 0);
    ExpectSamePlan(PlanPairSync({}, {}, config),
                   PlanPairSync(sets.a, sets.b, config), t);
  }
}

}  // namespace
}  // namespace hdk::sync
