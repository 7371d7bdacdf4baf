#include "sync/reconcile.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "sync/sketch.h"

namespace hdk::sync {

namespace {

/// Order-independent set fingerprint: wrapping sum of mixed digests.
/// Combined with the element count this catches any decode that is not
/// the exact symmetric difference.
uint64_t SetChecksum(std::span<const uint64_t> elements) {
  uint64_t sum = 0;
  for (uint64_t e : elements) sum += Mix64(e);
  return sum;
}

}  // namespace

PairPlan PlanPairSync(std::span<const uint64_t> desired,
                      std::span<const uint64_t> actual,
                      const SyncConfig& config) {
  PairPlan plan;

  // Leg 1: holder ships its strata estimator, primary sizes the diff.
  StrataEstimator strata_desired;
  StrataEstimator strata_actual;
  for (uint64_t e : desired) strata_desired.Insert(e);
  for (uint64_t e : actual) strata_actual.Insert(e);
  plan.estimated_diff = strata_desired.EstimateDiff(strata_actual);
  plan.sketch_bytes += strata_actual.ByteSize();

  const double want =
      std::ceil(config.alpha *
                static_cast<double>(std::max<uint64_t>(plan.estimated_diff, 1)));
  if (want > static_cast<double>(config.max_cells)) {
    return plan;  // difference too large to sketch: full-sync fallback
  }
  const uint32_t cells = std::max(static_cast<uint32_t>(want),
                                  config.min_cells);

  // Leg 2: primary ships its difference IBF, holder subtracts and peels.
  Ibf ibf_desired(cells, kSketchHashes, kSketchSeed);
  Ibf ibf_actual(cells, kSketchHashes, kSketchSeed);
  for (uint64_t e : desired) ibf_desired.Insert(e);
  for (uint64_t e : actual) ibf_actual.Insert(e);
  plan.ibf_cells = ibf_desired.num_cells();
  plan.sketch_bytes += ibf_desired.ByteSize();

  ibf_desired.Subtract(ibf_actual);
  Ibf::DecodeResult decoded = ibf_desired.Decode();
  if (!decoded.ok) {
    return plan;  // stuck peel: full-sync fallback
  }

  // Verify the decode really is the exact symmetric difference before
  // anything is applied: actual - drop + ship must equal desired, both
  // as a fingerprint and as a count.
  const uint64_t chk_after = SetChecksum(actual) - SetChecksum(decoded.minus) +
                             SetChecksum(decoded.plus);
  const uint64_t size_after =
      actual.size() - decoded.minus.size() + decoded.plus.size();
  if (chk_after != SetChecksum(desired) || size_after != desired.size()) {
    return plan;  // wrong decode (checksum caught it): full-sync fallback
  }

  plan.ok = true;
  plan.ship = std::move(decoded.plus);
  plan.drop = std::move(decoded.minus);
  // Deterministic apply order regardless of peel order.
  std::sort(plan.ship.begin(), plan.ship.end());
  std::sort(plan.drop.begin(), plan.drop.end());
  return plan;
}

}  // namespace hdk::sync
