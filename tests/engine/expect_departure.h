// Field-by-field equality of two departure repairs' observability
// counters, shared by the tests that assert the departure replay is
// identical at every thread (and therefore shard) count.
#ifndef HDKP2P_TESTS_ENGINE_EXPECT_DEPARTURE_H_
#define HDKP2P_TESTS_ENGINE_EXPECT_DEPARTURE_H_

#include <gtest/gtest.h>

#include "p2p/indexing_protocol.h"

namespace hdk::engine {

inline void ExpectSameDepartureStats(const p2p::DepartureStats& want,
                                     const p2p::DepartureStats& got) {
  EXPECT_EQ(want.departed, got.departed);
  EXPECT_EQ(want.removed_contributions, got.removed_contributions);
  EXPECT_EQ(want.removed_postings, got.removed_postings);
  EXPECT_EQ(want.erased_keys, got.erased_keys);
  EXPECT_EQ(want.retracted_keys, got.retracted_keys);
  EXPECT_EQ(want.reverse_reclassified, got.reverse_reclassified);
  EXPECT_EQ(want.repaired_keys, got.repaired_keys);
  EXPECT_EQ(want.migrated_keys, got.migrated_keys);
  EXPECT_EQ(want.moved_postings, got.moved_postings);
  EXPECT_EQ(want.readmitted_terms, got.readmitted_terms);
  EXPECT_EQ(want.forget_notifications, got.forget_notifications);
  EXPECT_EQ(want.repair_insertions, got.repair_insertions);
  EXPECT_EQ(want.repair_postings, got.repair_postings);
  EXPECT_EQ(want.rescanned_peers, got.rescanned_peers);
  EXPECT_EQ(want.replica_sync.messages, got.replica_sync.messages);
  EXPECT_EQ(want.replica_sync.pairs_diverged, got.replica_sync.pairs_diverged);
}

}  // namespace hdk::engine

#endif  // HDKP2P_TESTS_ENGINE_EXPECT_DEPARTURE_H_
