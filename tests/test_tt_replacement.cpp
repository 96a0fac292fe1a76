// Tests for the bounded transposition table (core/transposition.hpp):
// replacement-policy semantics on a single bucket, the depth rule the
// table inherits from the seen-map it replaced (including the
// shallower-revisit-overwrites regression), generation aging past the
// old 8-bit wrap point, bounded memory under sustained insert pressure, and the
// determinism of the single-threaded iterative-deepening driver built on
// top of it.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/synthesizer.hpp"
#include "core/transposition.hpp"
#include "rev/pprm.hpp"

namespace rmrls {
namespace {

TranspositionTable::Config one_bucket(TTReplacement policy) {
  TranspositionTable::Config c;
  c.buckets = 1;
  c.policy = policy;
  return c;
}

// Hashes that land distinct values in the (single) bucket. Any values
// work: with one bucket, every hash collides on the bucket and only the
// entry hashes differ.
constexpr std::uint64_t h(std::uint64_t i) { return 0x1000 + i; }

TEST(TranspositionTable, FirstVisitInsertsRevisitPrunes) {
  TranspositionTable tt(one_bucket(TTReplacement::kAging));
  EXPECT_FALSE(tt.check_and_insert(h(1), 5));
  EXPECT_TRUE(tt.check_and_insert(h(1), 5));   // same depth: prune
  EXPECT_TRUE(tt.check_and_insert(h(1), 9));   // deeper: prune
  EXPECT_EQ(tt.total_hits(), 2u);
  EXPECT_EQ(tt.inserts(), 1u);
  EXPECT_EQ(tt.evictions(), 0u);
  EXPECT_EQ(tt.entry_count(), 1u);
}

// Regression pin for the shallower-revisit rule: a state first reached at
// depth 5 and rediscovered at depth 3 must NOT be pruned — the shallower
// path is the better one and pruning it could cost the optimal circuit.
// The rediscovery overwrites the stored depth, so depth-4 revisits (which
// the old depth-5 entry would have let through) now prune.
TEST(TranspositionTable, ShallowerRevisitOverwritesInsteadOfPruning) {
  TranspositionTable tt(one_bucket(TTReplacement::kAging));
  EXPECT_FALSE(tt.check_and_insert(h(1), 5));
  EXPECT_TRUE(tt.check_and_insert(h(1), 7));   // deeper: redundant
  EXPECT_FALSE(tt.check_and_insert(h(1), 3));  // shallower: re-expand
  EXPECT_TRUE(tt.check_and_insert(h(1), 4));   // now 4 >= stored 3: prune
  EXPECT_TRUE(tt.check_and_insert(h(1), 3));
  // The overwrite is not an insert: the slot was already occupied.
  EXPECT_EQ(tt.inserts(), 1u);
  EXPECT_EQ(tt.entry_count(), 1u);
}

TEST(TranspositionTable, AlwaysPolicyEvictsOnFullBucket) {
  TranspositionTable tt(one_bucket(TTReplacement::kAlways));
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(tt.check_and_insert(h(i), 2));
  }
  EXPECT_EQ(tt.inserts(), 16u);
  EXPECT_EQ(tt.evictions(), 16u - TranspositionTable::kBucketEntries);
  EXPECT_EQ(tt.entry_count(),
            static_cast<std::uint64_t>(TranspositionTable::kBucketEntries));
  EXPECT_EQ(tt.capacity(),
            static_cast<std::uint64_t>(TranspositionTable::kBucketEntries));
}

// Depth-preferred eviction keeps the shallow entries: in RMRLS an entry
// at depth d prunes every deeper revisit, so shallow entries have the
// widest pruning reach and the deepest entry is the right victim.
TEST(TranspositionTable, DepthPreferredEvictsDeepestEntry) {
  TranspositionTable tt(one_bucket(TTReplacement::kDepthPreferred));
  ASSERT_FALSE(tt.check_and_insert(h(1), 1));
  ASSERT_FALSE(tt.check_and_insert(h(2), 9));  // the deepest: the victim
  ASSERT_FALSE(tt.check_and_insert(h(3), 2));
  ASSERT_FALSE(tt.check_and_insert(h(4), 3));
  ASSERT_FALSE(tt.check_and_insert(h(5), 4));  // bucket full: evicts h(2)
  EXPECT_EQ(tt.evictions(), 1u);
  // The survivors still prune; the evicted deep entry is forgotten.
  EXPECT_TRUE(tt.check_and_insert(h(1), 1));
  EXPECT_TRUE(tt.check_and_insert(h(3), 2));
  EXPECT_TRUE(tt.check_and_insert(h(5), 4));
  EXPECT_FALSE(tt.check_and_insert(h(2), 9));  // reinserted (evicting again)
}

TEST(TranspositionTable, AgingPolicyEvictsOldestGenerationFirst) {
  TranspositionTable tt(one_bucket(TTReplacement::kAging));
  ASSERT_FALSE(tt.check_and_insert(h(1), 1));  // gen 0
  tt.new_generation();
  ASSERT_FALSE(tt.check_and_insert(h(2), 9));  // gen 1
  ASSERT_FALSE(tt.check_and_insert(h(3), 9));  // gen 1
  ASSERT_FALSE(tt.check_and_insert(h(4), 9));  // gen 1
  ASSERT_FALSE(tt.check_and_insert(h(5), 2));  // full: evicts gen-0 h(1),
                                               // despite deeper gen-1 peers
  EXPECT_EQ(tt.evictions(), 1u);
  EXPECT_TRUE(tt.check_and_insert(h(2), 9));   // gen-1 entries survived
  EXPECT_TRUE(tt.check_and_insert(h(5), 2));
}

// An entry from a previous generation must not prune the new pass: it is
// refreshed (gen + depth) on first touch and prunes only within the new
// generation. This is what makes one table shareable across the whole
// iterative-deepening ladder and the refinement reruns.
TEST(TranspositionTable, StaleGenerationRefreshesInsteadOfPruning) {
  TranspositionTable tt(one_bucket(TTReplacement::kAging));
  ASSERT_FALSE(tt.check_and_insert(h(1), 2));
  ASSERT_TRUE(tt.check_and_insert(h(1), 2));
  tt.new_generation();
  EXPECT_EQ(tt.generation(), 1u);
  EXPECT_FALSE(tt.check_and_insert(h(1), 6));  // stale: refresh, no prune
  EXPECT_TRUE(tt.check_and_insert(h(1), 6));   // current gen again: prune
  // The refresh reused the slot: no new insert, no eviction.
  EXPECT_EQ(tt.inserts(), 1u);
  EXPECT_EQ(tt.evictions(), 0u);
}

// The generation counter is 32 bits wide. With the old 8-bit counter an
// entry written exactly 256 passes earlier aliased the current generation
// and wrongly pruned a live revisit; it must stay stale instead.
TEST(TranspositionTable, GenerationDoesNotWrapAfter256Passes) {
  TranspositionTable tt(one_bucket(TTReplacement::kAging));
  ASSERT_FALSE(tt.check_and_insert(h(1), 4));
  for (int i = 0; i < 256; ++i) tt.new_generation();
  EXPECT_EQ(tt.generation(), 256u);
  // Stale entry: the revisit refreshes it instead of pruning ...
  EXPECT_FALSE(tt.check_and_insert(h(1), 4));
  // ... and only then dedups within the new generation.
  EXPECT_TRUE(tt.check_and_insert(h(1), 4));
  EXPECT_EQ(tt.total_hits(), 1u);
}

// Aging ages are computed in 32 bits: an entry 256 generations old is
// older than one written a generation ago (an 8-bit age read it as 0).
TEST(TranspositionTable, AgingComparesAgesBeyond256Generations) {
  TranspositionTable tt(one_bucket(TTReplacement::kAging));
  ASSERT_FALSE(tt.check_and_insert(h(0), 2));  // generation 0
  for (int i = 0; i < 255; ++i) tt.new_generation();
  for (std::uint64_t i = 1; i < 4; ++i) {
    ASSERT_FALSE(tt.check_and_insert(h(i), 9));  // generation 255, deeper
  }
  tt.new_generation();  // generation 256
  ASSERT_FALSE(tt.check_and_insert(h(9), 5));  // full bucket: evicts h(0)
  EXPECT_EQ(tt.evictions(), 1u);
  // h(0) is gone, so a revisit is a fresh insert (evicting again).
  EXPECT_FALSE(tt.check_and_insert(h(0), 2));
  EXPECT_EQ(tt.evictions(), 2u);
  // h(9) survived the second eviction: the victim was a generation-255
  // entry, not the fresh one.
  EXPECT_TRUE(tt.check_and_insert(h(9), 5));
}

// The bound that motivates the whole design: ten million inserts into a
// 1 MiB table stay inside the fixed footprint. The grow-only seen-map
// this table replaced would hold all 10^7 entries (~hundreds of MB).
TEST(TranspositionTable, BoundedMemoryUnderSustainedInsertPressure) {
  TranspositionTable tt(1, TTReplacement::kAging);
  const std::uint64_t capacity = tt.capacity();
  ASSERT_GT(capacity, 0u);
  ASSERT_LE(tt.bytes(), std::size_t{1} << 20);
  constexpr std::uint64_t kInserts = 10'000'000;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    // splitmix64 over a counter: effectively unique hashes, all misses.
    tt.check_and_insert(splitmix64(i), 1 + static_cast<std::int32_t>(i % 7));
  }
  EXPECT_LE(tt.entry_count(), capacity);
  EXPECT_GT(tt.evictions(), 0u);
  EXPECT_LE(tt.evictions(), tt.inserts());
  EXPECT_LE(tt.inserts(), kInserts);
  // Occupancy accounting: entries that were inserted but never evicted.
  EXPECT_EQ(tt.entry_count(), tt.inserts() - tt.evictions());
}

TEST(TranspositionTable, CountersAreMonotone) {
  TranspositionTable tt(1, TTReplacement::kAging);
  const std::uint64_t hits_before = tt.total_hits();
  const std::uint64_t inserts_before = tt.inserts();
  for (std::uint64_t i = 0; i < 1000; ++i) {
    tt.check_and_insert(splitmix64(i), 3);
    tt.check_and_insert(splitmix64(i), 3);  // guaranteed revisit
  }
  EXPECT_GE(tt.total_hits(), hits_before + 1000);
  EXPECT_GE(tt.inserts(), inserts_before);
}

// Budget sizing: the table must fit the requested megabytes and use a
// power-of-two bucket count.
TEST(TranspositionTable, BudgetSizingFitsAndIsPowerOfTwo) {
  for (const int mb : {1, 2, 8}) {
    TranspositionTable tt(mb, TTReplacement::kAging);
    EXPECT_LE(tt.bytes(), static_cast<std::size_t>(mb) << 20);
    const std::uint64_t buckets =
        tt.capacity() / TranspositionTable::kBucketEntries;
    EXPECT_EQ(buckets & (buckets - 1), 0u) << "bucket count " << buckets;
  }
}

// The iterative-deepening driver on top of the table must stay
// bit-reproducible single-threaded: same spec, same options, same
// circuit, same node count — and it must report its rung count.
TEST(IterativeDeepening, SingleThreadedRunsAreDeterministic) {
  const TruthTable spec(
      {0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5});
  SynthesisOptions o;
  o.max_nodes = 50000;
  const SynthesisResult a = synthesize(spec, o);
  const SynthesisResult b = synthesize(spec, o);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.circuit.to_string(), b.circuit.to_string());
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
  EXPECT_EQ(a.stats.children_created, b.stats.children_created);
  EXPECT_GE(a.stats.id_iterations, 1u);
  EXPECT_EQ(a.stats.id_iterations, b.stats.id_iterations);
  EXPECT_TRUE(implements(a.circuit, spec));
}

// --no-id must restore the single full-depth pass: exactly one iteration
// reported, and the result still valid.
TEST(IterativeDeepening, DisabledReportsOneIteration) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  SynthesisOptions o;
  o.max_nodes = 50000;
  o.iterative_deepening = false;
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.stats.id_iterations, 1u);
  EXPECT_TRUE(implements(r.circuit, spec));
}

// TT metrics surfaced through SynthesisStats: inserts move, evictions
// never exceed them, and disabling the history heuristic zeroes its
// counter while the search still succeeds.
TEST(IterativeDeepening, StatsInvariantsAndHistoryKillSwitch) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  SynthesisOptions o;
  o.max_nodes = 50000;
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stats.tt_inserts, 0u);
  EXPECT_LE(r.stats.tt_evictions, r.stats.tt_inserts);

  SynthesisOptions no_history = o;
  no_history.use_history = false;
  const SynthesisResult rh = synthesize(spec, no_history);
  ASSERT_TRUE(rh.success);
  EXPECT_EQ(rh.stats.history_hits, 0u);
  EXPECT_TRUE(implements(rh.circuit, spec));
}

}  // namespace
}  // namespace rmrls
