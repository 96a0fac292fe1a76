// Tests for the bounded transposition table (core/transposition.hpp):
// replacement-policy semantics on a single bucket, the depth rule the
// table inherits from the seen-map it replaced (including the
// shallower-revisit-overwrites regression), generation aging past the
// old 8-bit wrap point, bounded memory under sustained insert pressure,
// in-place growth that no probe can observe, and the
// determinism of the single-threaded iterative-deepening driver built on
// top of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

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
// 1 MiB table grow it to exactly its cap and no further. The grow-only
// seen-map this table replaced would hold all 10^7 entries (~hundreds of
// MB).
TEST(TranspositionTable, BoundedMemoryUnderSustainedInsertPressure) {
  TranspositionTable tt(1, TTReplacement::kAging);
  ASSERT_GT(tt.capacity(), 0u);
  ASSERT_LE(tt.bytes(), std::size_t{1} << 20);
  constexpr std::uint64_t kInserts = 10'000'000;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    // splitmix64 over a counter: effectively unique hashes, all misses.
    tt.check_and_insert(splitmix64(i), 1 + static_cast<std::int32_t>(i % 7));
  }
  EXPECT_EQ(tt.bytes(), std::size_t{1} << 20);
  EXPECT_LE(tt.entry_count(), tt.capacity());
  EXPECT_GT(tt.evictions(), 0u);
  EXPECT_LE(tt.evictions(), tt.inserts());
  EXPECT_LE(tt.inserts(), kInserts);
  // Occupancy accounting: entries that were inserted but never evicted.
  EXPECT_EQ(tt.entry_count(), tt.inserts() - tt.evictions());
}

// A small search must not pay for the budget: a thousand distinct states
// in a table capped at the 64 MiB default grow it to a small power of two,
// far below the cap.
TEST(TranspositionTable, SmallRunStaysSmall) {
  TranspositionTable tt(64, TTReplacement::kAging);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_FALSE(tt.check_and_insert(splitmix64(i), 3));
  }
  EXPECT_EQ(tt.inserts(), 1000u);
  EXPECT_EQ(tt.evictions(), 0u);
  EXPECT_LE(tt.bytes(), std::size_t{1} << 20);
}

// Growth is invisible: a table that starts at one bucket and doubles up to
// a cap of C buckets answers every probe exactly as a table created with
// all C buckets, under every policy and across generations, and ends with
// the same counters. This is what keeps circuits, tt_inserts, tt_evictions
// and node counts independent of the growth.
TEST(TranspositionTable, GrowingTableMatchesFixedTableOfItsCap) {
  constexpr std::size_t kCap = 256;
  for (const TTReplacement policy :
       {TTReplacement::kAlways, TTReplacement::kDepthPreferred,
        TTReplacement::kAging}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(to_string(policy)) + " seed " +
                   std::to_string(seed));
      TranspositionTable::Config grow_cfg;
      grow_cfg.buckets = kCap;
      grow_cfg.policy = policy;
      grow_cfg.initial_buckets = 1;
      TranspositionTable::Config fixed_cfg = grow_cfg;
      fixed_cfg.initial_buckets = kCap;
      TranspositionTable growing(grow_cfg);
      TranspositionTable fixed(fixed_cfg);
      ASSERT_EQ(growing.capacity(), 1u * TranspositionTable::kBucketEntries);
      ASSERT_EQ(fixed.bytes(), kCap * 64);

      std::mt19937_64 rng(seed);
      bool grew_below_cap = false;
      constexpr int kSteps = 20'000;
      for (int step = 0; step < kSteps; ++step) {
        if (rng() % 97 == 0) {
          growing.new_generation();
          fixed.new_generation();
          continue;
        }
        // The pool of states widens as the run goes on: early steps
        // revisit heavily, late ones overflow the cap and evict.
        const std::uint64_t state = rng() % (16 + step / 4);
        const auto depth = static_cast<std::int32_t>(1 + rng() % 12);
        const bool want = fixed.check_and_insert(splitmix64(state), depth);
        ASSERT_EQ(growing.check_and_insert(splitmix64(state), depth), want)
            << "step " << step;
        if (growing.capacity() < fixed.capacity() &&
            growing.capacity() > TranspositionTable::kBucketEntries) {
          grew_below_cap = true;
        }
      }
      EXPECT_TRUE(grew_below_cap);
      EXPECT_EQ(growing.bytes(), fixed.bytes());
      EXPECT_GT(fixed.evictions(), 0u);
      EXPECT_EQ(growing.inserts(), fixed.inserts());
      EXPECT_EQ(growing.evictions(), fixed.evictions());
      EXPECT_EQ(growing.total_hits(), fixed.total_hits());
      EXPECT_EQ(growing.entry_count(), fixed.entry_count());
    }
  }
}

// The same identity where growth has the least room: states crowded into
// one bucket of the cap-sized table and into one live bucket. The live
// bucket spills into its overflow bucket and the stash, other states make
// the table double while they are there, and the cap-sized bucket evicts
// while the table is still far below its cap.
TEST(TranspositionTable, CrowdedBucketsMatchFixedTableBelowTheCap) {
  constexpr std::size_t kCap = 256;
  // Six states in cap bucket 7, ten that share only its low four bits, and
  // forty others. The table keys a state by splitmix64 of its hash.
  std::vector<std::uint64_t> crowd;
  std::vector<std::uint64_t> others;
  int same_bucket = 0;
  int same_low_bits = 0;
  for (std::uint64_t h = 0;
       same_bucket < 6 || same_low_bits < 10 || others.size() < 40; ++h) {
    const std::uint64_t key = splitmix64(h);
    if ((key & (kCap - 1)) == 7) {
      if (same_bucket++ < 6) crowd.push_back(h);
    } else if ((key & 15) == 7) {
      if (same_low_bits++ < 10) crowd.push_back(h);
    } else if (others.size() < 40) {
      others.push_back(h);
    }
  }
  for (const TTReplacement policy :
       {TTReplacement::kAlways, TTReplacement::kDepthPreferred,
        TTReplacement::kAging}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(to_string(policy)) + " seed " +
                   std::to_string(seed));
      TranspositionTable::Config grow_cfg;
      grow_cfg.buckets = kCap;
      grow_cfg.policy = policy;
      grow_cfg.initial_buckets = 1;
      TranspositionTable::Config fixed_cfg = grow_cfg;
      fixed_cfg.initial_buckets = kCap;
      TranspositionTable growing(grow_cfg);
      TranspositionTable fixed(fixed_cfg);

      std::mt19937_64 rng(seed);
      for (int step = 0; step < 3000; ++step) {
        if (rng() % 41 == 0) {
          growing.new_generation();
          fixed.new_generation();
          continue;
        }
        // The crowd first; the others join gradually and drive the growth.
        const std::vector<std::uint64_t>& pool =
            rng() % 3 == 0 ? others : crowd;
        const std::size_t reach =
            &pool == &crowd ? crowd.size()
                            : std::min<std::size_t>(others.size(),
                                                    1 + step / 50);
        const std::uint64_t hash = pool[rng() % reach];
        const auto depth = static_cast<std::int32_t>(1 + rng() % 6);
        const bool want = fixed.check_and_insert(hash, depth);
        ASSERT_EQ(growing.check_and_insert(hash, depth), want)
            << "step " << step;
      }
      EXPECT_LT(growing.bytes(), fixed.bytes());
      EXPECT_GT(fixed.evictions(), 0u);
      EXPECT_EQ(growing.inserts(), fixed.inserts());
      EXPECT_EQ(growing.evictions(), fixed.evictions());
      EXPECT_EQ(growing.total_hits(), fixed.total_hits());
      EXPECT_EQ(growing.entry_count(), fixed.entry_count());
    }
  }
}

// The live size is a function of the number of tabled states: the
// smallest power of two of at least 64 buckets that keeps them within
// half the slots, plus a quarter as many overflow buckets. So a search's
// footprint does not depend on how its hashes happen to cluster.
TEST(TranspositionTable, LiveSizeFollowsTheEntryCount) {
  TranspositionTable tt(64, TTReplacement::kAging);
  for (std::uint64_t i = 1; i <= 40'000; ++i) {
    ASSERT_FALSE(tt.check_and_insert(splitmix64(i), 2));
    if (i % 997 == 0 || i == 40'000) {
      std::size_t buckets = 64;
      while (2 * buckets < i) buckets *= 2;
      ASSERT_EQ(tt.capacity(), buckets * TranspositionTable::kBucketEntries)
          << "after " << i << " states";
      ASSERT_EQ(tt.bytes(), (buckets + buckets / 4) * 64);
    }
  }
  EXPECT_EQ(tt.evictions(), 0u);
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

// Budget sizing: the budget is a cap. The live table starts below it,
// grows under insert pressure, and is always a power-of-two bucket count
// whose bytes fit the requested megabytes.
TEST(TranspositionTable, BudgetSizingFitsAndIsPowerOfTwo) {
  for (const int mb : {1, 2, 8}) {
    TranspositionTable tt(mb, TTReplacement::kAging);
    const std::size_t budget = static_cast<std::size_t>(mb) << 20;
    for (std::uint64_t i = 0; i < 200'000; ++i) {
      if (i % 50'000 == 0) {
        EXPECT_LE(tt.bytes(), budget);
        const std::uint64_t buckets =
            tt.capacity() / TranspositionTable::kBucketEntries;
        EXPECT_EQ(buckets & (buckets - 1), 0u) << "bucket count " << buckets;
        // Below the cap, a quarter as many overflow buckets.
        const bool capped = buckets * 64 == budget;
        EXPECT_EQ(tt.bytes(), (buckets + (capped ? 0 : buckets / 4)) * 64);
      }
      tt.check_and_insert(splitmix64(i), 2);
    }
    EXPECT_LE(tt.bytes(), budget);
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
