/// \file transposition.hpp
/// \brief Bounded-memory transposition table with depth-preferred + aging
///        replacement (docs/parallelism.md).
///
/// The bucketized layout mature game-tree searchers use: a power-of-two
/// array of 64-byte buckets, four 16-byte entries `{key, depth,
/// generation}` each. The megabyte budget (`SynthesisOptions::tt_mb`, CLI
/// `--tt-mb`) is the table's cap, reserved as address space only: the
/// table starts as a one-page prefix of it and doubles in place once its
/// entries fill half its slots, so its size follows the number of states
/// a search tabled (40 to 80 bytes each), not the luck of its fullest
/// bucket, and a small search touches a few pages instead of one page per
/// insert. Below the cap, an entry whose live bucket is full goes to an
/// overflow bucket (one per four live ones) or, rarely, a small stash.
/// The table behaves as a cap-sized one throughout: a bucket of that
/// table that is full evicts, by policy:
///
///   * kAlways          — replace a fixed slot unconditionally (baseline).
///   * kDepthPreferred  — evict the *deepest* entry. RMRLS depth semantics
///                        invert chess's: an entry at depth d prunes every
///                        revisit at depth' >= d, so the shallowest entries
///                        are the most valuable and the deepest the most
///                        expendable.
///   * kAging (default) — evict the entry from the oldest generation
///                        first (depth-preferred among equals), so stale
///                        passes decay out of the table instead of pinning
///                        it.
///
/// Generations make one table safely shareable across the search passes of
/// a whole synthesize() call (iterative deepening ladder + refinement
/// reruns + the broad-scope retry): the driver bumps `new_generation()`
/// per pass, and an entry from a previous generation never prunes — it is
/// refreshed to the current generation on first touch. Within a
/// generation the depth rule holds, with the shallower-revisit fix pinned
/// by tests/test_tt_replacement: a state
/// re-reached at the same or a deeper depth prunes, a shallower
/// rediscovery overwrites the stored depth and must be re-expanded.
///
/// Single owner: a table is created inside one synthesize() call and
/// touched only by that call's thread, so it holds no locks and no
/// atomics, and it is unmapped when the call returns — no grown table
/// stays resident in a batch or serve worker between jobs. Concurrency
/// lives one level up — batch, serve and fleet jobs each own their tables
/// (docs/parallelism.md). Hits, inserts, evictions and occupancy feed the
/// `tt_inserts` / `tt_evictions` metrics and the telemetry gauges.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace rmrls {

/// Replacement policy applied when a bucket is full (ablated in
/// bench/ablation_heuristics).
enum class TTReplacement : std::uint8_t { kAlways, kDepthPreferred, kAging };

[[nodiscard]] constexpr const char* to_string(TTReplacement policy) {
  switch (policy) {
    case TTReplacement::kAlways: return "always";
    case TTReplacement::kDepthPreferred: return "depth_preferred";
    case TTReplacement::kAging: return "aging";
  }
  return "unknown";
}

class TranspositionTable {
 public:
  /// Exact sizing for unit tests: `buckets` is the cap and
  /// `initial_buckets` the starting size (0 = the default one page), both
  /// rounded up to a power of two; each bucket holds kBucketEntries
  /// entries.
  struct Config {
    std::size_t buckets = 1;
    TTReplacement policy = TTReplacement::kAging;
    std::size_t initial_buckets = 0;
  };

  static constexpr int kBucketEntries = 4;

  /// Budget-based sizing: the cap is the largest power-of-two bucket count
  /// whose footprint fits in `mb` megabytes (minimum one bucket).
  TranspositionTable(int mb, TTReplacement policy);
  explicit TranspositionTable(const Config& config);

  TranspositionTable(const TranspositionTable&) = delete;
  TranspositionTable& operator=(const TranspositionTable&) = delete;

  /// Returns true when the state should be pruned: already recorded *in
  /// the current generation* at the same or a shallower depth. Otherwise
  /// records `depth` (insert, depth overwrite, or stale-generation
  /// refresh) and returns false. `depth` must be >= 1 — depth 0 is the
  /// root, which is never tabled, and doubles as the empty-slot marker.
  bool check_and_insert(std::uint64_t hash, std::int32_t depth);

  /// Starts a new search pass: entries of older generations stop pruning
  /// (they refresh on first touch) and become preferred eviction victims
  /// under kAging. The counter is 32 bits wide, so an entry can alias the
  /// current generation again only after 2^32 passes — far beyond any
  /// driver's pass count.
  void new_generation() { ++generation_; }
  [[nodiscard]] std::uint32_t generation() const { return generation_; }

  /// Cumulative counters (monotone since construction); pass-scoped stats
  /// are deltas of two reads.
  [[nodiscard]] std::uint64_t total_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t inserts() const { return inserts_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  /// Occupied entries (monotone until full; evictions replace in place).
  [[nodiscard]] std::uint64_t entry_count() const { return occupied_; }

  /// Slots of the live buckets (a power of two); entry_count() never
  /// exceeds it. Grows by doubling up to the cap.
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(buckets_) * kBucketEntries;
  }
  /// Bytes of the live and overflow buckets in use, at most the cap: the
  /// live buckets alone at the cap, 5/4 of them below it (where they are at
  /// most half the cap).
  [[nodiscard]] std::size_t bytes() const {
    return (buckets_ + overflow_buckets_) * sizeof(Bucket);
  }

 private:
  /// `key` is splitmix64(hash): a bijection, so keys compare exactly like
  /// hashes, and a split reads an entry's new bucket straight off the key.
  struct Entry {
    std::uint64_t key = 0;
    std::int32_t depth = 0;  ///< 0 = empty slot (tabled depths are >= 1)
    std::uint32_t gen = 0;
  };
  /// Naturally 64 bytes (4 x 16-byte entries) — exactly one cache line;
  /// the page-aligned mapping below keeps every bucket on its own line.
  struct Bucket {
    Entry entries[kBucketEntries];
  };
  static_assert(sizeof(Bucket) == 64, "one cache line per bucket");

  std::size_t buckets_ = 0;      // live; power of two, <= max_buckets_
  std::size_t bucket_mask_ = 0;
  std::size_t max_buckets_ = 0;  // the cap; power of two
  std::size_t overflow_buckets_ = 0;  // 0 at the cap
  std::size_t overflow_mask_ = 0;
  TTReplacement policy_ = TTReplacement::kAging;
  struct Unmapper {
    std::size_t bytes;  // no initializer: keeps it default-constructible here
    void operator()(Bucket* p) const;
  };

  /// One overflow bucket per four live ones (at least one).
  static std::size_t overflow_buckets_for(std::size_t buckets) {
    return buckets >= 4 ? buckets / 4 : 1;
  }
  [[nodiscard]] Entry* live_bucket(std::uint64_t key) {
    return table_[static_cast<std::size_t>(key) & bucket_mask_].entries;
  }
  [[nodiscard]] Entry* overflow_bucket(std::uint64_t key) {
    return overflow_[static_cast<std::size_t>(key) & overflow_mask_].entries;
  }

  /// Reserves the cap (and, below it, the largest overflow array) as one
  /// range of address space and starts with `initial` live buckets
  /// (capped at max_buckets_).
  void map_table(std::size_t initial);
  /// Sets the live size and the overflow size that goes with it.
  void resize(std::size_t buckets);
  /// Doubles the table in place: live bucket b splits into b and
  /// b + buckets_ by the next key bit, each keeping its entries' slot
  /// order; then the overflow buckets and the stash are placed again, in
  /// their order. Invariant: the entries of a live bucket, followed by
  /// those of its overflow bucket and of the stash that belong to it, are
  /// in the order in which a cap-sized table holds them; an entry is in
  /// the overflow bucket only if its live bucket is full, and in the
  /// stash only if its overflow bucket is full too. So the entries of any
  /// bucket of the cap-sized table, in slot order, are a subsequence of
  /// that sequence (victim_for), and probes, victims and counters are
  /// identical to a table that never grew. At the cap every entry is in
  /// its live bucket again and the overflow array is released.
  void grow();
  /// Puts `e` behind the entries of its live bucket, else of its overflow
  /// bucket, else of the stash, doubling first when all three are full.
  void place(const Entry& e);
  /// A probe that found its key: prune or refresh (check_and_insert).
  bool revisit(Entry& e, std::int32_t depth);
  /// The entry to evict for a missing `key` whose live bucket is full:
  /// null while the key's bucket in a cap-sized table still has room.
  Entry* victim_for(std::uint64_t key);

  /// The live buckets: an anonymous MAP_NORESERVE mapping of the whole
  /// cap, so the buckets past buckets_ are always empty, a doubling only
  /// writes the pages it fills, and nothing is zeroed or committed up
  /// front.
  std::unique_ptr<Bucket[], Unmapper> table_;
  /// Below the cap (null at it): a quarter as many buckets as the live
  /// ones, indexed by the same low key bits, for the entries whose live
  /// bucket is full; they follow the cap in table_'s mapping. The table
  /// doubles once its entries outnumber twice its live buckets (half the
  /// slots), so about one live bucket in seven is full there.
  Bucket* overflow_ = nullptr;
  /// Entries whose overflow bucket was full too, in arrival order. A full
  /// stash forces a doubling, so a probe scans at most kStashEntries here,
  /// and only when its live and overflow buckets are both full.
  static constexpr int kStashEntries = 64;
  Entry stash_[kStashEntries];
  int stash_size_ = 0;
  std::uint32_t generation_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t occupied_ = 0;
};

}  // namespace rmrls
