/// \file transposition.hpp
/// \brief Bounded-memory transposition table with depth-preferred + aging
///        replacement (docs/parallelism.md).
///
/// The fixed-size bucketized layout mature game-tree searchers use: the
/// table is a power-of-two array of 64-byte buckets, four 16-byte entries
/// `{hash, depth, generation}` each, sized once from a megabyte budget
/// (`SynthesisOptions::tt_mb`, CLI `--tt-mb`) and never growing. A full bucket evicts by policy instead of
/// allocating:
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
/// Single owner: a table is created inside one synthesize() call (or one
/// engine run) and touched only by that call's thread, so it holds no
/// locks and no atomics. Concurrency lives one level up — batch, serve and
/// fleet jobs each own their tables (docs/parallelism.md). Hits, inserts,
/// evictions and occupancy feed the `tt_inserts` / `tt_evictions` metrics
/// and the telemetry gauges.

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
  /// Exact sizing for unit tests: `buckets` is rounded up to a power of
  /// two, each bucket holds kBucketEntries entries.
  struct Config {
    std::size_t buckets = 1;
    TTReplacement policy = TTReplacement::kAging;
  };

  static constexpr int kBucketEntries = 4;

  /// Budget-based sizing: the largest power-of-two bucket count whose
  /// footprint fits in `mb` megabytes (minimum one bucket).
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

  /// Hard capacity in entries; entry_count() can never exceed it.
  [[nodiscard]] std::uint64_t capacity() const {
    return static_cast<std::uint64_t>(buckets_) * kBucketEntries;
  }
  /// Bytes held by the bucket array (the table's only unbounded-input
  /// allocation; fixed at construction).
  [[nodiscard]] std::size_t bytes() const {
    return buckets_ * sizeof(Bucket);
  }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::int32_t depth = 0;  ///< 0 = empty slot (tabled depths are >= 1)
    std::uint32_t gen = 0;
  };
  /// Naturally 64 bytes (4 x 16-byte entries) — exactly one cache line;
  /// the page-aligned mapping below keeps every bucket on its own line.
  struct Bucket {
    Entry entries[kBucketEntries];
  };
  static_assert(sizeof(Bucket) == 64, "one cache line per bucket");

  std::size_t buckets_ = 0;    // power of two
  std::size_t bucket_mask_ = 0;
  TTReplacement policy_ = TTReplacement::kAging;
  struct Unmapper {
    std::size_t bytes;  // no initializer: keeps it default-constructible here
    void operator()(Bucket* p) const;
  };
  /// Maps `buckets_` zeroed buckets into table_.
  void map_table();
  /// An anonymous mapping, so untouched pages stay unmapped and nothing is
  /// zeroed up front: a 64 MB default budget costs nothing for the small
  /// runs that never fill it. calloc gives that only when the allocator
  /// maps the block fresh; below glibc's mmap threshold, and under the
  /// sanitizer allocators, it zeroes the whole budget eagerly.
  std::unique_ptr<Bucket[], Unmapper> table_;
  std::uint32_t generation_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t occupied_ = 0;
};

}  // namespace rmrls
