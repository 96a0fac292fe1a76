#include "core/transposition.hpp"

#include <sys/mman.h>

#include <new>

#include "rev/pprm.hpp"  // splitmix64

namespace rmrls {

namespace {

std::size_t round_down_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

TranspositionTable::TranspositionTable(int mb, TTReplacement policy)
    : policy_(policy) {
  const std::size_t budget = static_cast<std::size_t>(mb < 1 ? 1 : mb) << 20;
  buckets_ = round_down_pow2(budget / sizeof(Bucket));
  if (buckets_ == 0) buckets_ = 1;
  bucket_mask_ = buckets_ - 1;
  map_table();
}

TranspositionTable::TranspositionTable(const Config& config)
    : policy_(config.policy) {
  buckets_ = round_up_pow2(config.buckets == 0 ? 1 : config.buckets);
  bucket_mask_ = buckets_ - 1;
  map_table();
}

void TranspositionTable::Unmapper::operator()(Bucket* p) const {
  munmap(p, bytes);
}

void TranspositionTable::map_table() {
  const std::size_t bytes = buckets_ * sizeof(Bucket);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  table_ = std::unique_ptr<Bucket[], Unmapper>(static_cast<Bucket*>(p),
                                               Unmapper{bytes});
}

bool TranspositionTable::check_and_insert(std::uint64_t hash,
                                          std::int32_t depth) {
  // Remix before reducing: Pprm::hash()'s low bits also drive other
  // consumers' bucketing. The top two remix bits pick the kAlways victim
  // slot so that policy does not always clobber slot 0.
  const std::uint64_t mix = splitmix64(hash);
  const std::size_t bucket = static_cast<std::size_t>(mix) & bucket_mask_;
  const std::uint32_t gen = generation_;
  Entry* entries = table_[bucket].entries;

  Entry* empty = nullptr;
  for (int i = 0; i < kBucketEntries; ++i) {
    Entry& e = entries[i];
    if (e.depth == 0) {
      if (empty == nullptr) empty = &e;
      continue;
    }
    if (e.hash != hash) continue;
    if (e.gen == gen) {
      if (e.depth <= depth) {
        // Re-visit at the same or a deeper depth: redundant, prune. A
        // *shallower* rediscovery falls through to the overwrite below —
        // the fix tests/test_tt_replacement pins (the pruned path could
        // be the better one).
        ++hits_;
        return true;
      }
      e.depth = depth;
      return false;
    }
    // A previous pass's entry: refresh instead of pruning, so a table
    // shared across the ID ladder / refinement passes never suppresses
    // the new pass's exploration.
    e.gen = gen;
    e.depth = depth;
    return false;
  }

  if (empty != nullptr) {
    empty->hash = hash;
    empty->depth = depth;
    empty->gen = gen;
    ++inserts_;
    ++occupied_;
    return false;
  }

  // Bucket full: pick a victim by policy.
  Entry* victim = &entries[0];
  switch (policy_) {
    case TTReplacement::kAlways:
      victim = &entries[static_cast<std::size_t>(mix >> 62)];
      break;
    case TTReplacement::kDepthPreferred:
      for (int i = 1; i < kBucketEntries; ++i) {
        if (entries[i].depth > victim->depth) victim = &entries[i];
      }
      break;
    case TTReplacement::kAging:
      for (int i = 1; i < kBucketEntries; ++i) {
        // Wraparound-safe age: how many generations ago the entry was
        // written. Oldest first, deepest among equals.
        const std::uint32_t age_v = gen - victim->gen;
        const std::uint32_t age_i = gen - entries[i].gen;
        if (age_i > age_v ||
            (age_i == age_v && entries[i].depth > victim->depth)) {
          victim = &entries[i];
        }
      }
      break;
  }
  victim->hash = hash;
  victim->depth = depth;
  victim->gen = gen;
  ++inserts_;
  ++evictions_;
  return false;
}

}  // namespace rmrls
