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

/// Starting size: one 4 KiB page of buckets. A search grows the table only
/// as far as its own inserts need.
constexpr std::size_t kInitialBuckets = 64;

/// Mean entries per live bucket (half the slots) past which the table
/// doubles.
constexpr std::uint64_t kMaxLoad = 2;

/// Reserves `bytes` of zeroed address space. MAP_NORESERVE: untouched
/// pages stay unmapped and read as zero, and nothing is committed for the
/// part of the cap a search never reaches.
void* reserve(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

// Bucket scans shared by the live buckets, overflow buckets and stash
// (templates because the entry type is private to the table).

/// Puts `e` in the first empty slot of `bucket`; false when it is full.
template <class Entry>
bool put(Entry* bucket, int slots, const Entry& e) {
  for (int i = 0; i < slots; ++i) {
    if (bucket[i].depth == 0) {
      bucket[i] = e;
      return true;
    }
  }
  return false;
}

/// The entry of `bucket` holding `key`, or null; `*empty` is set to the
/// first empty slot (null when the bucket is full).
template <class Entry>
Entry* find(Entry* bucket, int slots, std::uint64_t key, Entry** empty) {
  *empty = nullptr;
  for (int i = 0; i < slots; ++i) {
    Entry& e = bucket[i];
    if (e.depth == 0) {
      if (*empty == nullptr) *empty = &e;
      continue;
    }
    if (e.key == key) return &e;
  }
  return nullptr;
}

}  // namespace

TranspositionTable::TranspositionTable(int mb, TTReplacement policy)
    : policy_(policy) {
  const std::size_t budget = static_cast<std::size_t>(mb < 1 ? 1 : mb) << 20;
  max_buckets_ = round_down_pow2(budget / sizeof(Bucket));
  map_table(kInitialBuckets);
}

TranspositionTable::TranspositionTable(const Config& config)
    : policy_(config.policy) {
  max_buckets_ = round_up_pow2(config.buckets);
  map_table(config.initial_buckets == 0 ? kInitialBuckets
                                        : round_up_pow2(config.initial_buckets));
}

void TranspositionTable::Unmapper::operator()(Bucket* p) const {
  munmap(p, bytes);
}

void TranspositionTable::map_table(std::size_t initial) {
  resize(initial < max_buckets_ ? initial : max_buckets_);
  // The overflow buckets follow the cap in the same reservation, sized for
  // the last live size below the cap.
  const std::size_t overflow =
      buckets_ < max_buckets_ ? overflow_buckets_for(max_buckets_ / 2) : 0;
  const std::size_t bytes = (max_buckets_ + overflow) * sizeof(Bucket);
  table_ = std::unique_ptr<Bucket[], Unmapper>(
      static_cast<Bucket*>(reserve(bytes)), Unmapper{bytes});
  if (overflow != 0) overflow_ = table_.get() + max_buckets_;
}

void TranspositionTable::resize(std::size_t buckets) {
  buckets_ = buckets;
  bucket_mask_ = buckets_ - 1;
  overflow_buckets_ = buckets_ < max_buckets_ ? overflow_buckets_for(buckets_)
                                              : 0;
  overflow_mask_ = overflow_buckets_ == 0 ? 0 : overflow_buckets_ - 1;
}

void TranspositionTable::grow() {
  const std::size_t half = buckets_;
  for (std::size_t b = 0; b < half; ++b) {
    Entry* lo = table_[b].entries;
    Entry* hi = table_[b + half].entries;  // untouched so far: all empty
    int kept = 0;
    int moved = 0;
    for (int i = 0; i < kBucketEntries; ++i) {
      const Entry e = lo[i];
      lo[i] = Entry{};
      if (e.depth == 0) continue;
      if ((e.key & half) != 0) {
        hi[moved++] = e;
      } else {
        lo[kept++] = e;
      }
    }
  }
  const std::size_t old_overflow = overflow_buckets_;
  resize(2 * half);

  // Place the overflow buckets, then the stash, again in their order. Each
  // entry lands behind the entries of its bucket that arrived before it.
  // An old overflow bucket's entries return to its own or its new upper
  // half (untouched so far), so they never reach the stash, and the stash
  // only re-fills from itself: no placement here can grow the table.
  for (std::size_t o = 0; o < old_overflow; ++o) {
    Entry drained[kBucketEntries];
    for (int i = 0; i < kBucketEntries; ++i) {
      drained[i] = overflow_[o].entries[i];
      overflow_[o].entries[i] = Entry{};
    }
    for (const Entry& e : drained) {
      if (e.depth != 0) place(e);
    }
  }
  const int stashed = stash_size_;
  stash_size_ = 0;
  for (int i = 0; i < stashed; ++i) {
    const Entry e = stash_[i];
    place(e);
  }
  if (buckets_ == max_buckets_) {
    // At the cap every entry is back in a live bucket: return the
    // overflow pages (a failure only leaves them resident).
    madvise(overflow_, overflow_buckets_for(half) * sizeof(Bucket),
            MADV_DONTNEED);
    overflow_ = nullptr;
  }
}

void TranspositionTable::place(const Entry& e) {
  for (;;) {
    if (put(live_bucket(e.key), kBucketEntries, e)) return;
    // At the cap a live bucket is a cap-sized bucket, which eviction keeps
    // at four entries or fewer: the put above cannot fail there.
    if (put(overflow_bucket(e.key), kBucketEntries, e)) return;
    if (stash_size_ < kStashEntries) {
      stash_[stash_size_++] = e;
      return;
    }
    grow();
  }
}

bool TranspositionTable::revisit(Entry& e, std::int32_t depth) {
  if (e.gen == generation_) {
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
  e.gen = generation_;
  e.depth = depth;
  return false;
}

TranspositionTable::Entry* TranspositionTable::victim_for(std::uint64_t key) {
  // The key's bucket in a cap-sized table: its entries, in slot order, are
  // those of the key's live bucket, overflow bucket and stash, in that
  // order, that agree with the key on the cap's bits.
  const std::uint64_t cap_mask = max_buckets_ - 1;
  Entry* slots[kBucketEntries] = {};
  int n = 0;
  const auto gather = [&](Entry* entries, int count) {
    for (int i = 0; i < count && n < kBucketEntries; ++i) {
      if (entries[i].depth != 0 && ((entries[i].key ^ key) & cap_mask) == 0) {
        slots[n++] = &entries[i];
      }
    }
  };
  gather(live_bucket(key), kBucketEntries);
  if (buckets_ < max_buckets_) {
    gather(overflow_bucket(key), kBucketEntries);
    gather(stash_, stash_size_);
  }
  if (n < kBucketEntries) return nullptr;

  Entry* victim = slots[0];
  switch (policy_) {
    case TTReplacement::kAlways:
      victim = slots[static_cast<std::size_t>(key >> 62)];
      break;
    case TTReplacement::kDepthPreferred:
      for (int i = 1; i < kBucketEntries; ++i) {
        if (slots[i]->depth > victim->depth) victim = slots[i];
      }
      break;
    case TTReplacement::kAging:
      for (int i = 1; i < kBucketEntries; ++i) {
        // Wraparound-safe age: how many generations ago the entry was
        // written. Oldest first, deepest among equals.
        const std::uint32_t age_v = generation_ - victim->gen;
        const std::uint32_t age_i = generation_ - slots[i]->gen;
        if (age_i > age_v ||
            (age_i == age_v && slots[i]->depth > victim->depth)) {
          victim = slots[i];
        }
      }
      break;
  }
  return victim;
}

bool TranspositionTable::check_and_insert(std::uint64_t hash,
                                          std::int32_t depth) {
  // Remix before reducing: Pprm::hash()'s low bits also drive other
  // consumers' bucketing. The top two remix bits pick the kAlways victim
  // slot so that policy does not always clobber slot 0.
  const std::uint64_t key = splitmix64(hash);
  Entry* empty = nullptr;
  Entry* hit = find(live_bucket(key), kBucketEntries, key, &empty);
  const bool live_full = empty == nullptr;
  if (hit == nullptr && live_full && buckets_ < max_buckets_) {
    // Below the cap a full live bucket continues in its overflow bucket,
    // and a full overflow bucket in the stash.
    Entry* overflow_empty = nullptr;
    hit = find(overflow_bucket(key), kBucketEntries, key, &overflow_empty);
    if (hit == nullptr && overflow_empty == nullptr) {
      hit = find(stash_, stash_size_, key, &overflow_empty);
    }
  }
  if (hit != nullptr) return revisit(*hit, depth);

  const Entry fresh{key, depth, generation_};
  if (!live_full) {
    // A live bucket with room holds every entry of the key's cap-sized
    // bucket, so that bucket has room too.
    *empty = fresh;
  } else if (Entry* victim = victim_for(key)) {
    // The key's cap-sized bucket is full: evict by policy.
    *victim = fresh;
    ++inserts_;
    ++evictions_;
    return false;
  } else {
    place(fresh);
  }
  ++inserts_;
  ++occupied_;
  if (occupied_ > kMaxLoad * buckets_ && buckets_ < max_buckets_) grow();
  return false;
}

}  // namespace rmrls
