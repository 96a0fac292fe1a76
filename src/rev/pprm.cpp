#include "rev/pprm.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rmrls {

std::string cube_to_string(Cube c, int num_vars) {
  if (c == kConstOne) return "1";
  std::string out;
  for (int v = 0; v < num_vars; ++v) {
    if (!cube_has_var(c, v)) continue;
    if (num_vars <= 26) {
      out.push_back(static_cast<char>('a' + v));
    } else {
      out += "x" + std::to_string(v);
      out.push_back('.');
    }
  }
  if (!out.empty() && out.back() == '.') out.pop_back();
  return out;
}

CubeList::CubeList(std::vector<Cube> cubes) : cubes_(std::move(cubes)) {
  std::sort(cubes_.begin(), cubes_.end());
  // XOR semantics: pairs of identical cubes cancel.
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size();) {
    std::size_t j = i;
    while (j < cubes_.size() && cubes_[j] == cubes_[i]) ++j;
    if ((j - i) % 2 == 1) {
      kept.push_back(cubes_[i]);
      hash_ ^= cube_hash(cubes_[i]);
    }
    i = j;
  }
  cubes_ = std::move(kept);
}

void CubeList::toggle(Cube c) {
  auto it = std::lower_bound(cubes_.begin(), cubes_.end(), c);
  if (it != cubes_.end() && *it == c) {
    cubes_.erase(it);
  } else {
    cubes_.insert(it, c);
  }
  hash_ ^= cube_hash(c);
}

void CubeList::toggle_all(const CubeList& other) {
  // Merge as a sorted symmetric difference.
  std::vector<Cube> merged;
  merged.reserve(cubes_.size() + other.cubes_.size());
  auto a = cubes_.begin();
  auto b = other.cubes_.begin();
  while (a != cubes_.end() && b != other.cubes_.end()) {
    if (*a < *b) {
      merged.push_back(*a++);
    } else if (*b < *a) {
      merged.push_back(*b++);
    } else {
      ++a;
      ++b;
    }
  }
  merged.insert(merged.end(), a, cubes_.end());
  merged.insert(merged.end(), b, other.cubes_.end());
  cubes_ = std::move(merged);
  hash_ ^= other.hash_;  // symmetric difference: toggled cubes cancel
}

bool CubeList::contains(Cube c) const {
  return std::binary_search(cubes_.begin(), cubes_.end(), c);
}

bool CubeList::eval(std::uint64_t x) const {
  bool acc = false;
  for (Cube c : cubes_) acc ^= cube_eval(c, x);
  return acc;
}

bool CubeList::depends_on(int t) const {
  const Cube bit = cube_of_var(t);
  for (Cube c : cubes_) {
    if (c & bit) return true;
  }
  return false;
}

int CubeList::substitute(int t, Cube f) {
  const Cube bit = cube_of_var(t);
  if (f & bit) throw std::invalid_argument("factor contains target variable");
  // (v_t XOR f) * rest = v_t*rest XOR f*rest: every cube containing v_t
  // contributes one extra cube with v_t replaced by f.
  std::vector<Cube> added;
  for (Cube c : cubes_) {
    if (c & bit) added.push_back((c & ~bit) | f);
  }
  if (added.empty()) return 0;
  const int before = size();
  toggle_all(CubeList{std::move(added)});
  return size() - before;
}

int CubeList::substitute_into(int t, Cube f, CubeList& dst) const {
  const Cube bit = cube_of_var(t);
  if (f & bit) throw std::invalid_argument("factor contains target variable");
  // Rewritten cubes, sorted and XOR-deduplicated. The scratch buffer is
  // per-thread so concurrent searches never contend (and after warmup
  // this function performs no allocation beyond dst's own growth).
  static thread_local std::vector<Cube> scratch;
  scratch.clear();
  for (Cube c : cubes_) {
    if (c & bit) scratch.push_back((c & ~bit) | f);
  }
  if (scratch.empty()) {  // no cube contains v_t: the result is a copy
    dst.cubes_ = cubes_;  // vector assignment reuses dst's capacity
    dst.hash_ = hash_;
    return 0;
  }
  std::sort(scratch.begin(), scratch.end());
  std::uint64_t rewritten_hash = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < scratch.size();) {
    std::size_t j = i;
    while (j < scratch.size() && scratch[j] == scratch[i]) ++j;
    if ((j - i) % 2 == 1) {
      scratch[kept++] = scratch[i];
      rewritten_hash ^= cube_hash(scratch[i]);
    }
    i = j;
  }
  // Merge the sorted symmetric difference of cubes_ and the rewritten
  // terms directly into dst.
  dst.cubes_.clear();
  dst.cubes_.reserve(cubes_.size() + kept);
  auto a = cubes_.begin();
  const auto a_end = cubes_.end();
  std::size_t b = 0;
  while (a != a_end && b < kept) {
    if (*a < scratch[b]) {
      dst.cubes_.push_back(*a++);
    } else if (scratch[b] < *a) {
      dst.cubes_.push_back(scratch[b++]);
    } else {
      ++a;
      ++b;
    }
  }
  dst.cubes_.insert(dst.cubes_.end(), a, a_end);
  dst.cubes_.insert(dst.cubes_.end(), scratch.begin() + b,
                    scratch.begin() + kept);
  dst.hash_ = hash_ ^ rewritten_hash;
  return dst.size() - size();
}

int CubeList::substitute_delta(int t, Cube f) const {
  const Cube bit = cube_of_var(t);
  if (f & bit) throw std::invalid_argument("factor contains target variable");
  // Rewritten cubes can collide with each other (two sources differing
  // only inside f's bits map to the same cube), so group before counting.
  // A stack buffer covers the common case; this runs once per candidate
  // per node expansion, the hottest loop in the search.
  constexpr std::size_t kStack = 64;
  Cube stack_buf[kStack];
  std::vector<Cube> heap_buf;
  std::size_t count = 0;
  Cube* added = stack_buf;
  for (Cube c : cubes_) {
    if (!(c & bit)) continue;
    if (count == kStack && heap_buf.empty()) {
      heap_buf.assign(stack_buf, stack_buf + kStack);
    }
    if (!heap_buf.empty() || count >= kStack) {
      heap_buf.push_back((c & ~bit) | f);
    } else {
      stack_buf[count] = (c & ~bit) | f;
    }
    ++count;
  }
  if (count == 0) return 0;
  if (!heap_buf.empty()) added = heap_buf.data();
  std::sort(added, added + count);
  int delta = 0;
  for (std::size_t i = 0; i < count;) {
    std::size_t j = i;
    while (j < count && added[j] == added[i]) ++j;
    if ((j - i) % 2 == 1) delta += contains(added[i]) ? -1 : 1;
    i = j;
  }
  return delta;
}

std::string CubeList::to_string(int num_vars) const {
  if (cubes_.empty()) return "0";
  std::string out;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (i != 0) out += " + ";
    out += cube_to_string(cubes_[i], num_vars);
  }
  return out;
}

Pprm::Pprm(int num_vars) {
  if (num_vars < 0 || num_vars > kMaxVariables) {
    throw std::invalid_argument("num_vars out of range");
  }
  outs_.resize(static_cast<std::size_t>(num_vars));
}

Pprm Pprm::identity(int num_vars) {
  Pprm p(num_vars);
  for (int i = 0; i < num_vars; ++i) p.outs_[i].toggle(cube_of_var(i));
  return p;
}

int Pprm::term_count() const {
  int n = 0;
  for (const CubeList& o : outs_) n += o.size();
  return n;
}

bool Pprm::is_identity() const {
  for (int i = 0; i < num_vars(); ++i) {
    if (!outs_[i].is_single_var(i)) return false;
  }
  return true;
}

int Pprm::substitute(int t, Cube f) {
  int delta = 0;
  for (CubeList& o : outs_) delta += o.substitute(t, f);
  return delta;
}

int Pprm::substitute_into(int t, Cube f, Pprm& dst) const {
  // Reuses dst's per-output cube buffers; dst must not alias *this.
  dst.outs_.resize(outs_.size());
  int delta = 0;
  for (std::size_t i = 0; i < outs_.size(); ++i) {
    delta += outs_[i].substitute_into(t, f, dst.outs_[i]);
  }
  return delta;
}

int Pprm::substitute_delta(int t, Cube f) const {
  int delta = 0;
  for (const CubeList& o : outs_) delta += o.substitute_delta(t, f);
  return delta;
}

std::uint64_t Pprm::eval(std::uint64_t x) const {
  std::uint64_t y = 0;
  for (int i = 0; i < num_vars(); ++i) {
    if (outs_[i].eval(x)) y |= std::uint64_t{1} << i;
  }
  return y;
}

std::string Pprm::to_string() const {
  std::ostringstream os;
  const int n = num_vars();
  for (int i = 0; i < n; ++i) {
    os << cube_to_string(cube_of_var(i), n) << "_out = "
       << outs_[i].to_string(n) << "\n";
  }
  return os.str();
}

std::size_t Pprm::hash() const {
  // Folds the incrementally maintained per-output hashes (the combiner is
  // shared with DensePprm::hash so both representations of one system
  // hash identically). O(num_vars) instead of a pass over every cube —
  // the transposition table hashes every materialized child, so this is
  // a search hot path.
  std::uint64_t h = kSystemHashSeed;
  for (std::size_t i = 0; i < outs_.size(); ++i) {
    h = fold_output_hash(h, outs_[i].raw_hash(), i);
  }
  return static_cast<std::size_t>(h);
}

std::ostream& operator<<(std::ostream& os, const Pprm& p) {
  return os << p.to_string();
}

}  // namespace rmrls
