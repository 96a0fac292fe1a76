#include "rev/pprm_dense.hpp"

#include <bit>
#include <ostream>
#include <stdexcept>

namespace rmrls {

namespace {

[[nodiscard]] std::size_t words_for(int num_vars) {
  return num_vars > 6 ? std::size_t{1} << (num_vars - 6) : std::size_t{1};
}

/// The toggle image of one substitution on a one-word spectrum `s`
/// (n <= 6): build_toggle_image's gather and fold, kept in a register.
/// Zero when the output is untouched. For n <= 6 every variable index is
/// below 6, so only the masked intra-word regime occurs.
[[nodiscard]] std::uint64_t toggle_word(std::uint64_t s, int t, Cube f) {
  std::uint64_t w = (s & kDenseVarMask[t]) >> (1 << t);
  for (Cube rest = f; rest != 0 && w != 0; rest &= rest - 1) {
    const int j = std::countr_zero(rest);
    w = (w ^ (w << (1 << j))) & kDenseVarMask[j];
  }
  return w;
}

/// Thread-local toggle-image scratch: one spectrum's worth of words,
/// reused across calls so the search hot path performs no allocation
/// after warmup (same pattern as CubeList::substitute_into's buffer).
[[nodiscard]] std::uint64_t* scratch_words(std::size_t words) {
  static thread_local std::vector<std::uint64_t> scratch;
  if (scratch.size() < words) scratch.resize(words);
  return scratch.data();
}

}  // namespace

DensePprm::DensePprm(int num_vars) {
  if (num_vars < 0 || num_vars > kMaxDenseVariables) {
    throw std::invalid_argument("num_vars out of dense range");
  }
  num_vars_ = num_vars;
  words_ = words_for(num_vars);
  bits_.assign(static_cast<std::size_t>(num_vars) * words_, 0);
  out_hash_.assign(static_cast<std::size_t>(num_vars), 0);
  out_count_.assign(static_cast<std::size_t>(num_vars), 0);
}

DensePprm::DensePprm(const Pprm& sparse) : DensePprm(sparse.num_vars()) {
  const Cube limit = Cube{1} << num_vars_;
  for (int o = 0; o < num_vars_; ++o) {
    std::uint64_t* w = bits_.data() + words_ * static_cast<std::size_t>(o);
    std::uint64_t h = 0;
    for (Cube c : sparse.output(o).cubes()) {
      if (c >= limit) {
        throw std::invalid_argument("cube outside dense coefficient range");
      }
      w[c >> 6] |= std::uint64_t{1} << (c & 63);
      h ^= cube_hash(c);
    }
    out_hash_[static_cast<std::size_t>(o)] = h;
    out_count_[static_cast<std::size_t>(o)] = sparse.output(o).size();
  }
}

DensePprm DensePprm::identity(int num_vars) {
  DensePprm p(num_vars);
  for (int i = 0; i < num_vars; ++i) {
    const Cube c = cube_of_var(i);
    p.bits_[p.words_ * static_cast<std::size_t>(i) + (c >> 6)] |=
        std::uint64_t{1} << (c & 63);
    p.out_hash_[static_cast<std::size_t>(i)] = cube_hash(c);
    p.out_count_[static_cast<std::size_t>(i)] = 1;
  }
  return p;
}

int DensePprm::term_count() const {
  int n = 0;
  for (const std::int32_t c : out_count_) n += c;
  return n;
}

bool DensePprm::is_identity() const {
  for (int i = 0; i < num_vars_; ++i) {
    if (out_count_[static_cast<std::size_t>(i)] != 1 ||
        !output_contains(i, cube_of_var(i))) {
      return false;
    }
  }
  return true;
}

bool DensePprm::build_toggle_image(const std::uint64_t* s, int t, Cube f,
                                   std::uint64_t* w) const {
  // Step 1 — gather: w[x] = s[x | v_t] for every index x with v_t clear,
  // 0 elsewhere. For t >= 6 the v_t-half occupies whole words at stride
  // 2^(t-6); below, positions interleave within words and a masked shift
  // does the move (the carry out of `x + 2^t` lands exactly on the
  // positions the mask discards, so no cross-contamination).
  std::uint64_t any = 0;
  if (t >= 6) {
    const std::size_t stride = std::size_t{1} << (t - 6);
    for (std::size_t base = 0; base < words_; base += 2 * stride) {
      for (std::size_t k = 0; k < stride; ++k) {
        any |= (w[base + k] = s[base + stride + k]);
        w[base + stride + k] = 0;
      }
    }
  } else {
    const int sh = 1 << t;
    for (std::size_t i = 0; i < words_; ++i) {
      any |= (w[i] = (s[i] & kDenseVarMask[t]) >> sh);
    }
  }
  if (any == 0) return false;  // no coefficient contains v_t

  // Step 2 — fold along every variable j of f. The index map
  // `x -> x | f` is an OR, so sources differing only inside f's bits
  // collide; folding one variable at a time resolves the collisions as
  // GF(2) parities: after variable j, w[x] (for x with j set) holds
  // w_old[x] XOR w_old[x ^ 2^j], and positions with j clear go to zero.
  // After all of f the support is exactly {x : x contains f, v_t clear}
  // with the correct parities.
  for (Cube rest = f; rest != 0; rest &= rest - 1) {
    const int j = std::countr_zero(rest);
    if (j >= 6) {
      const std::size_t stride = std::size_t{1} << (j - 6);
      for (std::size_t base = 0; base < words_; base += 2 * stride) {
        for (std::size_t k = 0; k < stride; ++k) {
          w[base + stride + k] ^= w[base + k];
          w[base + k] = 0;
        }
      }
    } else {
      const int sh = 1 << j;
      for (std::size_t i = 0; i < words_; ++i) {
        w[i] = (w[i] ^ (w[i] << sh)) & kDenseVarMask[j];
      }
    }
  }
  return true;
}

int DensePprm::apply_toggle_image(int o, const std::uint64_t* image) {
  std::uint64_t* s = bits_.data() + words_ * static_cast<std::size_t>(o);
  std::uint64_t h = out_hash_[static_cast<std::size_t>(o)];
  int delta = 0;
  for (std::size_t i = 0; i < words_; ++i) {
    std::uint64_t toggled = image[i];
    if (toggled == 0) continue;
    const std::uint64_t before = s[i];
    s[i] = before ^ toggled;
    delta += std::popcount(s[i]) - std::popcount(before);
    const std::uint64_t base = static_cast<std::uint64_t>(i) << 6;
    do {
      h ^= cube_hash(base + static_cast<unsigned>(std::countr_zero(toggled)));
      toggled &= toggled - 1;
    } while (toggled != 0);
  }
  out_hash_[static_cast<std::size_t>(o)] = h;
  out_count_[static_cast<std::size_t>(o)] += delta;
  return delta;
}

int DensePprm::substitute(int t, Cube f) {
  if (f & cube_of_var(t)) {
    throw std::invalid_argument("factor contains target variable");
  }
  std::uint64_t* image = scratch_words(words_);
  int delta = 0;
  for (int o = 0; o < num_vars_; ++o) {
    if (!build_toggle_image(output_bits(o), t, f, image)) continue;
    delta += apply_toggle_image(o, image);
  }
  return delta;
}

int DensePprm::substitute_into(int t, Cube f, DensePprm& dst) const {
  if (f & cube_of_var(t)) {
    throw std::invalid_argument("factor contains target variable");
  }
  // Reuses dst's buffers; assign() on equal sizes never reallocates.
  dst.num_vars_ = num_vars_;
  dst.words_ = words_;
  dst.bits_ = bits_;
  dst.out_hash_ = out_hash_;
  dst.out_count_ = out_count_;
  int delta = 0;
  if (words_ == 1) {
    for (int o = 0; o < num_vars_; ++o) {
      const std::uint64_t w = toggle_word(bits_[o], t, f);
      if (w != 0) delta += dst.apply_toggle_image(o, &w);
    }
    return delta;
  }
  std::uint64_t* image = scratch_words(words_);
  for (int o = 0; o < num_vars_; ++o) {
    if (!build_toggle_image(output_bits(o), t, f, image)) continue;
    delta += dst.apply_toggle_image(o, image);
  }
  return delta;
}

int DensePprm::substitute_delta(int t, Cube f) const {
  if (f & cube_of_var(t)) {
    throw std::invalid_argument("factor contains target variable");
  }
  // Same passes as substitute_into, reduced to popcounts: the candidate
  // pricing loop (the search's hottest call) never touches a hash or a
  // destination buffer.
  int delta = 0;
  if (words_ == 1) {
    for (int o = 0; o < num_vars_; ++o) {
      const std::uint64_t s = bits_[o];
      delta += std::popcount(s ^ toggle_word(s, t, f)) - std::popcount(s);
    }
    return delta;
  }
  std::uint64_t* image = scratch_words(words_);
  for (int o = 0; o < num_vars_; ++o) {
    const std::uint64_t* s = output_bits(o);
    if (!build_toggle_image(s, t, f, image)) continue;
    for (std::size_t i = 0; i < words_; ++i) {
      if (image[i] == 0) continue;
      delta += std::popcount(s[i] ^ image[i]) - std::popcount(s[i]);
    }
  }
  return delta;
}

std::uint64_t DensePprm::eval(std::uint64_t x) const {
  std::uint64_t y = 0;
  for (int o = 0; o < num_vars_; ++o) {
    const std::uint64_t* s = output_bits(o);
    bool acc = false;
    for (std::size_t i = 0; i < words_; ++i) {
      std::uint64_t word = s[i];
      const std::uint64_t base = static_cast<std::uint64_t>(i) << 6;
      while (word != 0) {
        const Cube c =
            base + static_cast<unsigned>(std::countr_zero(word));
        word &= word - 1;
        acc ^= cube_eval(c, x);
      }
    }
    if (acc) y |= std::uint64_t{1} << o;
  }
  return y;
}

std::size_t DensePprm::hash() const {
  std::uint64_t h = kSystemHashSeed;
  for (std::size_t i = 0; i < out_hash_.size(); ++i) {
    h = fold_output_hash(h, out_hash_[i], i);
  }
  return static_cast<std::size_t>(h);
}

Pprm DensePprm::to_pprm() const {
  Pprm p(num_vars_);
  for (int o = 0; o < num_vars_; ++o) {
    const std::uint64_t* s = output_bits(o);
    std::vector<Cube> cubes;
    cubes.reserve(static_cast<std::size_t>(output_term_count(o)));
    for (std::size_t i = 0; i < words_; ++i) {
      std::uint64_t word = s[i];
      const std::uint64_t base = static_cast<std::uint64_t>(i) << 6;
      while (word != 0) {
        cubes.push_back(base +
                        static_cast<unsigned>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
    p.output(o) = CubeList(std::move(cubes));
  }
  return p;
}

std::string DensePprm::to_string() const { return to_pprm().to_string(); }

std::ostream& operator<<(std::ostream& os, const DensePprm& p) {
  return os << p.to_string();
}

}  // namespace rmrls
