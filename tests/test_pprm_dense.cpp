// Tests for the word-parallel dense PPRM kernel (rev/pprm_dense.hpp):
// construction, substitution in both word-move (t >= 6) and intra-word
// mask (t < 6) regimes, and — the load-bearing property — full agreement
// with the sparse representation: equal spectra, equal substitute_delta,
// equal hashes, identical candidate enumerations, and bit-identical
// synthesized circuits. See docs/dense_pprm.md.

#include "rev/pprm_dense.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/factor_enum.hpp"
#include "core/synthesizer.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

Cube a() { return cube_of_var(0); }
Cube b() { return cube_of_var(1); }
Cube c() { return cube_of_var(2); }

TEST(DensePprm, IdentityMatchesSparse) {
  for (int n : {1, 3, 6, 7, 9}) {
    const DensePprm d = DensePprm::identity(n);
    EXPECT_TRUE(d.is_identity());
    EXPECT_EQ(d.term_count(), n);
    EXPECT_EQ(d.to_pprm(), Pprm::identity(n));
    EXPECT_EQ(d.hash(), Pprm::identity(n).hash());
  }
}

TEST(DensePprm, ConversionRoundTrip) {
  std::mt19937_64 rng(11);
  for (int n = 1; n <= 10; ++n) {
    const Pprm sparse =
        pprm_of_truth_table(random_reversible_function(n, rng));
    const DensePprm dense(sparse);
    EXPECT_EQ(dense.num_vars(), n);
    EXPECT_EQ(dense.term_count(), sparse.term_count());
    EXPECT_EQ(dense.to_pprm(), sparse);
    EXPECT_EQ(dense.hash(), sparse.hash());
  }
}

TEST(DensePprm, ConstructorRejectsOutOfRange) {
  EXPECT_THROW(DensePprm(-1), std::invalid_argument);
  EXPECT_THROW(DensePprm(kMaxDenseVariables + 1), std::invalid_argument);
  // A sparse system whose cubes exceed the declared width cannot exist
  // through the public API, but the dense constructor still guards.
  EXPECT_NO_THROW(DensePprm(kMaxDenseVariables));
}

TEST(DensePprm, SubstituteRejectsSelfTarget) {
  DensePprm d = DensePprm::identity(3);
  EXPECT_THROW(d.substitute(0, a()), std::invalid_argument);
  EXPECT_THROW(d.substitute(1, a() | b()), std::invalid_argument);
}

TEST(DensePprm, SubstituteMatchesSparseSmall) {
  // f_out = b + ab on output 0; substitute b <- b XOR c (intra-word,
  // t = 1 < 6) and compare term-for-term against the sparse result.
  Pprm sparse(3);
  sparse.output(0) = CubeList({b(), a() | b()});
  sparse.output(1) = CubeList({b()});
  sparse.output(2) = CubeList({c()});
  DensePprm dense(sparse);
  const int sd = sparse.substitute(1, c());
  const int dd = dense.substitute(1, c());
  EXPECT_EQ(sd, dd);
  EXPECT_EQ(dense.to_pprm(), sparse);
  EXPECT_EQ(dense.hash(), sparse.hash());
}

TEST(DensePprm, WordMoveRegimeMatchesSparse) {
  // n = 8 puts the spectrum at four words per output; targets t >= 6
  // exercise the whole-word gather/fold moves, targets t < 6 the masked
  // intra-word shifts, within the same system.
  std::mt19937_64 rng(12);
  const Pprm start =
      pprm_of_truth_table(random_reversible_function(8, rng));
  for (int t : {0, 3, 5, 6, 7}) {
    for (Cube f : {cube_of_var((t + 1) % 8),
                   cube_of_var((t + 1) % 8) | cube_of_var((t + 3) % 8),
                   kConstOne}) {
      if (f & cube_of_var(t)) continue;
      Pprm sparse = start;
      DensePprm dense(start);
      const int sd = sparse.substitute(t, f);
      const int dd = dense.substitute(t, f);
      EXPECT_EQ(sd, dd) << "t=" << t << " f=" << f;
      EXPECT_EQ(dense.to_pprm(), sparse) << "t=" << t << " f=" << f;
      EXPECT_EQ(dense.hash(), sparse.hash()) << "t=" << t << " f=" << f;
    }
  }
}

TEST(DensePprm, SubstituteIntoReusesDestination) {
  std::mt19937_64 rng(13);
  const Pprm sparse =
      pprm_of_truth_table(random_reversible_function(7, rng));
  const DensePprm dense(sparse);
  // First use materializes into a default-constructed system, the second
  // overwrites the first result in the same buffers, the third a narrower
  // system's; all must agree with sparse.
  DensePprm narrow = DensePprm::identity(3);
  DensePprm dst;
  for (DensePprm* target : {&dst, &dst, &narrow}) {
    const int dd = dense.substitute_into(0, b() | c(), *target);
    Pprm expect = sparse;
    const int sd = expect.substitute(0, b() | c());
    EXPECT_EQ(dd, sd);
    EXPECT_EQ(target->to_pprm(), expect);
  }
}

// The kernel equivalence sweep: both kernel paths (one word per output for
// n <= 6, the general word loop for n = 7) against the sparse reference,
// on every enumerated candidate and on random factors outside the
// candidate rules.
TEST(DensePprm, KernelMatchesSparseOnEveryCandidate) {
  std::mt19937_64 rng(16);
  SynthesisOptions options;
  options.allow_relaxed_targets = true;
  for (int n = 1; n <= 7; ++n) {
    for (int trial = 0; trial < 3; ++trial) {
      const Pprm sparse =
          pprm_of_truth_table(random_reversible_function(n, rng));
      const DensePprm dense(sparse);
      std::vector<Candidate> cands =
          enumerate_candidates(sparse, options, nullptr);
      const Cube all = (Cube{1} << n) - 1;
      for (int i = 0; i < 32; ++i) {
        const int t = static_cast<int>(rng() % static_cast<unsigned>(n));
        cands.push_back({t, (rng() & all) & ~cube_of_var(t)});
      }
      DensePprm dst;  // reused across candidates, as the engine does
      for (const Candidate& cand : cands) {
        const int t = cand.target;
        const Cube f = cand.factor;
        Pprm expect = sparse;
        const int sd = expect.substitute(t, f);
        EXPECT_EQ(dense.substitute_delta(t, f), sd)
            << "n=" << n << " t=" << t << " f=" << f;
        EXPECT_EQ(dense.substitute_into(t, f, dst), sd);
        ASSERT_EQ(dst.to_pprm(), expect)
            << "n=" << n << " t=" << t << " f=" << f;
        for (int o = 0; o < n; ++o) {
          EXPECT_EQ(dst.output_term_count(o), expect.output(o).size());
        }
        EXPECT_EQ(dst.hash(), expect.hash());
      }
    }
  }
}

TEST(DensePprm, EvalMatchesSparse) {
  std::mt19937_64 rng(14);
  for (int n : {3, 5, 8}) {
    const Pprm sparse =
        pprm_of_truth_table(random_reversible_function(n, rng));
    const DensePprm dense(sparse);
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
      EXPECT_EQ(dense.eval(x), sparse.eval(x));
    }
  }
}

TEST(DensePprm, CandidateEnumerationMatchesSparse) {
  std::mt19937_64 rng(15);
  for (int n = 2; n <= 9; ++n) {
    const Pprm sparse =
        pprm_of_truth_table(random_reversible_function(n, rng));
    const DensePprm dense(sparse);
    for (const bool relaxed : {false, true}) {
      SynthesisOptions options;
      options.allow_relaxed_targets = relaxed;
      std::vector<Candidate> from_sparse;
      std::vector<Candidate> from_dense;
      enumerate_candidates_into(sparse, options, nullptr, from_sparse);
      enumerate_candidates_into(dense, options, nullptr, from_dense);
      ASSERT_EQ(from_sparse.size(), from_dense.size()) << "n=" << n;
      for (std::size_t i = 0; i < from_sparse.size(); ++i) {
        // Same order, not just same set: tie-breaking, greedy pruning and
        // seq numbering in the engine all depend on it.
        EXPECT_EQ(from_sparse[i].target, from_dense[i].target);
        EXPECT_EQ(from_sparse[i].factor, from_dense[i].factor);
        EXPECT_EQ(from_sparse[i].additional, from_dense[i].additional);
      }
    }
  }
}

// The randomized cross-representation property drive: identical random
// substitution sequences through both representations must keep the
// spectra, the read-only deltas, and the transposition-table hash keys in
// lockstep at every step.
TEST(DensePprm, RandomSubstitutionSequencesAgreeWithSparse) {
  std::mt19937_64 rng(0xd5eed);
  const SynthesisOptions options;  // default candidate rules
  for (int n = 3; n <= 10; ++n) {
    for (int trial = 0; trial < (n <= 6 ? 8 : 3); ++trial) {
      Pprm sparse =
          pprm_of_truth_table(random_reversible_function(n, rng));
      DensePprm dense(sparse);
      for (int step = 0; step < 12; ++step) {
        const std::vector<Candidate> cands =
            enumerate_candidates(sparse, options, nullptr);
        if (cands.empty()) break;
        const Candidate& pick = cands[rng() % cands.size()];
        // Read-only pricing agrees...
        const int sparse_delta =
            sparse.substitute_delta(pick.target, pick.factor);
        ASSERT_EQ(dense.substitute_delta(pick.target, pick.factor),
                  sparse_delta)
            << "n=" << n << " step=" << step;
        // ...and so do the applied substitution, the spectrum, and the
        // hash key the transposition table would dedup on.
        ASSERT_EQ(dense.substitute(pick.target, pick.factor),
                  sparse.substitute(pick.target, pick.factor));
        ASSERT_EQ(dense.term_count(), sparse.term_count());
        ASSERT_EQ(dense.to_pprm(), sparse) << "n=" << n << " step=" << step;
        ASSERT_EQ(dense.hash(), sparse.hash());
        ASSERT_EQ(dense.is_identity(), sparse.is_identity());
      }
    }
  }
}

// Equal hash keys mean equal dedup decisions only if unequal states keep
// unequal keys too (within collision odds): walk a sequence and check the
// dense hash changes exactly when the sparse hash changes.
TEST(DensePprm, HashDistinguishesStatesLikeSparse) {
  std::mt19937_64 rng(0xface);
  Pprm sparse = pprm_of_truth_table(random_reversible_function(5, rng));
  DensePprm dense(sparse);
  const SynthesisOptions options;
  std::size_t prev_sparse = sparse.hash();
  std::size_t prev_dense = dense.hash();
  ASSERT_EQ(prev_sparse, prev_dense);
  for (int step = 0; step < 20; ++step) {
    const std::vector<Candidate> cands =
        enumerate_candidates(sparse, options, nullptr);
    if (cands.empty()) break;
    const Candidate& pick = cands[rng() % cands.size()];
    sparse.substitute(pick.target, pick.factor);
    dense.substitute(pick.target, pick.factor);
    EXPECT_EQ(sparse.hash(), dense.hash());
    EXPECT_EQ(sparse.hash() == prev_sparse, dense.hash() == prev_dense);
    prev_sparse = sparse.hash();
    prev_dense = dense.hash();
  }
}

// The acceptance criterion of the adaptive switch: below the threshold the
// dense and sparse engines must synthesize bit-identical circuits (same
// gates in the same order), not merely circuits of equal size.
TEST(DensePprm, EnginesProduceIdenticalCircuits) {
  std::mt19937_64 rng(0xc1c1);
  for (int n : {3, 4}) {
    for (int trial = 0; trial < (n == 3 ? 12 : 4); ++trial) {
      const TruthTable spec = random_reversible_function(n, rng);
      SynthesisOptions dense_opts;
      dense_opts.max_nodes = 20000;
      SynthesisOptions sparse_opts = dense_opts;
      sparse_opts.dense_threshold = 0;
      const SynthesisResult dr = synthesize(spec, dense_opts);
      const SynthesisResult sr = synthesize(spec, sparse_opts);
      ASSERT_EQ(dr.success, sr.success);
      EXPECT_TRUE(dr.stats.dense_kernel);
      EXPECT_FALSE(sr.stats.dense_kernel);
      if (!dr.success) continue;
      ASSERT_EQ(dr.circuit.gate_count(), sr.circuit.gate_count());
      for (std::size_t g = 0; g < dr.circuit.gates().size(); ++g) {
        EXPECT_EQ(dr.circuit.gates()[g].target, sr.circuit.gates()[g].target);
        EXPECT_EQ(dr.circuit.gates()[g].controls,
                  sr.circuit.gates()[g].controls);
      }
      EXPECT_TRUE(implements(dr.circuit, spec));
    }
  }
}

TEST(DensePprm, StatsReportKernelChoice) {
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  SynthesisOptions o;
  o.max_nodes = 20000;
  const SynthesisResult dense_run = synthesize(spec, o);
  EXPECT_TRUE(dense_run.stats.dense_kernel);
  EXPECT_EQ(dense_run.stats.representation_switches, 0u);
  o.dense_threshold = 0;
  const SynthesisResult sparse_run = synthesize(spec, o);
  EXPECT_FALSE(sparse_run.stats.dense_kernel);
}

}  // namespace
}  // namespace rmrls
