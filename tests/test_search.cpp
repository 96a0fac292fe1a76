// Tests for the RMRLS search engine and public synthesize() entry points.

#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "core/factor_enum.hpp"
#include "core/synthesizer.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

SynthesisOptions quick() {
  SynthesisOptions o;
  o.max_nodes = 50000;
  return o;
}

TEST(Search, Fig1SynthesizesInThreeGates) {
  // The paper's running example reduces in exactly three substitutions
  // (Fig. 5): TOF1(a), TOF3(a, c; b), TOF3(a, b; c).
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, quick());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 3);
  EXPECT_TRUE(implements(r.circuit, spec));
}

TEST(Search, IdentityNeedsNoGates) {
  const SynthesisResult r = synthesize(TruthTable::identity(4), quick());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 0);
}

TEST(Search, SingleGateFunctions) {
  // A lone NOT and a lone CNOT synthesize as single gates.
  const SynthesisResult r1 = synthesize(TruthTable({1, 0}), quick());
  ASSERT_TRUE(r1.success);
  EXPECT_EQ(r1.circuit.gate_count(), 1);
  const SynthesisResult r2 =
      synthesize(TruthTable({0, 3, 2, 1}), quick());  // CNOT a->b
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r2.circuit.gate_count(), 1);
}

TEST(Search, WireSwapIsReachable) {
  // Pure wire swap: provably unreachable under strict monotone pruning;
  // the fallback exemption scope must recover it (DESIGN.md).
  const TruthTable swap_ab({0, 2, 1, 3});
  const SynthesisResult r = synthesize(swap_ab, quick());
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, swap_ab));
  EXPECT_LE(r.circuit.gate_count(), 3);  // the classic 3-CNOT pattern
}

TEST(Search, PaperExamplesSynthesizeAndVerify) {
  // Section V-C Examples 1-8 (all with explicit printed specs).
  const std::vector<std::vector<std::uint64_t>> specs = {
      {1, 0, 3, 2, 5, 7, 4, 6},
      {7, 0, 1, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 6, 5, 7},
      {0, 1, 2, 4, 3, 5, 6, 7},
      {0, 1, 2, 3, 4, 5, 6, 8, 7, 9, 10, 11, 12, 13, 14, 15},
      {1, 2, 3, 4, 5, 6, 7, 0},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0},
      {0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5}};
  const std::vector<int> paper_gates = {4, 3, 3, 6, 7, 3, 4, 4};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TruthTable spec(specs[i]);
    const SynthesisResult r = synthesize(spec, quick());
    ASSERT_TRUE(r.success) << "example " << i + 1;
    EXPECT_TRUE(implements(r.circuit, spec)) << "example " << i + 1;
    // Within 1.5x of the paper's printed sizes (ours sometimes beats them).
    EXPECT_LE(r.circuit.gate_count(), paper_gates[i] + paper_gates[i] / 2 + 1)
        << "example " << i + 1;
  }
}

TEST(Search, MaxGatesPrunes) {
  // Example 4's function needs >= 5 NCT-ish gates; cap at 2 -> failure.
  SynthesisOptions o = quick();
  o.max_gates = 2;
  o.iterative_refinement = false;
  const SynthesisResult r = synthesize(TruthTable({0, 1, 2, 4, 3, 5, 6, 7}), o);
  EXPECT_FALSE(r.success);
}

TEST(Search, NodeBudgetIsHonored) {
  SynthesisOptions o;
  o.max_nodes = 50;
  o.iterative_refinement = false;
  const TruthTable spec({15, 1, 12, 3, 5, 6, 8, 7, 0, 10, 13, 9, 2, 4, 14, 11});
  const SynthesisResult r = synthesize(spec, o);
  EXPECT_LE(r.stats.nodes_expanded, 50u);
}

TEST(Search, StopAtFirstSolutionStopsEarly) {
  SynthesisOptions first = quick();
  first.stop_at_first_solution = true;
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, first);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, spec));
  EXPECT_EQ(r.stats.solutions_found, 1u);
}

TEST(Search, DeterministicAcrossRuns) {
  const TruthTable spec({7, 1, 4, 3, 0, 2, 6, 5});
  const SynthesisResult r1 = synthesize(spec, quick());
  const SynthesisResult r2 = synthesize(spec, quick());
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_EQ(r1.circuit, r2.circuit);
  EXPECT_EQ(r1.stats.nodes_expanded, r2.stats.nodes_expanded);
}

// Repeat runs on a 4-variable function give the same circuit and the
// same effort counters: every synthesis runs on one thread.
TEST(Search, RepeatRunsAreDeterministicOnFourVariables) {
  const TruthTable spec({0, 7, 6, 9, 4, 11, 10, 13, 8, 15, 14, 1, 12, 3, 2, 5});
  const SynthesisResult a = synthesize(spec, quick());
  const SynthesisResult b = synthesize(spec, quick());
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.stats.nodes_expanded, b.stats.nodes_expanded);
  EXPECT_EQ(a.stats.children_created, b.stats.children_created);
  EXPECT_EQ(a.stats.pruned_duplicate, b.stats.pruned_duplicate);
  EXPECT_EQ(a.stats.nodes_at_best, b.stats.nodes_at_best);
}

// The state slab holds only live states: a slot is live while its entry
// is queued, saved as a root child or being expanded. A full queue drops
// children, stale pops and restarts discard entries; each must return its
// slot, or the slab would grow with every expansion instead of staying
// within the queue cap plus the saved root children.
template <class Engine, class Rep>
void expect_slab_bounded(const Rep& start) {
  SynthesisOptions o;
  o.max_queue = 16;
  o.max_nodes = 4000;
  o.restart_interval = 50;
  std::vector<Candidate> root_children;
  enumerate_candidates_into(start, o, nullptr, root_children);
  Engine search(start, o);
  const SynthesisResult r = search.run();
  EXPECT_GT(r.stats.dropped_queue_full, 0u);
  EXPECT_GT(r.stats.restarts, 0u);
  // + 2: the entry being expanded and the child being materialized.
  EXPECT_LE(search.slab_size(), o.max_queue + root_children.size() + 2);
}

TEST(Search, StateSlabHoldsOnlyLiveStates) {
  std::mt19937_64 rng(7);  // needs restarts before its first solution
  const Pprm spec = pprm_of_truth_table(random_reversible_function(4, rng));
  expect_slab_bounded<Search>(spec);
  expect_slab_bounded<DenseSearch>(DensePprm(spec));
}

// The early outs: an identity spec is solved before any expansion, and a
// one-gate spec by the root's own expansion.
TEST(Search, IdentityAndSingleGateEarlyOuts) {
  const SynthesisResult id = synthesize(TruthTable::identity(3), quick());
  ASSERT_TRUE(id.success);
  EXPECT_EQ(id.circuit.gate_count(), 0);
  EXPECT_EQ(id.termination, TerminationReason::kSolved);
  EXPECT_EQ(id.stats.nodes_expanded, 0u);

  const TruthTable not_gate({1, 0});
  const SynthesisResult r = synthesize(not_gate, quick());
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 1);
  EXPECT_TRUE(implements(r.circuit, not_gate));
}

// accumulate_stats is a monoid whose identity is a default-constructed
// SynthesisStats. Every field of the merge is compared, so a merge that
// miscounts against an empty accumulator fails here.
void expect_same_stats(const SynthesisStats& a, const SynthesisStats& b) {
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.children_created, b.children_created);
  EXPECT_EQ(a.children_pushed, b.children_pushed);
  EXPECT_EQ(a.pruned_elim, b.pruned_elim);
  EXPECT_EQ(a.pruned_depth, b.pruned_depth);
  EXPECT_EQ(a.pruned_max_gates, b.pruned_max_gates);
  EXPECT_EQ(a.pruned_duplicate, b.pruned_duplicate);
  EXPECT_EQ(a.pruned_greedy, b.pruned_greedy);
  EXPECT_EQ(a.pruned_stale, b.pruned_stale);
  EXPECT_EQ(a.dropped_queue_full, b.dropped_queue_full);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.solutions_found, b.solutions_found);
  EXPECT_EQ(a.tt_inserts, b.tt_inserts);
  EXPECT_EQ(a.tt_evictions, b.tt_evictions);
  EXPECT_EQ(a.tt_generation, b.tt_generation);
  EXPECT_EQ(a.id_iterations, b.id_iterations);
  EXPECT_EQ(a.history_hits, b.history_hits);
  EXPECT_EQ(a.nodes_at_best, b.nodes_at_best);
  EXPECT_EQ(a.dense_kernel, b.dense_kernel);
  EXPECT_EQ(a.representation_switches, b.representation_switches);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.watchdog_fired, b.watchdog_fired);
  EXPECT_EQ(a.elapsed, b.elapsed);
}

/// A pass's stats with every field drawn from `rng`; kernels and flags
/// are arbitrary, id_iterations keeps its documented floor of 1.
SynthesisStats random_stats(std::mt19937_64& rng) {
  const auto small = [&rng] { return rng() % 1000; };
  SynthesisStats s;
  s.nodes_expanded = small();
  s.children_created = small();
  s.children_pushed = small();
  s.pruned_elim = small();
  s.pruned_depth = small();
  s.pruned_max_gates = small();
  s.pruned_duplicate = small();
  s.pruned_greedy = small();
  s.pruned_stale = small();
  s.dropped_queue_full = small();
  s.restarts = small();
  s.solutions_found = small();
  s.tt_inserts = small();
  s.tt_evictions = small();
  s.tt_generation = small();
  s.id_iterations = 1 + rng() % 5;
  s.history_hits = small();
  s.nodes_at_best = rng() % 2 == 0 ? 0 : 1 + rng() % (s.nodes_expanded + 1);
  s.dense_kernel = rng() % 2 == 0;
  s.representation_switches = rng() % 3;
  s.cancelled = rng() % 4 == 0;
  s.watchdog_fired = rng() % 4 == 0;
  s.elapsed = std::chrono::microseconds(small());
  return s;
}

SynthesisStats merged(SynthesisStats into, const SynthesisStats& from) {
  accumulate_stats(into, from);
  return into;
}

TEST(StatsMerge, EmptyAccumulatorIsTheIdentity) {
  std::mt19937_64 rng(21);
  for (int i = 0; i < 200; ++i) {
    const SynthesisStats x = random_stats(rng);
    expect_same_stats(merged(SynthesisStats{}, x), x);
    expect_same_stats(merged(x, SynthesisStats{}), x);
  }
}

TEST(StatsMerge, IsAssociative) {
  std::mt19937_64 rng(22);
  for (int i = 0; i < 200; ++i) {
    const SynthesisStats a = random_stats(rng);
    const SynthesisStats b = random_stats(rng);
    const SynthesisStats c = random_stats(rng);
    expect_same_stats(merged(merged(a, b), c), merged(a, merged(b, c)));
  }
}

TEST(StatsMerge, SameKernelPassesNeverCountASwitch) {
  for (const bool dense : {false, true}) {
    SynthesisStats total;
    for (int i = 0; i < 8; ++i) {
      SynthesisStats pass;
      pass.nodes_expanded = 10;
      pass.dense_kernel = dense;
      accumulate_stats(total, pass);
    }
    EXPECT_EQ(total.representation_switches, 0u);
    EXPECT_EQ(total.dense_kernel, dense);
    EXPECT_EQ(total.nodes_expanded, 80u);
  }
}

TEST(Search, GreedyKeepsKPerVariable) {
  SynthesisOptions o = quick();
  o.greedy_k = 1;
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(implements(r.circuit, spec));
}

TEST(Search, BasicOnlyModeStillSolvesFig1) {
  SynthesisOptions o = quick();
  o.allow_relaxed_targets = false;
  o.allow_complement = false;
  o.iterative_refinement = false;
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, o);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.circuit.gate_count(), 3);
}

TEST(Search, GateCountNeverBelowInformationBound) {
  // A function that moves k outputs needs at least ... >= 1 gate; check a
  // couple of sanity bounds rather than trivia.
  const TruthTable spec({1, 0, 7, 2, 3, 4, 5, 6});
  const SynthesisResult r = synthesize(spec, quick());
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.circuit.gate_count(), 1);
}

TEST(Search, StatsAreConsistent) {
  const TruthTable spec({7, 1, 4, 3, 0, 2, 6, 5});
  const SynthesisResult r = synthesize(spec, quick());
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.stats.nodes_expanded, 0u);
  EXPECT_GT(r.stats.children_created, 0u);
  EXPECT_GE(r.stats.children_created, r.stats.children_pushed);
  EXPECT_GE(r.stats.solutions_found, 1u);
  EXPECT_GT(r.initial_terms, 0);
}

TEST(Search, PprmInputEqualsTruthTableInput) {
  const TruthTable spec({5, 3, 1, 7, 4, 0, 2, 6});
  const SynthesisResult r1 = synthesize(spec, quick());
  const SynthesisResult r2 = synthesize(pprm_of_truth_table(spec), quick());
  ASSERT_TRUE(r1.success);
  EXPECT_EQ(r1.circuit, r2.circuit);
}

TEST(Implements, DetectsWrongCircuit) {
  Circuit wrong(3);
  wrong.append(Gate(kConstOne, 1));
  EXPECT_FALSE(implements(wrong, TruthTable({1, 0, 7, 2, 3, 4, 5, 6})));
  EXPECT_FALSE(implements(Circuit(4), TruthTable::identity(3)));  // width
}

TEST(Implements, SampledCheckOnWidePprm) {
  // An empty circuit implements the identity PPRM at any width.
  const Pprm wide = Pprm::identity(40);
  EXPECT_TRUE(implements(Circuit(40), wide));
  Circuit not_id(40);
  not_id.append(Gate(kConstOne, 39));
  EXPECT_FALSE(implements(not_id, wide));
}

}  // namespace
}  // namespace rmrls
