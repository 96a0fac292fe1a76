// Golden values of the search engine: exact circuits and search counters
// for fixed inputs, on both representations (dense bitsets and sparse cube
// vectors via dense_threshold = 0). Candidate order, seq numbering and
// priorities decide which tree a search expands, so any change to them,
// however it is introduced, moves a value here. A golden moves only with a
// change that claims a quality difference and says so in CHANGES.md.
//
// Inputs: the paper's Fig. 1 function and 50 seeded random 3-variable
// functions at the library defaults (Table I), hwb4 and three seeded random
// 4-variable functions at the Table II setting (30k nodes, 40 gates), a
// short restart interval that makes restart() re-seed from the saved root
// children, and ham7 at 1M nodes.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <random>
#include <string>

#include "bench_suite/functions.hpp"
#include "core/synthesizer.hpp"
#include "rev/quantum_cost.hpp"
#include "rev/random.hpp"

namespace rmrls {
namespace {

/// What one synthesize() call must reproduce exactly.
struct Golden {
  int gates = 0;
  long long quantum_cost = 0;
  /// FNV-1a over every gate's (target, controls) in order: pins the exact
  /// circuit, not just its size.
  std::uint64_t circuit_fp = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t nodes_at_best = 0;
  std::uint64_t children_pushed = 0;
  std::uint64_t pruned_duplicate = 0;
  std::uint64_t tt_inserts = 0;
  std::uint64_t tt_evictions = 0;
  std::uint64_t restarts = 0;

  friend bool operator==(const Golden&, const Golden&) = default;
};

/// Prints a Golden as the initializer it would take in the tables below,
/// so a failure message shows the actual values in source form.
std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{" << g.gates << ", " << g.quantum_cost << ", 0x" << std::hex
            << g.circuit_fp << std::dec << "ull, " << g.nodes_expanded << ", "
            << g.nodes_at_best << ", " << g.children_pushed << ", "
            << g.pruned_duplicate << ", " << g.tt_inserts << ", "
            << g.tt_evictions << ", " << g.restarts << "}";
}

std::uint64_t circuit_fingerprint(const Circuit& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Gate& g : c.gates()) {
    mix(g.target);
    mix(g.controls);
  }
  return h;
}

enum class Engine { kDense, kSparse };

const char* engine_name(Engine e) {
  return e == Engine::kDense ? "dense" : "sparse";
}

/// Runs `spec` on `engine` and checks the circuit before reducing the
/// outcome to its golden values.
Golden run(const TruthTable& spec, SynthesisOptions options, Engine engine) {
  if (engine == Engine::kSparse) options.dense_threshold = 0;
  const SynthesisResult r = synthesize(spec, options);
  EXPECT_TRUE(r.success) << engine_name(engine);
  EXPECT_TRUE(implements(r.circuit, spec)) << engine_name(engine);
  EXPECT_EQ(r.stats.dense_kernel, engine == Engine::kDense);
  Golden g;
  g.gates = r.circuit.gate_count();
  g.quantum_cost = quantum_cost(r.circuit);
  g.circuit_fp = circuit_fingerprint(r.circuit);
  g.nodes_expanded = r.stats.nodes_expanded;
  g.nodes_at_best = r.stats.nodes_at_best;
  g.children_pushed = r.stats.children_pushed;
  g.pruned_duplicate = r.stats.pruned_duplicate;
  g.tt_inserts = r.stats.tt_inserts;
  g.tt_evictions = r.stats.tt_evictions;
  g.restarts = r.stats.restarts;
  return g;
}

void expect_golden(const TruthTable& spec, const SynthesisOptions& options,
                   const Golden& expected, const std::string& label) {
  for (const Engine engine : {Engine::kDense, Engine::kSparse}) {
    EXPECT_EQ(run(spec, options, engine), expected)
        << label << " on the " << engine_name(engine) << " engine";
  }
}

SynthesisOptions table2_options() {
  SynthesisOptions o;
  o.max_nodes = 30000;
  o.max_gates = 40;
  return o;
}

TEST(SearchGolden, Fig1) {
  expect_golden(suite::fig1(), SynthesisOptions{},
                {3, 11, 0x6859bc3547012960ull, 19, 3, 17, 0, 10, 0, 0},
                "fig1");
}

// 50 draws from one seeded generator, in draw order.
const Golden kRandom3[] = {
    {8, 20, 0x88f5695cecc384c2ull, 37515, 25713, 37519, 51718, 17256, 0, 1},
    {7, 19, 0x14f229e2bff268a4ull, 4730, 131, 4728, 2756, 2153, 0, 0},
    {7, 15, 0x72a30b5282306161ull, 17706, 13056, 17700, 17740, 7416, 0, 0},
    {5, 13, 0x14143823de648126ull, 307, 10, 305, 70, 153, 0, 0},
    {5, 13, 0xf341ead3da85dec5ull, 386, 23, 384, 173, 196, 0, 0},
    {8, 16, 0xffa2fa5c45a3e4e4ull, 17135, 2708, 17128, 20955, 5792, 0, 0},
    {7, 19, 0x39976d33fb295065ull, 558, 57, 556, 179, 259, 0, 0},
    {6, 22, 0xa54d78cf7c824e5ull, 359, 23, 357, 113, 172, 0, 0},
    {6, 14, 0x5c4f26b50e8ecbc7ull, 547, 37, 545, 347, 251, 0, 0},
    {7, 15, 0xfbb55448df3b7342ull, 6796, 430, 6790, 5714, 2673, 0, 0},
    {8, 20, 0xe8abe2baf5240f05ull, 278, 99, 276, 101, 132, 0, 0},
    {5, 17, 0xd49f69c2bb1ea4e7ull, 329, 13, 327, 122, 163, 0, 0},
    {8, 16, 0x7818943735b7fac0ull, 5917, 222, 5915, 2725, 2553, 0, 0},
    {4, 12, 0x37e2605c1d840403ull, 87, 4, 85, 20, 44, 0, 0},
    {5, 9, 0xe5ef17d9de4be262ull, 159, 6, 157, 62, 76, 0, 0},
    {6, 14, 0xcb708b6c7e6242a2ull, 854, 128, 852, 466, 403, 0, 0},
    {6, 18, 0x3e86da60bc2bbc81ull, 835, 8, 833, 410, 388, 0, 0},
    {9, 21, 0x99f8cf0bb8becae3ull, 2666, 377, 2664, 1447, 1108, 0, 0},
    {6, 18, 0xa7f96f07dd7e7a67ull, 491, 81, 489, 154, 253, 0, 0},
    {6, 18, 0x9902d0c225894ca1ull, 1786, 205, 1784, 640, 939, 0, 0},
    {5, 17, 0xa8ef4d28c05d1607ull, 270, 124, 268, 75, 177, 0, 0},
    {6, 10, 0x3eec31348e7c0545ull, 243, 22, 241, 110, 120, 0, 0},
    {6, 6, 0xafb97085adf8ac26ull, 1426, 686, 1419, 1601, 399, 0, 0},
    {7, 19, 0x72ca6ba84c502881ull, 21138, 17354, 21132, 21636, 6498, 0, 0},
    {5, 9, 0x658a0a5dd5c01b63ull, 5930, 5702, 5923, 6359, 2356, 0, 0},
    {7, 19, 0x7e85daa5db702782ull, 17670, 11275, 17664, 17256, 7697, 0, 0},
    {5, 13, 0x807e76873fcc3d04ull, 406, 109, 404, 176, 225, 0, 0},
    {7, 19, 0x3168d2871d3e3286ull, 1056, 14, 1054, 526, 472, 0, 0},
    {6, 18, 0x606d0230ab683ec4ull, 958, 174, 956, 284, 521, 0, 0},
    {7, 23, 0xeb36d8c8432e8563ull, 2561, 733, 2559, 1213, 1283, 0, 0},
    {7, 11, 0x3a780832b10bf8a1ull, 679, 201, 677, 579, 302, 0, 0},
    {9, 21, 0xa7d79173476fc643ull, 917, 461, 915, 436, 460, 0, 0},
    {6, 14, 0xc76952e777f67427ull, 376, 37, 374, 159, 186, 0, 0},
    {8, 20, 0x7dd57fb136753524ull, 1568, 648, 1566, 469, 665, 0, 0},
    {7, 15, 0xc480c799c651dd67ull, 1201, 423, 1199, 1021, 531, 0, 0},
    {8, 24, 0xe0f23c68baae43e6ull, 814, 42, 812, 212, 369, 0, 0},
    {4, 12, 0x8bbb4bd4d0e2662ull, 44, 4, 42, 4, 23, 0, 0},
    {6, 14, 0xa1d45bb9ac0fcca3ull, 301, 29, 299, 121, 143, 0, 0},
    {4, 8, 0x4451ac87e5963504ull, 46, 4, 44, 6, 24, 0, 0},
    {7, 23, 0x12b0c973ef911840ull, 404, 55, 402, 99, 185, 0, 0},
    {6, 6, 0x9b13b08505faae05ull, 1037, 445, 1031, 1198, 325, 0, 0},
    {6, 18, 0x9630007a125d0fc3ull, 394, 47, 392, 134, 197, 0, 0},
    {6, 18, 0x76494658c6aa280ull, 301, 90, 299, 103, 163, 0, 0},
    {7, 11, 0xcaec5557da7917c6ull, 8291, 1376, 8285, 8591, 2990, 0, 0},
    {8, 20, 0x4300d935bd285ec6ull, 2153, 265, 2151, 1067, 977, 0, 0},
    {7, 19, 0x6c185141395ecca0ull, 295, 28, 293, 92, 145, 0, 0},
    {5, 9, 0x614f8cc920c22940ull, 6791, 6545, 6784, 7249, 2911, 0, 0},
    {7, 23, 0x3204b3a6c1e78b43ull, 404, 55, 402, 99, 185, 0, 0},
    {7, 15, 0xc05e3ba0549a4d20ull, 1612, 873, 1610, 1422, 781, 0, 0},
    {6, 14, 0x37290490693e3b01ull, 230, 18, 228, 64, 114, 0, 0},
};

TEST(SearchGolden, Random3VariableAtDefaults) {
  static_assert(std::size(kRandom3) == 50);
  std::mt19937_64 rng(2004);
  for (std::size_t i = 0; i < std::size(kRandom3); ++i) {
    expect_golden(random_reversible_function(3, rng), SynthesisOptions{},
                  kRandom3[i], "random3 #" + std::to_string(i));
  }
}

TEST(SearchGolden, Hwb4AtTable2Setting) {
  expect_golden(suite::hwb(4), table2_options(),
                {17, 41, 0x39091a237ee562e1ull, 30000, 25830, 30451, 15102,
                 16618, 0, 1},
                "hwb4");
}

const Golden kRandom4[] = {
    {21, 73, 0xbea4d67ad826720full, 30000, 25632, 30253, 9806, 18008, 0, 1},
    {20, 72, 0x24cb6ca0857b5365ull, 30000, 11365, 30447, 14849, 22885, 0, 1},
    {29, 73, 0x5fc4ff2f78419063ull, 30000, 25006, 30488, 19346, 21445, 0, 1},
};

TEST(SearchGolden, Random4VariableAtTable2Setting) {
  std::mt19937_64 rng(2004);
  for (std::size_t i = 0; i < std::size(kRandom4); ++i) {
    expect_golden(random_reversible_function(4, rng), table2_options(),
                  kRandom4[i], "random4 #" + std::to_string(i));
  }
}

TEST(SearchGolden, RestartReseedsFromSavedRootChildren) {
  // A short restart interval makes the first pass abandon its tree several
  // times before any solution exists; each restart re-seeds the queue from
  // the saved root children.
  std::mt19937_64 rng(7);
  SynthesisOptions options = table2_options();
  options.restart_interval = 200;
  expect_golden(random_reversible_function(4, rng), options,
                {16, 48, 0xe043aee63e9ed82full, 15804, 4594, 16180, 13714,
                 12508, 0, 7},
                "restart");
}

TEST(SearchGolden, Ham7At1MNodes) {
  SynthesisOptions options;
  options.max_nodes = 1000000;
  // 44 gates, nodes_at_best 753,599, tt_inserts 1,355,635 and
  // tt_evictions 14,344: the values every engine change has been held to.
  expect_golden(suite::ham7(), options,
                {44, 112, 0xcdd538240e424c30ull, 1000000, 753599, 1624217,
                 1576881, 1355635, 14344, 27},
                "ham7");
}

}  // namespace
}  // namespace rmrls
