/// \file single_shot.cpp
/// \brief The single-shot CLI path: `paper-cold` and `deep-search`, both
/// sequential synthesize() calls with no cache.

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <vector>

#include "bench_suite/functions.hpp"
#include "bench_suite/registry.hpp"
#include "common.hpp"
#include "core/synthesizer.hpp"
#include "obs/phase_profile.hpp"
#include "rev/quantum_cost.hpp"
#include "rev/random.hpp"

namespace perfbench {
namespace {

using rmrls::SynthesisOptions;
using rmrls::SynthesisResult;
using rmrls::TruthTable;

struct Input {
  std::string label;
  TruthTable spec;
  SynthesisOptions options;
};

// paper-cold: one pass is a seeded draw of the paper's Table I and II
// populations (random 3-variable functions at the library defaults,
// random 4-variable functions at Table II's 30k-node, 40-gate setting)
// plus the Fig. 1 function, in seeded order.
constexpr int kPaperRandom3 = 1000;
constexpr int kPaperRandom4 = 20;
constexpr std::uint64_t kTable2Nodes = 30000;
constexpr int kTable2MaxGates = 40;

// deep-search: a node budget large enough that per-node cost, table
// capacity and the search heuristics dominate each call.
constexpr std::uint64_t kDeepNodes = 1000000;

constexpr int kSetupRepeats = 15;

std::vector<Input> paper_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Input> inputs;
  for (int i = 0; i < kPaperRandom3; ++i) {
    inputs.push_back({"random3", rmrls::random_reversible_function(3, rng),
                      SynthesisOptions{}});
  }
  SynthesisOptions table2;
  table2.max_nodes = kTable2Nodes;
  table2.max_gates = kTable2MaxGates;
  for (int i = 0; i < kPaperRandom4; ++i) {
    inputs.push_back(
        {"random4", rmrls::random_reversible_function(4, rng), table2});
  }
  inputs.push_back({"fig1", rmrls::suite::fig1(), SynthesisOptions{}});
  std::shuffle(inputs.begin(), inputs.end(), rng);
  return inputs;
}

std::vector<Input> deep_inputs(std::uint64_t seed) {
  SynthesisOptions deep;
  deep.max_nodes = kDeepNodes;
  std::mt19937_64 rng(seed);
  std::vector<Input> inputs;
  for (const char* name : {"ham7", "hwb4"}) {
    inputs.push_back({name, *rmrls::suite::get_benchmark(name).table, deep});
  }
  inputs.push_back(
      {"random5", rmrls::random_reversible_function(5, rng), deep});
  return inputs;
}

/// Per-input outcome of the first call, against which repeats are checked.
struct FirstOutcome {
  bool seen = false;
  bool ok = false;
  int gates = 0;
  long long quantum_cost = 0;
};

class Runner {
 public:
  Runner(Report& report, std::vector<Input> inputs)
      : report_(report), inputs_(std::move(inputs)), first_(inputs_.size()) {}

  /// One synthesize() call on input `index` (optionally traced), checked.
  /// Returns the call's wall time in seconds.
  double call(std::size_t index, SpanLog& log, std::uint64_t request) {
    const Input& in = inputs_[index];
    SynthesisOptions options = in.options;
    rmrls::PhaseProfile profile;
    if (log.enabled()) options.phase_profile = &profile;

    const int root = log.open("bench", "request", request, -1);
    const auto t0 = Clock::now();
    const int span = log.open("core.search", "synthesize", request, root);
    const SynthesisResult r = rmrls::synthesize(in.spec, options);
    log.close(span);
    const double secs = seconds_between(t0, Clock::now());

    ++report_.attempted;
    check(index, r);
    if (log.enabled()) {
      record_trace(secs, profile, r);
      if (r.success &&
          !io_round_trip(log, request, root, in.spec, r.circuit)) {
        report_.fail(in.label + ": io round trip disagrees with the spec");
      }
    }
    log.close(root);
    return secs;
  }

  [[nodiscard]] std::size_t size() const { return inputs_.size(); }

  /// Gate and quantum-cost totals over one pass of the input set.
  void report_totals() const {
    double gates = 0;
    double cost = 0;
    for (const FirstOutcome& f : first_) {
      if (!f.ok) continue;
      gates += f.gates;
      cost += static_cast<double>(f.quantum_cost);
    }
    report_.set("gates_total", gates);
    report_.set("quantum_cost_total", cost);
  }

  void report_search_layer() const {
    const double call_s = traced_call_s_;
    if (call_s <= 0) return;
    const double call_ns = call_s * 1e9;
    using rmrls::Phase;
    const auto share = [&](Phase p) {
      return static_cast<double>(
                 phases_[static_cast<std::size_t>(p)]) / call_ns;
    };
    std::uint64_t phased = 0;
    for (const std::uint64_t n : phases_) phased += n;
    report_.set("core.search.unphased_share",
                std::max(0.0, 1.0 - static_cast<double>(phased) / call_ns));
    report_.set("core.search.factor_enum_share", share(Phase::kFactorEnum));
    report_.set("core.search.substitute_share", share(Phase::kSubstitute));
    report_.set("core.search.heap_ops_share", share(Phase::kHeapOps));
    report_.set("core.search.pprm_transform_share",
                share(Phase::kPprmTransform));
    report_.set("core.search.template_simplify_share",
                share(Phase::kTemplateSimplify));
    report_.set("core.search.nodes_expanded",
                static_cast<double>(nodes_expanded_));
    report_.set("core.search.nodes_per_s",
                static_cast<double>(nodes_expanded_) / call_s);
    if (children_created_ > 0) {
      report_.set("core.search.dup_ratio",
                  static_cast<double>(pruned_duplicate_) /
                      static_cast<double>(children_created_));
    }
    if (nodes_expanded_ > 0) {
      report_.set("core.search.after_best_ratio",
                  1.0 - static_cast<double>(nodes_at_best_) /
                            static_cast<double>(nodes_expanded_));
    }
  }

 private:
  void check(std::size_t index, const SynthesisResult& r) {
    const Input& in = inputs_[index];
    if (r.success && !rmrls::implements(r.circuit, in.spec)) {
      report_.fail(in.label + ": circuit does not implement its spec");
      return;
    }
    if (!r.success) ++report_.failed;
    FirstOutcome& f = first_[index];
    const int gates = r.success ? r.circuit.gate_count() : -1;
    if (!f.seen) {
      f = {true, r.success, gates,
           r.success ? rmrls::quantum_cost(r.circuit) : 0};
    } else if (f.gates != gates) {
      report_.fail(in.label + ": gate count changed between calls (" +
                   std::to_string(f.gates) + " then " +
                   std::to_string(gates) + ")");
    }
  }

  void record_trace(double secs, const rmrls::PhaseProfile& profile,
                    const SynthesisResult& r) {
    traced_call_s_ += secs;
    for (std::size_t i = 0; i < rmrls::kPhaseCount; ++i) {
      phases_[i] += profile.entries[i].nanos;
    }
    nodes_expanded_ += r.stats.nodes_expanded;
    children_created_ += r.stats.children_created;
    pruned_duplicate_ += r.stats.pruned_duplicate;
    nodes_at_best_ += r.stats.nodes_at_best;
  }

  Report& report_;
  std::vector<Input> inputs_;
  std::vector<FirstOutcome> first_;

  double traced_call_s_ = 0;
  std::array<std::uint64_t, rmrls::kPhaseCount> phases_{};
  std::uint64_t nodes_expanded_ = 0;
  std::uint64_t children_created_ = 0;
  std::uint64_t pruned_duplicate_ = 0;
  std::uint64_t nodes_at_best_ = 0;
};

using MakeInputs = std::vector<Input> (*)(std::uint64_t seed);

/// Set-up of a single-shot run: generate the inputs from the seed, then one
/// Fig. 1 call (what the first call of a process pays once). Repeated
/// kSetupRepeats times; returns the inputs and reports the median time.
std::vector<Input> set_up(Report& report, MakeInputs make, std::uint64_t seed,
                          bool trace) {
  std::vector<double> times;
  std::vector<Input> inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    inputs = make(seed);
    const SynthesisResult warm = rmrls::synthesize(rmrls::suite::fig1());
    times.push_back(seconds_between(t0, Clock::now()));
    if (!warm.success) report.fail("fig1 warm-up synthesis failed");
  }
  if (!trace) report.set("setup_s", median(times));
  return inputs;
}

/// True once call `k` may end a timed loop of `limit_s` seconds: the first
/// pass over the inputs always completes, and with `whole_passes` (where
/// one input dominates a pass, as in deep-search) so does every later one,
/// since a partial pass would change the workload's mix.
bool loop_done(std::size_t k, std::size_t n, bool whole_passes,
               double elapsed_s, double limit_s) {
  return k >= n && elapsed_s >= limit_s && (!whole_passes || k % n == 0);
}

Report run_single_shot(const RunConfig& config, MakeInputs make,
                       bool whole_passes) {
  Report report(config.trace);
  Runner runner(report, set_up(report, make, config.seed, config.trace));
  const std::size_t n = runner.size();
  SpanLog off(false);

  if (!config.trace) {
    // The first pass always completes (gates_total covers all inputs);
    // after it, calls continue round-robin until the time is up.
    std::vector<double> latencies_ms;
    double busy_s = 0;
    const auto start = Clock::now();
    for (std::size_t k = 0;
         !loop_done(k, n, whole_passes, seconds_between(start, Clock::now()),
                    config.seconds);
         ++k) {
      const double secs = runner.call(k % n, off, k);
      busy_s += secs;
      latencies_ms.push_back(secs * 1e3);
    }
    const double ok =
        static_cast<double>(report.attempted - report.failed);
    report.set("ops_per_s", ok / busy_s);
    report.set("latency_p50_ms", percentile(latencies_ms, 0.50));
    report.set("latency_p99_ms", percentile(latencies_ms, 0.99));
    runner.report_totals();
    report.set("ok_ratio", ok / static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak_rss_mb());
    return report;
  }

  // Traced run: the same calls twice, untraced then traced, for about half
  // the time each; the ratio of the two is the tracing overhead.
  const auto start = Clock::now();
  double plain_s = 0;
  std::size_t calls = 0;
  while (!loop_done(calls, whole_passes ? n : 1, whole_passes,
                    seconds_between(start, Clock::now()),
                    config.seconds / 2.0)) {
    plain_s += runner.call(calls % n, off, calls);
    ++calls;
  }
  SpanLog log(true);
  double traced_s = 0;
  for (std::size_t k = 0; k < calls; ++k) {
    traced_s += runner.call(k % n, log, k);
  }
  const SpanSummary summary = summarize({&log});
  report.set("core.search.call_ms_p50",
             summary.p("core.search:synthesize", 0.50) / 1e3);
  report.set("core.search.call_ms_p99",
             summary.p("core.search:synthesize", 0.99) / 1e3);
  runner.report_search_layer();
  report.set("trace.overhead_ratio", traced_s / plain_s);
  report_spans(report, summary, calls);
  if (!config.spans_path.empty() && !write_spans(config.spans_path, {&log})) {
    report.fail("cannot write spans to " + config.spans_path);
  }
  return report;
}

}  // namespace

Report run_paper_cold(const RunConfig& config) {
  return run_single_shot(config, paper_inputs, false);
}

Report run_deep_search(const RunConfig& config) {
  return run_single_shot(config, deep_inputs, true);
}

}  // namespace perfbench
