/// \file common.hpp
/// \brief Shared pieces of the RMRLS benchmark binary: run configuration,
/// the result report, percentiles, and the in-memory span log of the
/// traced run (see ../README.md for the workloads and metrics).

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench_suite/corpus.hpp"
#include "rev/circuit.hpp"
#include "rev/truth_table.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for the serve socket
  /// and optional span dumps; created by run.py inside the checkout.
  std::string workdir = ".";
  /// When non-empty, the traced run writes every span here as JSONL.
  std::string spans_path;
  /// Thread and connection budget of the load generator: 4, or fewer when
  /// the host has fewer CPUs.
  int threads = 4;
};

/// What a run prints as its last line: correctness, counts, and metrics.
/// The metric set is fixed (end-to-end for untraced runs, per-layer for
/// traced runs) and pre-filled with 0, so every workload emits every
/// declared metric; a workload overwrites the ones it measures.
class Report {
 public:
  explicit Report(bool trace);

  /// Sets a declared metric; an undeclared name is a programming error and
  /// aborts the run.
  void set(const std::string& name, double value);

  /// Records a correctness failure (wrong circuit, nondeterministic gate
  /// count, generator behind schedule). The run then reports
  /// `"correct": false` and exits non-zero.
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
};

/// Percentile by linear interpolation between closest ranks (q in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Percentile of readings the program rounded to whole units (integer
/// microseconds): each reading v stands for the interval [v - 0.5, v + 0.5)
/// and the quantile is interpolated inside the interval it falls in, so
/// ties at one integer do not pin the result to that integer.
[[nodiscard]] double rounded_percentile(std::vector<std::int64_t> values,
                                        double q);

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One timed call into a layer's public function, as the traced run
/// records it. `parent` indexes the same SpanLog (-1 for a root span);
/// spans of one request share `request`.
struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans of one thread, kept in memory until the run ends. A disabled log
/// records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (-1 when disabled).
  int open(const char* layer, const char* name, std::uint64_t request,
           int parent);
  void close(int index);

  /// Records a span whose bounds were taken elsewhere (the serve client
  /// stamps frames as they arrive).
  int add(const char* layer, const char* name, std::uint64_t request,
          int parent, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* layer, const char* name,
             std::uint64_t request, int parent = -1)
      : log_(log), index_(log.open(layer, name, request, parent)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// Durations per call site and self time per layer, over all logs. A
/// span's self time is its duration minus the time its child spans cover.
struct SpanSummary {
  std::map<std::string, std::vector<double>> call_us;  ///< "layer:name"
  std::map<std::string, double> self_us;               ///< by layer
  [[nodiscard]] double p(const std::string& call, double q) const;
};

[[nodiscard]] SpanSummary summarize(const std::vector<const SpanLog*>& logs);

/// Sets the io call times and `<layer>.self_us_per_op` for every program
/// layer (self time over `ops` operations) from `summary`.
void report_spans(Report& report, const SpanSummary& summary,
                  std::uint64_t ops);

/// Writes every span as one JSON object per line (name, layer, start, end,
/// parent, request, thread); false if the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

/// The io layer as the CLI and the daemon use it: parses the spec's text,
/// renders `circuit` as .tfc and reads it back, under io spans when `log`
/// is enabled. False when a round trip disagrees with `spec`.
[[nodiscard]] bool io_round_trip(SpanLog& log, std::uint64_t request,
                                 int parent, const rmrls::TruthTable& spec,
                                 const rmrls::Circuit& circuit);

/// The first `count` bases `generate_corpus` draws for `family` at widths
/// min_vars..max_vars with the generator's default seed. A fixed
/// population: per-spec costs differ by orders of magnitude (canonicalizing
/// a symmetric 8-wire cascade takes ~10^4 times as long as a 3-wire one),
/// so a population drawn from the run's seed would make the run's seed,
/// not the program, decide the figures. Runs vary the population's orbit
/// members and order instead. Empty on a generator error.
[[nodiscard]] std::vector<rmrls::suite::CorpusEntry> corpus_bases(
    rmrls::suite::CorpusFamily family, int count, int min_vars, int max_vars);

/// A random member of `f`'s orbit, as the corpus generator plants repeats:
/// wires relabeled at random, and inverted half the time.
[[nodiscard]] rmrls::TruthTable orbit_member(const rmrls::TruthTable& f,
                                             std::mt19937_64& rng);

Report run_paper_cold(const RunConfig& config);
Report run_deep_search(const RunConfig& config);
Report run_orbit_batch(const RunConfig& config);
Report run_serve_mix(const RunConfig& config);

}  // namespace perfbench
