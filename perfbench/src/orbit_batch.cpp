/// \file orbit_batch.cpp
/// \brief `orbit-batch`: the `--batch` path with a warm orbit cache, where
/// every job is a cache hit (canonicalize, lookup, reconstruct, verify).

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/batch.hpp"
#include "core/synth_cache.hpp"
#include "core/synthesizer.hpp"
#include "rev/canonical.hpp"
#include "rev/equivalence.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/quantum_cost.hpp"

namespace perfbench {
namespace {

using rmrls::BatchJob;
using rmrls::SynthCache;

// The corpus: orbit members of two fixed base populations (see
// corpus_bases), 12 bases of the mixed families (hwb, prime, random NCT
// cascades, random permutations) at widths 3-5, where canonicalize scans
// every relabeling exactly, and 6 random NCT cascades at widths 6-8;
// widths 7 and 8 exceed the exact scan and take the signature-pruned one.
// Random and hwb functions of width 6 and up are left out: their cold
// searches would make the warm-up minutes long.
constexpr int kNarrowBases = 12;
constexpr int kNarrowRepeats = 320;  // orbit members per base
constexpr int kWideBases = 6;
constexpr int kWideRepeats = 40;

constexpr int kSetupRepeats = 3;

struct Corpus {
  std::vector<BatchJob> jobs;   ///< the orbit members, seeded order
  std::vector<BatchJob> bases;  ///< what the warm-up synthesizes
};

Corpus make_corpus(std::uint64_t seed, Report& report) {
  using rmrls::suite::CorpusFamily;
  Corpus corpus;
  std::mt19937_64 rng(seed);
  const auto add = [&](CorpusFamily family, int count, int min_vars,
                       int max_vars, int repeats) {
    for (rmrls::suite::CorpusEntry& e :
         corpus_bases(family, count, min_vars, max_vars)) {
      for (int r = 0; r < repeats; ++r) {
        corpus.jobs.push_back({e.label + ".c" + std::to_string(r),
                               orbit_member(e.spec, rng), ""});
      }
      corpus.bases.push_back({e.label, std::move(e.spec), ""});
    }
  };
  add(CorpusFamily::kMixed, kNarrowBases, 3, 5, kNarrowRepeats);
  add(CorpusFamily::kTof, kWideBases, 6, 8, kWideRepeats);
  if (corpus.bases.size() != kNarrowBases + kWideBases) {
    report.fail("generate_corpus failed");
  }
  std::shuffle(corpus.jobs.begin(), corpus.jobs.end(), rng);
  return corpus;
}

rmrls::BatchOptions batch_options(SynthCache* cache, int threads) {
  rmrls::BatchOptions options;
  options.cache = cache;
  options.total_threads = threads;
  options.batch_threads = threads;  // one search thread per job
  return options;
}

/// Checks every outcome against its own spec and, from the second batch
/// on, against the gate count of the first.
class OutcomeChecker {
 public:
  OutcomeChecker(Report& report, const std::vector<BatchJob>& jobs)
      : report_(report), jobs_(jobs), gates_(jobs.size(), -2) {}

  void check(const rmrls::BatchResult& result) {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const rmrls::BatchJobOutcome& out = result.outcomes[i];
      ++report_.attempted;
      const bool ok = out.status.ok() && out.result.success;
      if (ok && !rmrls::implements(out.result.circuit, jobs_[i].spec)) {
        report_.fail(jobs_[i].name + ": circuit does not implement its spec");
        continue;
      }
      if (!ok || !out.verified) ++report_.failed;
      const int gates = ok ? out.result.circuit.gate_count() : -1;
      if (gates_[i] == -2) {
        gates_[i] = gates;
        if (ok) {
          gates_total_ += gates;
          cost_total_ +=
              static_cast<double>(rmrls::quantum_cost(out.result.circuit));
        }
      } else if (gates_[i] != gates) {
        report_.fail(jobs_[i].name + ": gate count changed between batches");
      }
    }
  }

  void report_totals() const {
    report_.set("gates_total", gates_total_);
    report_.set("quantum_cost_total", cost_total_);
  }

 private:
  Report& report_;
  const std::vector<BatchJob>& jobs_;
  std::vector<int> gates_;  ///< -2 = not run yet, -1 = failed
  double gates_total_ = 0;
  double cost_total_ = 0;
};

/// Warms a fresh cache with the corpus bases through run_batch,
/// kSetupRepeats times; keeps the last cache and reports the median time.
std::unique_ptr<SynthCache> set_up(Report& report, const Corpus& corpus,
                                   int threads, bool trace,
                                   rmrls::BatchResult& warm) {
  std::vector<double> times;
  std::unique_ptr<SynthCache> cache;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    cache = std::make_unique<SynthCache>(rmrls::SynthCacheOptions{});
    warm = rmrls::run_batch(corpus.bases,
                            batch_options(cache.get(), threads));
    times.push_back(seconds_between(t0, Clock::now()));
  }
  for (std::size_t i = 0; i < corpus.bases.size(); ++i) {
    const rmrls::BatchJobOutcome& out = warm.outcomes[i];
    if (!out.status.ok() ||
        !rmrls::implements(out.result.circuit, corpus.bases[i].spec)) {
      report.fail(corpus.bases[i].name + ": warm-up job failed");
    }
  }
  if (!trace) report.set("setup_s", median(times));
  return cache;
}

/// One job's hit path replayed as separate calls into the layers, as the
/// traced run records them. False when any step disagrees.
bool replay_job(const BatchJob& job, SynthCache& cache, SpanLog& log,
                std::uint64_t request) {
  ScopedSpan root(log, "bench", "request", request);
  rmrls::CanonicalForm form;
  {
    ScopedSpan span(log, "rev.canonical", "canonicalize", request,
                    root.index());
    form = rmrls::canonicalize(job.spec);
  }
  std::optional<rmrls::Circuit> hit;
  {
    ScopedSpan span(log, "core.cache", "lookup", request, root.index());
    hit = cache.lookup(form.key);
  }
  if (!hit) return false;
  rmrls::Circuit rebuilt(job.spec.num_vars());
  {
    ScopedSpan span(log, "rev.canonical", "reconstruct", request,
                    root.index());
    rebuilt = rmrls::reconstruct_circuit(*hit, form.transform);
  }
  bool equal = false;
  {
    ScopedSpan span(log, "rev.equivalence", "verify", request, root.index());
    equal = rmrls::equivalent(rebuilt, rmrls::pprm_of_truth_table(job.spec));
  }
  return equal && rmrls::implements(rebuilt, job.spec) &&
         io_round_trip(log, request, root.index(), job.spec, rebuilt);
}

/// Replays jobs 0..count-1 (cycling the corpus) on `threads` threads.
/// Returns the wall time; `logs` gets one span log per thread.
double replay(const std::vector<BatchJob>& jobs, std::size_t count,
              SynthCache& cache, int threads, bool traced,
              std::vector<std::unique_ptr<SpanLog>>& logs,
              std::atomic<std::uint64_t>& bad) {
  std::atomic<std::size_t> next{0};
  logs.clear();
  for (int t = 0; t < threads; ++t) {
    logs.push_back(std::make_unique<SpanLog>(traced));
  }
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= count) return;
        if (!replay_job(jobs[k % jobs.size()], cache, *logs[t], k)) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return seconds_between(t0, Clock::now());
}

void report_warm_searches(Report& report, const rmrls::BatchResult& warm) {
  std::vector<double> call_ms;
  std::size_t fallbacks = 0;
  for (const rmrls::BatchJobOutcome& out : warm.outcomes) {
    if (out.cache_hit || out.deduped) continue;
    call_ms.push_back(static_cast<double>(out.elapsed.count()) / 1e3);
    if (out.engine != rmrls::FallbackEngine::kBestFirst) ++fallbacks;
  }
  if (call_ms.empty()) return;
  report.set("core.search.call_ms_p50", percentile(call_ms, 0.50));
  report.set("core.search.call_ms_p99", percentile(call_ms, 0.99));
  report.set("core.search.fallback_ratio",
             static_cast<double>(fallbacks) /
                 static_cast<double>(call_ms.size()));
}

}  // namespace

Report run_orbit_batch(const RunConfig& config) {
  Report report(config.trace);
  const Corpus corpus = make_corpus(config.seed, report);
  rmrls::BatchResult warm;
  const std::unique_ptr<SynthCache> cache =
      set_up(report, corpus, config.threads, config.trace, warm);
  const rmrls::BatchOptions options =
      batch_options(cache.get(), config.threads);
  OutcomeChecker checker(report, corpus.jobs);

  // Whole batches over the corpus until the time (a share of it in the
  // traced run) is up.
  const double batch_limit_s =
      config.trace ? config.seconds / 3.0 : config.seconds;
  std::vector<std::int64_t> job_us;
  double batch_wall_s = 0;
  double job_busy_us = 0;
  std::uint64_t orbit_hits = 0;
  const rmrls::SynthCacheStats before = cache->stats();
  do {
    const auto t0 = Clock::now();
    const rmrls::BatchResult result = rmrls::run_batch(corpus.jobs, options);
    batch_wall_s += seconds_between(t0, Clock::now());
    checker.check(result);
    orbit_hits += result.stats.cache_orbit_hits;
    for (const rmrls::BatchJobOutcome& out : result.outcomes) {
      job_us.push_back(out.elapsed.count());
      job_busy_us += static_cast<double>(out.elapsed.count());
    }
  } while (batch_wall_s < batch_limit_s);
  const rmrls::SynthCacheStats after = cache->stats();
  const auto jobs_run = static_cast<double>(job_us.size());

  if (!config.trace) {
    const double ok = static_cast<double>(report.attempted - report.failed);
    report.set("ops_per_s", ok / batch_wall_s);
    report.set("latency_p50_ms", rounded_percentile(job_us, 0.50) / 1e3);
    report.set("latency_p99_ms", rounded_percentile(job_us, 0.99) / 1e3);
    checker.report_totals();
    report.set("ok_ratio", ok / static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak_rss_mb());
    return report;
  }

  report_warm_searches(report, warm);
  report.set("core.batch.job_us_p50", rounded_percentile(job_us, 0.50));
  report.set("core.batch.job_us_p99", rounded_percentile(job_us, 0.99));
  report.set("core.batch.utilization",
             job_busy_us / (batch_wall_s * 1e6 * config.threads));
  const auto lookups = static_cast<double>(
      (after.hits - before.hits) + (after.misses - before.misses) +
      (after.dedup_waits - before.dedup_waits));
  if (lookups > 0) {
    report.set("core.cache.hit_ratio",
               static_cast<double>(after.hits - before.hits) / lookups);
  }
  report.set("core.cache.orbit_hit_ratio",
             static_cast<double>(orbit_hits) / jobs_run);
  report.set("core.cache.dedup_waits",
             static_cast<double>(after.dedup_waits - before.dedup_waits));
  report.set("core.cache.evictions",
             static_cast<double>(after.evictions - before.evictions));

  // The hit path replayed call by call: untraced, then the same jobs
  // traced; the ratio of the two walls is the tracing overhead.
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::size_t count = 0;
  double plain_s = 0;
  while (plain_s < config.seconds / 3.0) {
    plain_s += replay(corpus.jobs, corpus.jobs.size(), *cache, config.threads,
                      false, logs, bad);
    count += corpus.jobs.size();
  }
  const double traced_s =
      replay(corpus.jobs, count, *cache, config.threads, true, logs, bad);
  report.attempted += 2 * count;
  if (bad.load() > 0) {
    report.fail(std::to_string(bad.load()) +
                " replayed hits missed or failed verification");
  }
  std::vector<const SpanLog*> views;
  for (const auto& log : logs) views.push_back(log.get());
  const SpanSummary summary = summarize(views);
  report.set("rev.canonical.canonicalize_us_p50",
             summary.p("rev.canonical:canonicalize", 0.50));
  report.set("rev.canonical.canonicalize_us_p99",
             summary.p("rev.canonical:canonicalize", 0.99));
  report.set("rev.canonical.reconstruct_us_p50",
             summary.p("rev.canonical:reconstruct", 0.50));
  report.set("rev.equivalence.verify_us_p50",
             summary.p("rev.equivalence:verify", 0.50));
  report.set("rev.equivalence.verify_us_p99",
             summary.p("rev.equivalence:verify", 0.99));
  report.set("core.cache.lookup_us_p50", summary.p("core.cache:lookup", 0.50));
  report.set("trace.overhead_ratio", traced_s / plain_s);
  report_spans(report, summary, count);
  if (!config.spans_path.empty() && !write_spans(config.spans_path, views)) {
    report.fail("cannot write spans to " + config.spans_path);
  }
  return report;
}

}  // namespace perfbench
