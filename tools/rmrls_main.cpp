/// \file rmrls_main.cpp
/// \brief Command-line front end of the RMRLS synthesizer.
///
/// Run `rmrls --help` for the full option list (the help() function below
/// is the authoritative reference).

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "bench_suite/registry.hpp"
#include "core/batch.hpp"
#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/resilient.hpp"
#include "core/status.hpp"
#include "core/synth_cache.hpp"
#include "core/synthesizer.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "rev/canonical.hpp"
#include "rev/equivalence.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profile.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rev/pprm_transform.hpp"
#include "rev/quantum_cost.hpp"
#include "templates/fredkinize.hpp"
#include "templates/simplify.hpp"

namespace {

/// Ctrl-C cancels the run cooperatively: the engines drain within one
/// candidate evaluation and the CLI exits with the kCancelled code (5),
/// after writing metrics. CancelToken::cancel is a lock-free atomic CAS,
/// safe to call from a signal handler.
rmrls::CancelToken g_cancel;

void handle_cancel_signal(int) {
  // Async-signal-safe by construction: one lock-free CAS, no allocation,
  // no logging (docs/robustness.md). The main thread notices the token
  // and does the reporting outside signal context.
  g_cancel.cancel(rmrls::CancelReason::kUser);
}

/// SIGINT (Ctrl-C), SIGTERM (service managers / `kill`) and SIGHUP
/// (closed terminal) all request the same graceful wind-down: cancel
/// cooperatively, write metrics, exit 5.
void install_cancel_signals() {
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
#ifdef SIGHUP
  std::signal(SIGHUP, handle_cancel_signal);
#endif
}

void help(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " (--perm SPEC | --spec FILE | --batch FILE | --benchmark NAME"
        " | --resynth FILE | --list) [options]\n"
        "\n"
        "Input (exactly one):\n"
        "  --perm SPEC        inline permutation, e.g. \"{1, 0, 7, 2, 3, 4,"
        " 5, 6}\"\n"
        "  --spec FILE        permutation spec file (same syntax)\n"
        "  --batch FILE       spec-list file: one permutation per line,"
        " '#'\n"
        "                     comments; jobs run concurrently through the\n"
        "                     orbit cache (docs/caching.md)\n"
        "  --benchmark NAME   named function from the paper's suite\n"
        "  --resynth FILE     resynthesize an existing .tfc cascade\n"
        "  --list             list benchmark names and exit\n"
        "\n"
        "Search options:\n"
        "  --alpha X --beta X --gamma X\n"
        "                     eq. (4) priority weights (default 0.3 0.6"
        " 0.1)\n"
        "  --greedy K         keep best K substitutions per variable (0 ="
        " all)\n"
        "  --max-gates N      circuit size cap (0 = unlimited)\n"
        "  --max-nodes N      search-node budget (default 200000)\n"
        "  --time-ms N        wall-clock limit in milliseconds\n"
        "  --first            stop at the first valid circuit\n"
        "  --no-extra         basic substitutions only (Section IV-A)\n"
        "  --scope c|additional|any\n"
        "                     non-reducing substitution scope\n"
        "  --cbudget N        non-reducing substitutions per path (-1 ="
        " auto)\n"
        "  --restart N        restart interval in expansions (0 = off)\n"
        "  --queue N          queued-candidate cap (default 2^20); with\n"
        "                     --tt-mb this bounds the search's resident\n"
        "                     memory on long runs (overflow counts\n"
        "                     dropped_queue_full)\n"
        "  --tt-mb N          transposition-table memory budget in MiB\n"
        "                     (default 64); the table is bounded and"
        " evicts\n"
        "                     by --tt-policy instead of growing\n"
        "  --tt-policy P      replacement policy: always | depth | aging\n"
        "                     (default aging); see docs/parallelism.md\n"
        "  --no-history       disable the history heuristic (learned\n"
        "                     (target, factor-class) ordering bonus)\n"
        "  --no-id            disable iterative deepening on the gate"
        " bound\n"
        "                     (single full-depth pass, pre-PR-7 behaviour)\n"
        "  --dense-threshold N\n"
        "                     widest system (in variables) eligible for"
        " the\n"
        "                     word-parallel dense spectrum kernel (default"
        " 14,\n"
        "                     0 = always sparse); see docs/dense_pprm.md\n"
        "  --tt / --no-tt     transposition table on/off\n"
        "  --cumul / --stage-elim\n"
        "                     cumulative vs per-stage elimination priority\n"
        "\n"
        "Caching and batch throughput (docs/caching.md):\n"
        "  --cache-mb N       in-memory orbit-cache budget in MiB (0 ="
        " off;\n"
        "                     default 64 in --batch mode, otherwise 0, or"
        " 64\n"
        "                     when --cache-dir is given)\n"
        "  --cache-dir DIR    on-disk circuit store (one .tfc per"
        " canonical\n"
        "                     key); persists cache entries across runs\n"
        "  --canonical-cap N  widest spec (in variables) canonicalized to"
        " its\n"
        "                     orbit representative (default 12); wider"
        " specs\n"
        "                     are cached by exact identity only\n"
        "  --threads N        concurrent jobs, --batch mode only (default"
        " 1;\n"
        "                     0 = one per hardware thread); each search"
        " runs\n"
        "                     on one thread (docs/parallelism.md). --time-ms\n"
        "                     bounds the *whole batch* under one watchdog.\n"
        "\n"
        "Fleet scale-out (docs/fleet.md, --batch mode only):\n"
        "  --shard I/N        run only shard I of N (0-based): each spec\n"
        "                     line is assigned to exactly one shard by a\n"
        "                     stable content hash, so N processes over the\n"
        "                     same file partition it without coordination\n"
        "  --checkpoint FILE  record completed job ids (tmp+rename); on\n"
        "                     restart those jobs are skipped and the run\n"
        "                     resumes where the dead one stopped\n"
        "  --cache-gc-mb N    byte budget of the --cache-dir store in MiB\n"
        "                     (0 = unbounded); oldest .tfc files are\n"
        "                     garbage-collected past it, and stale lease/\n"
        "                     tmp litter from dead processes is swept\n"
        "\n"
        "Resilience (docs/robustness.md):\n"
        "  --resilient        fallback cascade: best-first, then greedy,\n"
        "                     then transformation-based; the winner is\n"
        "                     verified and labelled in the metrics. With\n"
        "                     --time-ms the whole cascade shares the\n"
        "                     wall-clock budget under a watchdog.\n"
        "  --no-watchdog      enforce --time-ms cooperatively only (no\n"
        "                     watchdog thread)\n"
        "\n"
        "Post-processing and output:\n"
        "  --templates        post-process with the template pass\n"
        "  --fredkin          extract Fredkin gates (mixed output)\n"
        "  --bidir            also try the inverse direction\n"
        "  --tfc              print the circuit in .tfc format\n"
        "\n"
        "Observability:\n"
        "  --trace FILE       write typed search events as JSONL\n"
        "  --trace-interval N sample node-expansion/prune events every Nth\n"
        "                     expansion (default 1 = every event)\n"
        "  --metrics-out FILE write one JSON metrics record (counters,\n"
        "                     per-phase timings, termination reason,"
        " circuit\n"
        "                     stats); schema rmrls-metrics-v1, see\n"
        "                     docs/observability.md\n"
        "  --heartbeat-ms N   arm live telemetry and write one heartbeat\n"
        "                     record every N ms (schema rmrls-metrics-v2:\n"
        "                     counters, gauges, histograms, uptime) into\n"
        "                     --metrics-out (stderr without it). In --batch\n"
        "                     mode each job also gets a trace_id correlated\n"
        "                     across job records, trace events and the\n"
        "                     heartbeats' active set\n"
        "  --progress         human-readable search progress on stderr\n"
        "\n"
        "  --help, -h         this text\n"
        "\n"
        "Exit codes: 0 success; 2 usage / invalid argument; 3 unreadable\n"
        "or malformed input; 4 budget exhausted without a circuit;\n"
        "5 cancelled (SIGINT/SIGTERM/SIGHUP); 6 internal error\n"
        "(verification failure); 7 server unavailable (rmrls-serve load\n"
        "shed — retryable, see docs/serving.md).\n";
}

int usage(const char* argv0) {
  help(argv0, std::cerr);
  return 2;
}

// Numeric option values parse with a diagnostic and exit(2) instead of an
// uncaught std::invalid_argument abort (same contract as the bench
// harnesses' --help/--samples parsing in bench/bench_common.hpp).
[[noreturn]] void bad_number(const std::string& arg, const std::string& v) {
  std::cerr << "invalid number for " << arg << ": '" << v << "'\n";
  std::exit(2);
}

long long num_ll(const std::string& arg, const std::string& v) {
  try {
    std::size_t used = 0;
    const long long n = std::stoll(v, &used);
    if (used != v.size()) bad_number(arg, v);
    return n;
  } catch (const std::exception&) {
    bad_number(arg, v);
  }
}

unsigned long long num_ull(const std::string& arg, const std::string& v) {
  try {
    std::size_t used = 0;
    const unsigned long long n = std::stoull(v, &used);
    if (used != v.size()) bad_number(arg, v);
    return n;
  } catch (const std::exception&) {
    bad_number(arg, v);
  }
}

double num_d(const std::string& arg, const std::string& v) {
  try {
    std::size_t used = 0;
    const double n = std::stod(v, &used);
    if (used != v.size()) bad_number(arg, v);
    return n;
  } catch (const std::exception&) {
    bad_number(arg, v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmrls;
  std::string perm_text;
  std::string spec_file;
  std::string benchmark;
  std::string batch_file;
  std::string cache_dir;
  long long cache_mb = -1;  // sentinel: 64 in batch / with --cache-dir, else 0
  long long cache_gc_mb = 0;  // disk-store budget, 0 = unbounded
  int canonical_cap = -1;
  int concurrent_jobs = 1;
  bool threads_given = false;
  int shard_index = 0;
  int shard_count = 1;
  std::string checkpoint_file;
  SynthesisOptions options;
  bool run_templates = false;
  bool run_fredkinize = false;
  bool bidirectional = false;
  bool resilient_mode = false;
  bool use_watchdog = true;
  bool emit_tfc = false;
  std::string tfc_file;
  std::string trace_file;
  std::string metrics_file;
  long long heartbeat_ms = 0;
  bool progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--perm") {
      perm_text = next();
    } else if (arg == "--spec") {
      spec_file = next();
    } else if (arg == "--benchmark") {
      benchmark = next();
    } else if (arg == "--batch") {
      batch_file = next();
    } else if (arg == "--cache-dir") {
      cache_dir = next();
    } else if (arg == "--cache-mb") {
      cache_mb = num_ll(arg, next());
      if (cache_mb < 0) bad_number(arg, std::to_string(cache_mb));
    } else if (arg == "--canonical-cap") {
      canonical_cap = static_cast<int>(num_ll(arg, next()));
      if (canonical_cap < 0) bad_number(arg, std::to_string(canonical_cap));
    } else if (arg == "--shard") {
      const std::string v = next();
      const std::size_t slash = v.find('/');
      if (slash == std::string::npos) bad_number(arg, v);
      shard_index =
          static_cast<int>(num_ll(arg, v.substr(0, slash)));
      shard_count = static_cast<int>(num_ll(arg, v.substr(slash + 1)));
      if (shard_count < 1 || shard_index < 0 || shard_index >= shard_count) {
        std::cerr << "--shard wants I/N with 0 <= I < N, got '" << v
                  << "'\n";
        return usage(argv[0]);
      }
    } else if (arg == "--checkpoint") {
      checkpoint_file = next();
    } else if (arg == "--cache-gc-mb") {
      cache_gc_mb = num_ll(arg, next());
      if (cache_gc_mb < 0) bad_number(arg, std::to_string(cache_gc_mb));
    } else if (arg == "--list") {
      for (const std::string& name : suite::benchmark_names()) {
        std::cout << name << "\n";
      }
      return 0;
    } else if (arg == "--alpha") {
      options.alpha = num_d(arg, next());
    } else if (arg == "--beta") {
      options.beta = num_d(arg, next());
    } else if (arg == "--gamma") {
      options.gamma = num_d(arg, next());
    } else if (arg == "--greedy") {
      options.greedy_k = static_cast<int>(num_ll(arg, next()));
    } else if (arg == "--max-gates") {
      options.max_gates = static_cast<int>(num_ll(arg, next()));
    } else if (arg == "--max-nodes") {
      options.max_nodes = num_ull(arg, next());
    } else if (arg == "--time-ms") {
      options.time_limit = std::chrono::milliseconds(num_ll(arg, next()));
    } else if (arg == "--stage-elim") {
      options.cumulative_elim_priority = false;
    } else if (arg == "--cumul") {
      options.cumulative_elim_priority = true;
    } else if (arg == "--tt") {
      options.use_transposition_table = true;
    } else if (arg == "--no-tt") {
      options.use_transposition_table = false;
    } else if (arg == "--cbudget") {
      options.exempt_budget = static_cast<int>(num_ll(arg, next()));
    } else if (arg == "--scope") {
      const std::string s = next();
      options.exempt_scope =
          s == "any"        ? SynthesisOptions::ExemptScope::kAny
          : s == "additional" ? SynthesisOptions::ExemptScope::kAdditional
                              : SynthesisOptions::ExemptScope::kComplement;
    } else if (arg == "--restart") {
      options.restart_interval = num_ull(arg, next());
    } else if (arg == "--threads") {
      concurrent_jobs = static_cast<int>(num_ll(arg, next()));
      if (concurrent_jobs < 0) bad_number(arg, std::to_string(concurrent_jobs));
      threads_given = true;
    } else if (arg == "--queue") {
      const long long v = num_ll(arg, next());
      if (v < 1) bad_number(arg, std::to_string(v));
      options.max_queue = static_cast<std::size_t>(v);
    } else if (arg == "--tt-mb") {
      options.tt_mb = static_cast<int>(num_ll(arg, next()));
      if (options.tt_mb < 1) bad_number(arg, std::to_string(options.tt_mb));
    } else if (arg == "--tt-policy") {
      const std::string s = next();
      if (s == "always") {
        options.tt_replacement = TTReplacement::kAlways;
      } else if (s == "depth") {
        options.tt_replacement = TTReplacement::kDepthPreferred;
      } else if (s == "aging") {
        options.tt_replacement = TTReplacement::kAging;
      } else {
        std::cerr << "--tt-policy wants always|depth|aging, got '" << s
                  << "'\n";
        return usage(argv[0]);
      }
    } else if (arg == "--no-history") {
      options.use_history = false;
    } else if (arg == "--no-id") {
      options.iterative_deepening = false;
    } else if (arg == "--dense-threshold") {
      options.dense_threshold = static_cast<int>(num_ll(arg, next()));
      if (options.dense_threshold < 0) {
        bad_number(arg, std::to_string(options.dense_threshold));
      }
    } else if (arg == "--first") {
      options.stop_at_first_solution = true;
    } else if (arg == "--no-extra") {
      options.allow_relaxed_targets = false;
      options.allow_complement = false;
    } else if (arg == "--templates") {
      run_templates = true;
    } else if (arg == "--fredkin") {
      run_fredkinize = true;
    } else if (arg == "--bidir") {
      bidirectional = true;
    } else if (arg == "--resilient") {
      resilient_mode = true;
    } else if (arg == "--no-watchdog") {
      use_watchdog = false;
    } else if (arg == "--resynth") {
      tfc_file = next();
    } else if (arg == "--tfc") {
      emit_tfc = true;
    } else if (arg == "--trace") {
      trace_file = next();
    } else if (arg == "--trace-interval") {
      options.trace_sample_interval = num_ull(arg, next());
    } else if (arg == "--metrics-out") {
      metrics_file = next();
    } else if (arg == "--heartbeat-ms") {
      heartbeat_ms = num_ll(arg, next());
      if (heartbeat_ms < 1) bad_number(arg, std::to_string(heartbeat_ms));
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--help" || arg == "-h") {
      help(argv[0], std::cout);
      return 0;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (threads_given && batch_file.empty()) {
    // Parallelism lives at the job level only: a single synthesis always
    // runs on one thread (docs/parallelism.md).
    std::cerr << "error: --threads sets concurrent --batch jobs and needs "
                 "--batch\n";
    return 2;
  }

  try {
    // Observability: assemble the requested sinks (both --trace and
    // --progress may be active at once) and the phase profile.
    std::ofstream trace_out;
    std::unique_ptr<JsonlTraceSink> jsonl_sink;
    std::unique_ptr<ProgressTraceSink> progress_sink;
    MultiTraceSink multi_sink;
    if (!trace_file.empty()) {
      trace_out.open(trace_file);
      if (!trace_out) {
        std::cerr << "cannot open " << trace_file << " for writing\n";
        return 1;
      }
      jsonl_sink = std::make_unique<JsonlTraceSink>(trace_out);
      multi_sink.add(jsonl_sink.get());
    }
    if (progress) {
      progress_sink = std::make_unique<ProgressTraceSink>(std::cerr);
      multi_sink.add(progress_sink.get());
    }
    if (jsonl_sink || progress_sink) options.trace_sink = &multi_sink;
    PhaseProfile profile;
    if (!metrics_file.empty()) options.phase_profile = &profile;

    // The metrics stream opens before the run (not after, as the v1-only
    // code did) so heartbeat records can interleave with it; the per-run /
    // per-job v1 records are still written after the snapshotter stopped,
    // so the two writers never race on the stream.
    std::ofstream metrics_out;
    if (!metrics_file.empty()) {
      metrics_out.open(metrics_file);
      if (!metrics_out) {
        std::cerr << "cannot open " << metrics_file << " for writing\n";
        return 1;
      }
    }
    // Live telemetry (docs/observability.md): arming must precede the
    // construction of everything that caches instrument handles (caches,
    // engines, the batch driver).
    std::unique_ptr<Snapshotter> snapshotter;
    if (heartbeat_ms > 0) {
      Telemetry& telemetry = Telemetry::enable();
      telemetry.reset();
      snapshotter = std::make_unique<Snapshotter>(
          telemetry, std::chrono::milliseconds(heartbeat_ms),
          metrics_file.empty() ? static_cast<std::ostream&>(std::cerr)
                               : static_cast<std::ostream&>(metrics_out));
    }

    // Input handling is fail-soft (docs/robustness.md): the checked
    // parsers return a Status whose diagnostic carries file:line, and the
    // Status category picks the exit code.
    const auto input_error = [](const Status& status) {
      std::cerr << "error: " << status.to_string() << "\n";
      return exit_code_for(status.code());
    };

    if (!batch_file.empty()) {
      if (!perm_text.empty() || !spec_file.empty() || !benchmark.empty() ||
          !tfc_file.empty()) {
        std::cerr << "error: --batch cannot be combined with another input\n";
        return usage(argv[0]);
      }
      std::ifstream in(batch_file);
      if (!in) {
        std::cerr << "error: cannot open " << batch_file << "\n";
        return exit_code_for(StatusCode::kParseError);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      Result<std::vector<NamedSpec>> parsed =
          parse_permutation_batch_checked(buf.str(), batch_file);
      if (!parsed.ok()) return input_error(parsed.status());

      std::vector<BatchJob> jobs;
      for (NamedSpec& s : parsed.value()) {
        jobs.push_back(BatchJob{std::move(s.name), std::move(s.table)});
      }
      // Ids are assigned over the FULL corpus before shard filtering so a
      // job keeps the same id whatever N is (docs/fleet.md) — a checkpoint
      // written at --shard 0/4 still resumes correctly at 0/8.
      assign_job_ids(jobs);
      jobs = filter_shard(std::move(jobs), shard_index, shard_count);

      std::optional<BatchCheckpoint> checkpoint;
      if (!checkpoint_file.empty()) {
        Result<BatchCheckpoint> opened = BatchCheckpoint::open(checkpoint_file);
        if (!opened.ok()) return input_error(opened.status());
        checkpoint.emplace(std::move(opened).value());
        // Write (or rewrite) the file before any job runs, so a run killed
        // mid-corpus always leaves a loadable ledger behind.
        checkpoint->flush();
      }

      install_cancel_signals();
      BatchOptions bopts;
      bopts.resilience.search = options;
      bopts.resilience.search.time_limit = std::chrono::milliseconds{0};
      bopts.total_threads = concurrent_jobs;
      bopts.deadline = options.time_limit;  // bounds the whole batch
      bopts.use_watchdog = use_watchdog;
      bopts.cancel_token = &g_cancel;
      if (canonical_cap >= 0) bopts.canonical.max_vars = canonical_cap;
      if (checkpoint.has_value()) bopts.checkpoint = &*checkpoint;
      const long long mb = cache_mb < 0 ? 64 : cache_mb;
      std::unique_ptr<SynthCache> cache;
      if (mb > 0) {
        SynthCacheOptions copts;
        copts.byte_budget = static_cast<std::size_t>(mb) << 20;
        copts.dir = cache_dir;
        copts.disk_byte_budget = static_cast<std::size_t>(cache_gc_mb) << 20;
        cache = std::make_unique<SynthCache>(std::move(copts));
        bopts.cache = cache.get();
      }

      const BatchResult br = run_batch(jobs, bopts);
      // Final gauge/counter state is in place now; the flush heartbeat
      // must land before the v1 records start using the stream.
      if (snapshotter != nullptr) snapshotter->stop();

      for (const BatchJobOutcome& out : br.outcomes) {
        // Checkpoint-resumed jobs were already emitted by the run that
        // completed them; re-printing would duplicate output in the union.
        if (out.skipped) continue;
        if (!out.status.ok()) {
          std::cerr << out.name << ": " << out.status.to_string() << "\n";
          continue;
        }
        if (emit_tfc) {
          std::cout << "# " << out.name << "\n"
                    << write_tfc(out.result.circuit);
        } else {
          std::cout << out.name << ": " << out.result.circuit.to_string()
                    << "\n";
        }
      }
      std::cerr << "batch: " << br.stats.jobs << " jobs, "
                << br.stats.completed << " ok, " << br.stats.failed
                << " failed, " << br.stats.skipped << " resumed, "
                << br.stats.cache_hits << " cache hits ("
                << br.stats.cache_orbit_hits << " via orbit), "
                << br.stats.cache_misses << " misses, "
                << br.stats.batch_dedup << " deduped, "
                << br.elapsed.count() << " us\n";

      if (!metrics_file.empty()) {
        MetricsWriter writer(metrics_out);
        std::int64_t total_gates = 0;
        std::int64_t total_cost = 0;
        for (const BatchJobOutcome& job : br.outcomes) {
          if (job.skipped) continue;  // emitted by the run that completed it
          MetricsRegistry record;
          record.set("name", job.name)
              .set("vars", job.result.circuit.num_lines())
              .set("success", job.status.ok());
          if (job.trace_id != 0) {
            // Span correlation (docs/observability.md): the same 16-hex id
            // this job's trace events and the heartbeats' active set carry.
            record.set("trace_id", trace_id_hex(job.trace_id));
          }
          record.add_stats(job.result.stats, job.result.termination);
          record.set("fallback_engine",
                     std::string_view(to_string(job.engine)));
          record.set("verified", job.verified);
          record.set("cache_hit", job.cache_hit)
              .set("cache_orbit_hit", job.orbit_hit)
              .set("batch_deduped", job.deduped);
          if (job.status.ok()) {
            record.add_circuit(job.result.circuit);
            total_gates += job.result.circuit.gate_count();
            total_cost +=
                static_cast<std::int64_t>(quantum_cost(job.result.circuit));
          } else {
            record.set("gates", -1).set("quantum_cost", -1);
          }
          writer.write(record);
        }
        // One summary record carrying the batch-level counters; gates is
        // the total across jobs so the success/gates invariant holds.
        MetricsRegistry summary;
        const bool ok = br.status.ok();
        const TerminationReason summary_termination =
            ok ? TerminationReason::kSolved
            : br.status.code() == StatusCode::kCancelled
                ? TerminationReason::kCancelled
                : br.search_stats.watchdog_fired
                      ? TerminationReason::kTimeLimit
                      : TerminationReason::kQueueExhausted;
        summary.set("name", batch_file).set("success", ok);
        summary.add_stats(br.search_stats, summary_termination);
        summary.set("batch_jobs", br.stats.jobs)
            .set("batch_completed", br.stats.completed)
            .set("batch_failed", br.stats.failed)
            .set("cache_hits", br.stats.cache_hits)
            .set("cache_misses", br.stats.cache_misses)
            .set("cache_orbit_hits", br.stats.cache_orbit_hits)
            .set("batch_dedup", br.stats.batch_dedup)
            .set("batch_skipped", br.stats.skipped);
        if (shard_count > 1) {
          // Lets tools/metrics_report label the per-shard breakdown rows
          // without inferring shards from filenames.
          summary.set("shard", std::to_string(shard_index) + "/" +
                                   std::to_string(shard_count));
        }
        if (ok) {
          summary.set("gates", total_gates).set("quantum_cost", total_cost);
        } else {
          summary.set("gates", -1).set("quantum_cost", -1);
        }
        writer.write(summary);
      }
      return exit_code_for(br.status.code());
    }

    Pprm spec;
    std::string input_name;
    std::optional<TruthTable> table_spec;
    if (!tfc_file.empty()) {
      // Resynthesis mode: read a cascade and search for a better one
      // realizing the same function.
      std::ifstream in(tfc_file);
      if (!in) {
        std::cerr << "error: cannot open " << tfc_file << "\n";
        return exit_code_for(StatusCode::kParseError);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      Result<Circuit> parsed = read_tfc_checked(buf.str(), tfc_file);
      if (!parsed.ok()) return input_error(parsed.status());
      const Circuit original = std::move(parsed).value();
      std::cerr << "resynthesizing " << original.gate_count()
                << "-gate cascade on " << original.num_lines() << " lines\n";
      spec = original.to_pprm();
      input_name = tfc_file;
    } else if (!perm_text.empty()) {
      Result<TruthTable> parsed =
          parse_permutation_spec_checked(perm_text, "<perm>");
      if (!parsed.ok()) return input_error(parsed.status());
      table_spec = std::move(parsed).value();
      spec = pprm_of_truth_table(*table_spec);
      input_name = "perm";
    } else if (!spec_file.empty()) {
      std::ifstream in(spec_file);
      if (!in) {
        std::cerr << "error: cannot open " << spec_file << "\n";
        return exit_code_for(StatusCode::kParseError);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      Result<TruthTable> parsed =
          parse_permutation_spec_checked(buf.str(), spec_file);
      if (!parsed.ok()) return input_error(parsed.status());
      table_spec = std::move(parsed).value();
      spec = pprm_of_truth_table(*table_spec);
      input_name = spec_file;
    } else if (!benchmark.empty()) {
      try {
        spec = suite::get_benchmark(benchmark).pprm;
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return exit_code_for(StatusCode::kInvalidArgument);
      }
      input_name = benchmark;
    } else {
      return usage(argv[0]);
    }

    // Ctrl-C / SIGTERM / SIGHUP cancel cooperatively from here on (user
    // reason -> exit 5).
    install_cancel_signals();
    options.cancel_token = &g_cancel;

    // Single-shot orbit cache (docs/caching.md): off unless sized
    // explicitly or given a disk store; only permutation-table inputs
    // canonicalize. A verified hit skips synthesis entirely; a miss
    // synthesizes as before and inserts the *representative's* circuit
    // (forward transform), so the emitted circuit is byte-identical to a
    // cache-less run.
    const long long single_mb =
        cache_mb >= 0 ? cache_mb : (cache_dir.empty() ? 0 : 64);
    std::unique_ptr<SynthCache> cache;
    CanonicalForm canonical_form;
    bool cache_enabled = false;
    bool cache_hit = false;
    if (single_mb > 0 && table_spec.has_value()) {
      SynthCacheOptions copts;
      copts.byte_budget = static_cast<std::size_t>(single_mb) << 20;
      copts.dir = cache_dir;
      cache = std::make_unique<SynthCache>(std::move(copts));
      CanonicalOptions canon;
      if (canonical_cap >= 0) canon.max_vars = canonical_cap;
      canonical_form = canonicalize(*table_spec, canon);
      cache_enabled = true;
    }

    SynthesisResult result;
    FallbackEngine engine = FallbackEngine::kNone;
    bool verified = false;
    Status run_status;
    if (cache_enabled) {
      if (std::optional<Circuit> cached = cache->lookup(canonical_form.key)) {
        Circuit rebuilt =
            reconstruct_circuit(*cached, canonical_form.transform);
        // Mandatory re-verification: a hash collision or corrupt disk
        // entry fails here and degrades to a plain miss.
        if (equivalent(rebuilt, spec)) {
          result.success = true;
          result.circuit = std::move(rebuilt);
          result.initial_terms = spec.term_count();
          result.termination = TerminationReason::kSolved;
          verified = true;
          cache_hit = true;
        }
      }
    }
    if (!cache_hit && resilient_mode) {
      ResilienceOptions ropts;
      ropts.search = options;
      ropts.search.time_limit = std::chrono::milliseconds{0};
      ropts.deadline = options.time_limit;  // the cascade owns the clock
      ropts.use_watchdog = use_watchdog;
      ropts.cancel_token = &g_cancel;
      if (bidirectional) {
        std::cerr << "note: --resilient runs the forward cascade;"
                     " --bidir is ignored\n";
      }
      ResilientResult rr = table_spec
                               ? synthesize_resilient(*table_spec, ropts)
                               : synthesize_resilient(spec, ropts);
      result = std::move(rr.result);
      engine = rr.engine;
      verified = rr.verified;
      run_status = rr.status;
    } else if (!cache_hit) {
      // The watchdog backstops --time-ms even if a pass wedges between
      // cooperative deadline polls.
      std::unique_ptr<Watchdog> watchdog;
      if (use_watchdog && options.time_limit.count() > 0) {
        watchdog = std::make_unique<Watchdog>(g_cancel, options.time_limit);
      }
      result = bidirectional && table_spec
                   ? synthesize_bidirectional(*table_spec, options)
                   : synthesize(spec, options);
      if (bidirectional && !table_spec) {
        std::cerr << "note: --bidir needs an explicit permutation spec;"
                     " running forward only\n";
      }
      if (watchdog != nullptr) {
        watchdog->disarm();
        result.stats.watchdog_fired = watchdog->fired();
      }
    }
    if (cache_enabled && !cache_hit && result.success) {
      cache->insert(
          canonical_form.key,
          canonical_circuit_of(result.circuit, canonical_form.transform));
    }
    // Flush the final heartbeat before the v1 record shares the stream.
    if (snapshotter != nullptr) snapshotter->stop();
    // One JSONL record per run: counters + termination + phase timings +
    // circuit stats (gates/cost -1 when the synthesis failed).
    const auto write_metrics = [&](const Circuit* circuit) {
      if (metrics_file.empty()) return true;
      MetricsRegistry record;
      record.set("name", input_name).set("vars", spec.num_vars());
      record.set("success", result.success);
      record.add_stats(result.stats, result.termination);
      if (resilient_mode) {
        // Degradation visibility: which engine of the cascade won (or
        // "none") and whether the winner passed exact verification.
        record.set("fallback_engine", std::string_view(to_string(engine)));
        record.set("verified", verified);
      }
      if (cache_enabled) {
        record.set("cache_hits", std::uint64_t{cache_hit ? 1u : 0u});
        record.set("cache_misses", std::uint64_t{cache_hit ? 0u : 1u});
      }
      record.add_profile(profile);
      if (circuit != nullptr) {
        record.add_circuit(*circuit);
      } else {
        record.set("gates", -1).set("quantum_cost", -1);
      }
      MetricsWriter(metrics_out).write(record);
      return true;
    };

    if (!result.success) {
      std::cerr << "synthesis failed within budget ("
                << result.stats.nodes_expanded << " nodes expanded,"
                   " termination: "
                << to_string(result.termination) << ")\n";
      if (result.partial_terms >= 0) {
        std::cerr << "best partial cascade: " << result.partial.gate_count()
                  << " gates, " << result.partial_terms
                  << " terms remaining\n";
      }
      write_metrics(nullptr);
      if (resilient_mode) return exit_code_for(run_status.code());
      return exit_code_for(result.termination == TerminationReason::kCancelled
                               ? StatusCode::kCancelled
                               : StatusCode::kBudgetExhausted);
    }
    Circuit circuit = result.circuit;
    if (run_templates) {
      circuit = simplify_templates(circuit, options.phase_profile).circuit;
    }
    if (!implements(circuit, spec)) {
      std::cerr << "internal error: circuit fails verification\n";
      return exit_code_for(StatusCode::kInternal);
    }
    if (!write_metrics(&circuit)) return 1;
    if (run_fredkinize) {
      const FredkinizeResult fr = fredkinize(circuit);
      std::cout << fr.circuit.to_string() << "\n";
      std::cout << "gates: " << fr.circuit.gate_count() << " ("
                << fr.fredkin_gates << " Fredkin)"
                << "  quantum cost: " << quantum_cost(fr.circuit)
                << "  nodes: " << result.stats.nodes_expanded
                << "  termination: " << to_string(result.termination)
                << "\n";
      return 0;
    }
    // Stats go to stderr in .tfc mode so stdout stays a valid .tfc file.
    std::ostream& stats_out = emit_tfc ? std::cerr : std::cout;
    if (emit_tfc) {
      std::cout << write_tfc(circuit);
    } else {
      std::cout << circuit.to_string() << "\n";
    }
    stats_out << "gates: " << circuit.gate_count()
              << "  quantum cost: " << quantum_cost(circuit)
              << "  nodes: " << result.stats.nodes_expanded
              << "  time: " << result.stats.elapsed.count() << " us"
              << "  termination: " << to_string(result.termination) << "\n";
    if (!metrics_file.empty()) {
      stats_out << "\nphase profile:\n" << profile.to_string();
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return exit_code_for(StatusCode::kInternal);
  }
}
