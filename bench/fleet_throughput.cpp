/// \file fleet_throughput.cpp
/// \brief Jobs/sec vs process count for sharded batch synthesis
/// (docs/fleet.md).
///
/// The fleet story is N independent `rmrls --batch --shard i/N`
/// processes over one shared on-disk orbit store. This harness measures
/// that story end to end: it generates a repeat-heavy corpus
/// (bench_suite/corpus.hpp), then for each process count on the ladder
/// (1, 2, 4, ... up to --max-procs) spawns the real CLI binary N times
/// with disjoint shards and wall-clocks the slowest shard, twice:
///
///   cold   a fresh cache directory per ladder rung — every orbit is
///          synthesized somewhere in the fleet exactly once, so this
///          measures synthesis scale-out plus lease-protocol overhead
///   warm   one shared cache directory pre-populated by an untimed
///          full pass — every job is a disk hit, so this measures pure
///          serving scale-out of the shared store
///
/// Jobs/s is total corpus size over wall seconds. Scaling is bounded by
/// physical cores: the JSON report records hardware_concurrency so a
/// 1-core container's flat curve reads as what it is, not as a
/// regression (bench/BENCH_10.json commits the curve with that context).
///
/// `--json FILE` writes an rmrls-fleet-bench-v1 document; `--quick`
/// shrinks the corpus and ladder for CTest smoke use.

#include <sys/wait.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/corpus.hpp"
#include "core/status.hpp"
#include "io/table.hpp"
#include "obs/json.hpp"

namespace {

using namespace rmrls;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Args {
  int size = 96;
  double repeat_rate = 0.6;
  int min_vars = 3;
  int max_vars = 5;
  std::uint64_t seed = 20040216;
  int max_procs = 8;
  long long cache_mb = 64;
  long long cache_gc_mb = 0;
  std::uint64_t max_nodes = 200000;
  std::string rmrls;    // CLI binary; default derived from argv[0]
  std::string workdir;  // empty = fresh temp dir, removed on exit
  std::string json_out;
  bool quick = false;
};

void help(std::ostream& os) {
  os << "fleet_throughput: jobs/s vs shard-process count over a shared\n"
        "on-disk orbit store (docs/fleet.md)\n"
        "  --size N          corpus size (default 96; --quick 24)\n"
        "  --repeat-rate X   orbit-repeat fraction in [0,1] (default 0.6)\n"
        "  --min-vars N      narrowest spec (default 3)\n"
        "  --max-vars N      widest spec (default 5)\n"
        "  --seed N          corpus seed (default 20040216)\n"
        "  --max-procs N     ladder top: 1,2,4,... up to N (default 8;\n"
        "                    --quick 2)\n"
        "  --cache-mb N      per-process in-memory cache MiB (default 64)\n"
        "  --cache-gc-mb N   shared-store disk budget MiB (0 = unbounded)\n"
        "  --max-nodes N     per-job search budget (default 200000)\n"
        "  --rmrls PATH      rmrls CLI binary (default: ../tools/rmrls\n"
        "                    next to this harness)\n"
        "  --workdir DIR     keep artifacts in DIR (default: fresh temp\n"
        "                    dir, removed on exit)\n"
        "  --json FILE       write an rmrls-fleet-bench-v1 document\n"
        "  --quick           CTest mode: tiny corpus, ladder 1,2\n"
        "  --help            this text\n";
}

[[noreturn]] void bad_number(const std::string& arg, const std::string& v) {
  std::cerr << "invalid number for " << arg << ": '" << v << "'\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto next_ll = [&]() -> long long {
      const std::string value = next();
      try {
        std::size_t used = 0;
        const long long parsed = std::stoll(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        bad_number(arg, value);
      }
    };
    if (arg == "--size") {
      a.size = static_cast<int>(next_ll());
    } else if (arg == "--repeat-rate") {
      const std::string value = next();
      try {
        a.repeat_rate = std::stod(value);
      } catch (const std::exception&) {
        bad_number(arg, value);
      }
    } else if (arg == "--min-vars") {
      a.min_vars = static_cast<int>(next_ll());
    } else if (arg == "--max-vars") {
      a.max_vars = static_cast<int>(next_ll());
    } else if (arg == "--seed") {
      a.seed = static_cast<std::uint64_t>(next_ll());
    } else if (arg == "--max-procs") {
      a.max_procs = static_cast<int>(next_ll());
      if (a.max_procs < 1) bad_number(arg, std::to_string(a.max_procs));
    } else if (arg == "--cache-mb") {
      a.cache_mb = next_ll();
    } else if (arg == "--cache-gc-mb") {
      a.cache_gc_mb = next_ll();
    } else if (arg == "--max-nodes") {
      a.max_nodes = static_cast<std::uint64_t>(next_ll());
    } else if (arg == "--rmrls") {
      a.rmrls = next();
    } else if (arg == "--workdir") {
      a.workdir = next();
    } else if (arg == "--json") {
      a.json_out = next();
    } else if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      help(std::cout);
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      help(std::cerr);
      std::exit(2);
    }
  }
  if (a.quick) {
    a.size = std::min(a.size, 24);
    a.max_procs = std::min(a.max_procs, 2);
  }
  return a;
}

/// One spawned shard process and where its artifacts land.
struct Shard {
  pid_t pid = -1;
  std::string metrics;
  std::string log;
};

/// Aggregated result of one ladder rung (N shard processes, one phase).
struct Rung {
  std::string phase;  // "cold" | "warm"
  int procs = 0;
  double wall_s = 0;
  long long jobs = 0;
  long long ok = 0;
  long long failed = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  bool clean_exit = true;
};

/// fork/exec with stdout+stderr redirected to `log`; exits the child
/// with 127 if exec fails (the parent sees that in waitpid status).
pid_t spawn(const std::vector<std::string>& cmd, const std::string& log) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  std::vector<char*> argv;
  argv.reserve(cmd.size() + 1);
  for (const std::string& s : cmd) {
    argv.push_back(const_cast<char*>(s.c_str()));
  }
  argv.push_back(nullptr);
  ::execv(argv[0], argv.data());
  _exit(127);
}

/// Reads a shard's metrics JSONL and folds its summary record (the one
/// carrying batch_jobs) into `rung`. Missing/garbled files mark the rung
/// unclean rather than aborting the whole sweep.
void absorb_summary(const std::string& path, Rung& rung) {
  std::ifstream in(path);
  if (!in) {
    rung.clean_exit = false;
    return;
  }
  std::string line;
  bool found = false;
  const auto num = [](const JsonValue& v, const char* key) -> long long {
    const JsonValue* f = v.find(key);
    return (f != nullptr && f->is_number())
               ? static_cast<long long>(f->number)
               : 0;
  };
  while (std::getline(in, line)) {
    const std::optional<JsonValue> v = json_parse(line);
    if (!v || v->find("batch_jobs") == nullptr) continue;
    rung.jobs += num(*v, "batch_jobs");
    rung.ok += num(*v, "batch_completed");
    rung.failed += num(*v, "batch_failed");
    rung.cache_hits += num(*v, "cache_hits");
    rung.cache_misses += num(*v, "cache_misses");
    found = true;
  }
  if (!found) rung.clean_exit = false;
}

/// Runs one ladder rung: N shard processes over `cache_dir`, all
/// wall-clocked together (the fleet is done when its slowest shard is).
Rung run_rung(const Args& args, const std::string& phase, int procs,
              const fs::path& corpus, const fs::path& cache_dir,
              const fs::path& workdir) {
  Rung rung;
  rung.phase = phase;
  rung.procs = procs;
  fs::create_directories(cache_dir);
  std::vector<Shard> shards;
  const auto start = Clock::now();
  for (int i = 0; i < procs; ++i) {
    Shard shard;
    const std::string tag =
        phase + "_" + std::to_string(procs) + "_" + std::to_string(i);
    shard.metrics = (workdir / ("m_" + tag + ".jsonl")).string();
    shard.log = (workdir / ("log_" + tag + ".txt")).string();
    std::vector<std::string> cmd = {
        args.rmrls,
        "--batch", corpus.string(),
        "--shard", std::to_string(i) + "/" + std::to_string(procs),
        "--cache-dir", cache_dir.string(),
        "--cache-mb", std::to_string(args.cache_mb),
        "--max-nodes", std::to_string(args.max_nodes),
        "--threads", "1",
        "--metrics-out", shard.metrics,
    };
    if (args.cache_gc_mb > 0) {
      cmd.push_back("--cache-gc-mb");
      cmd.push_back(std::to_string(args.cache_gc_mb));
    }
    shard.pid = spawn(cmd, shard.log);
    shards.push_back(std::move(shard));
  }
  for (const Shard& shard : shards) {
    int status = 0;
    if (::waitpid(shard.pid, &status, 0) != shard.pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rung.clean_exit = false;
      std::cerr << "shard pid " << shard.pid << " (" << phase << " "
                << rung.procs << "p) failed; see " << shard.log << "\n";
    }
  }
  rung.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const Shard& shard : shards) absorb_summary(shard.metrics, rung);
  return rung;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);

  if (args.rmrls.empty()) {
    // The build tree puts this harness in build/bench and the CLI in
    // build/tools; derive the sibling path from argv[0].
    const fs::path self(argv[0]);
    args.rmrls =
        (self.parent_path() / ".." / "tools" / "rmrls").lexically_normal()
            .string();
  }
  std::error_code ec;
  if (!fs::exists(args.rmrls, ec)) {
    std::cerr << "error: rmrls binary not found at '" << args.rmrls
              << "' (pass --rmrls PATH)\n";
    return 2;
  }

  const bool keep_workdir = !args.workdir.empty();
  fs::path workdir;
  if (keep_workdir) {
    workdir = args.workdir;
  } else {
    workdir = fs::temp_directory_path() /
              ("rmrls_fleet_" + std::to_string(::getpid()));
  }
  fs::create_directories(workdir);

  // One corpus for the whole sweep; every rung shards the same file.
  suite::CorpusOptions copts;
  copts.size = args.size;
  copts.repeat_rate = args.repeat_rate;
  copts.min_vars = args.min_vars;
  copts.max_vars = args.max_vars;
  copts.seed = args.seed;
  const Result<std::vector<suite::CorpusEntry>> corpus_result =
      suite::generate_corpus(copts);
  if (!corpus_result.ok()) {
    std::cerr << "error: " << corpus_result.status().to_string() << "\n";
    return 2;
  }
  const fs::path corpus = workdir / "corpus.specs";
  {
    std::ofstream out(corpus);
    out << suite::write_corpus(corpus_result.value());
    if (!out.flush()) {
      std::cerr << "error: cannot write " << corpus << "\n";
      return 6;
    }
  }

  const unsigned num_cpus = std::thread::hardware_concurrency();
  std::vector<int> ladder;
  for (int n = 1; n <= args.max_procs; n *= 2) ladder.push_back(n);

  std::cout << "=== Fleet throughput: jobs/s vs shard processes ===\n"
            << args.size << " jobs, " << fixed(args.repeat_rate * 100, 0)
            << "% orbit repeats, widths " << args.min_vars << "-"
            << args.max_vars << ", " << num_cpus
            << " hardware thread(s)\n\n";

  // Warm pass (untimed): one full run fills the shared store so the
  // warm rungs measure pure disk-hit serving.
  const fs::path warm_dir = workdir / "cache_warm";
  const Rung warm_fill =
      run_rung(args, "fill", 1, corpus, warm_dir, workdir);
  if (!warm_fill.clean_exit) {
    std::cerr << "error: warm-fill pass failed\n";
    if (!keep_workdir) fs::remove_all(workdir, ec);
    return 6;
  }

  std::vector<Rung> rungs;
  for (const int n : ladder) {
    rungs.push_back(run_rung(args, "cold", n, corpus,
                             workdir / ("cache_cold_" + std::to_string(n)),
                             workdir));
  }
  for (const int n : ladder) {
    rungs.push_back(run_rung(args, "warm", n, corpus, warm_dir, workdir));
  }

  const auto rate = [](const Rung& r) {
    return r.wall_s > 0 ? static_cast<double>(r.ok) / r.wall_s : 0.0;
  };
  double cold_base = 0, warm_base = 0;
  for (const Rung& r : rungs) {
    if (r.procs != 1) continue;
    if (r.phase == "cold") cold_base = rate(r);
    if (r.phase == "warm") warm_base = rate(r);
  }

  TextTable table(
      {"Phase", "Procs", "Jobs ok", "Wall s", "Jobs/s", "Speedup"});
  bool all_clean = true;
  for (const Rung& r : rungs) {
    const double base = r.phase == "cold" ? cold_base : warm_base;
    table.add_row({r.phase, std::to_string(r.procs),
                   std::to_string(r.ok) + "/" + std::to_string(r.jobs),
                   fixed(r.wall_s, 3), fixed(rate(r), 1),
                   base > 0 ? fixed(rate(r) / base, 2) : "n/a"});
    all_clean = all_clean && r.clean_exit && r.failed == 0 &&
                r.jobs == args.size;
  }
  table.print(std::cout);
  std::cout << "\nshard union per rung: " << args.size
            << " jobs expected; every rung "
            << (all_clean ? "clean" : "UNCLEAN — see logs") << "\n";

  if (!args.json_out.empty()) {
    std::ostringstream runs;
    runs << "[";
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const Rung& r = rungs[i];
      JsonObject o;
      o.field("phase", r.phase)
          .field("procs", r.procs)
          .field("wall_s", r.wall_s)
          .field("jobs", static_cast<std::int64_t>(r.jobs))
          .field("ok", static_cast<std::int64_t>(r.ok))
          .field("failed", static_cast<std::int64_t>(r.failed))
          .field("jobs_per_s", rate(r))
          .field("cache_hits", static_cast<std::int64_t>(r.cache_hits))
          .field("cache_misses", static_cast<std::int64_t>(r.cache_misses))
          .field("clean", r.clean_exit);
      runs << (i ? "," : "") << o.str();
    }
    runs << "]";
    JsonObject doc;
    doc.field("schema", "rmrls-fleet-bench-v1")
        .field("corpus_size", args.size)
        .field("repeat_rate", args.repeat_rate)
        .field("min_vars", args.min_vars)
        .field("max_vars", args.max_vars)
        .field("seed", static_cast<std::uint64_t>(args.seed))
        .field("max_nodes", static_cast<std::uint64_t>(args.max_nodes))
        .field("num_cpus", static_cast<int>(num_cpus))
        .raw("runs", runs.str());
    std::ofstream out(args.json_out);
    out << doc.str() << "\n";
    if (!out.flush()) {
      std::cerr << "error: cannot write " << args.json_out << "\n";
      return 6;
    }
  }

  if (!keep_workdir) fs::remove_all(workdir, ec);
  return all_clean ? 0 : 1;
}
