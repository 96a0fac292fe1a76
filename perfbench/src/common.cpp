#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <utility>

#include "core/synthesizer.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "rev/canonical.hpp"

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"gates_total", "count"},
    {"quantum_cost_total", "count"},
    {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// The program layers, named after the modules; spans carry these names.
constexpr const char* kLayers[] = {
    "io",          "rev.canonical", "rev.equivalence", "core.search",
    "core.cache",  "core.batch",    "serve",
};

// Must match "per_layer" in BENCHMARK.json (the self-time metrics of
// kLayers are appended after these).
constexpr MetricDecl kPerLayer[] = {
    {"core.search.call_ms_p50", "ms"},
    {"core.search.call_ms_p99", "ms"},
    {"core.search.unphased_share", "ratio"},
    {"core.search.factor_enum_share", "ratio"},
    {"core.search.substitute_share", "ratio"},
    {"core.search.heap_ops_share", "ratio"},
    {"core.search.pprm_transform_share", "ratio"},
    {"core.search.template_simplify_share", "ratio"},
    {"core.search.nodes_expanded", "count"},
    {"core.search.nodes_per_s", "1/s"},
    {"core.search.dup_ratio", "ratio"},
    {"core.search.after_best_ratio", "ratio"},
    {"core.search.fallback_ratio", "ratio"},
    {"rev.canonical.canonicalize_us_p50", "us"},
    {"rev.canonical.canonicalize_us_p99", "us"},
    {"rev.canonical.reconstruct_us_p50", "us"},
    {"rev.equivalence.verify_us_p50", "us"},
    {"rev.equivalence.verify_us_p99", "us"},
    {"core.cache.lookup_us_p50", "us"},
    {"core.cache.hit_ratio", "ratio"},
    {"core.cache.orbit_hit_ratio", "ratio"},
    {"core.cache.dedup_waits", "count"},
    {"core.cache.evictions", "count"},
    {"core.batch.job_us_p50", "us"},
    {"core.batch.job_us_p99", "us"},
    {"core.batch.utilization", "ratio"},
    {"serve.open_loop_p50_ms", "ms"},
    {"serve.open_loop_p99_ms", "ms"},
    {"serve.admit_us_p50", "us"},
    {"serve.admit_us_p99", "us"},
    {"serve.complete_ms_p50", "ms"},
    {"serve.complete_ms_p99", "ms"},
    {"serve.shed_ratio", "ratio"},
    {"serve.gen_late_ms_max", "ms"},
    {"io.parse_us_p50", "us"},
    {"io.render_us_p50", "us"},
    {"io.tfc_read_us_p50", "us"},
    {"trace.overhead_ratio", "ratio"},
};

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::string render_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

Report::Report(bool trace) {
  if (trace) {
    for (const MetricDecl& m : kPerLayer) metrics_.push_back({m.name, m.unit});
    for (const char* layer : kLayers) {
      metrics_.push_back({std::string(layer) + ".self_us_per_op", "us"});
    }
  } else {
    for (const MetricDecl& m : kEndToEnd) metrics_.push_back({m.name, m.unit});
  }
}

void Report::set(const std::string& name, double value) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  std::cerr << "perfbench: internal error: undeclared metric " << name
            << "\n";
  std::abort();
}

void Report::fail(const std::string& why) {
  // Keep the first few messages; the count is what matters past that.
  if (errors_.size() < 20) errors_.push_back(why);
  if (errors_.size() == 20) errors_.push_back("(further failures omitted)");
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : metrics_) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    out += "\"" + e.name + "\": {\"value\": " + render_number(v) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}";
  if (!errors_.empty()) {
    out += ", \"errors\": [";
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + escape(errors_[i]) + "\"";
    }
    out += "]";
  }
  out += "}";
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double rounded_percentile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double target = q * static_cast<double>(values.size());
  const auto first = std::lower_bound(
      values.begin(), values.end(),
      values[std::min(values.size() - 1,
                      static_cast<std::size_t>(std::floor(target)))]);
  const std::int64_t v = *first;
  const auto below = static_cast<double>(first - values.begin());
  const auto count = static_cast<double>(
      std::upper_bound(values.begin(), values.end(), v) - first);
  return static_cast<double>(v) - 0.5 + (target - below) / count;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int SpanLog::open(const char* layer, const char* name, std::uint64_t request,
                  int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{layer, name, to_ns(Clock::now()), 0,
                        static_cast<std::int32_t>(parent), request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = to_ns(Clock::now());
}

int SpanLog::add(const char* layer, const char* name, std::uint64_t request,
                 int parent, Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  spans_.push_back(Span{layer, name, to_ns(start), to_ns(end),
                        static_cast<std::int32_t>(parent), request});
  return static_cast<int>(spans_.size() - 1);
}

double SpanSummary::p(const std::string& call, double q) const {
  const auto it = call_us.find(call);
  return it == call_us.end() ? 0.0 : percentile(it->second, q);
}

SpanSummary summarize(const std::vector<const SpanLog*>& logs) {
  SpanSummary out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      out.call_us[std::string(s.layer) + ":" + s.name].push_back(dur / 1e3);
      out.self_us[s.layer] += (dur - child_ns[i]) / 1e3;
    }
  }
  return out;
}

void report_spans(Report& report, const SpanSummary& summary,
                  std::uint64_t ops) {
  report.set("io.parse_us_p50", summary.p("io:parse", 0.50));
  report.set("io.render_us_p50", summary.p("io:render", 0.50));
  report.set("io.tfc_read_us_p50", summary.p("io:tfc_read", 0.50));
  if (ops == 0) return;
  for (const char* layer : kLayers) {
    const auto it = summary.self_us.find(layer);
    if (it == summary.self_us.end()) continue;
    report.set(std::string(layer) + ".self_us_per_op",
               it->second / static_cast<double>(ops));
  }
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      out << "{\"layer\": \"" << s.layer << "\", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"thread\": " << t << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

std::vector<rmrls::suite::CorpusEntry> corpus_bases(
    rmrls::suite::CorpusFamily family, int count, int min_vars,
    int max_vars) {
  rmrls::suite::CorpusOptions options;
  options.family = family;
  options.size = count;
  options.repeat_rate = 0.0;
  options.min_vars = min_vars;
  options.max_vars = max_vars;
  auto corpus = rmrls::suite::generate_corpus(options);
  if (!corpus.ok()) return {};
  return std::move(corpus).value();
}

rmrls::TruthTable orbit_member(const rmrls::TruthTable& f,
                               std::mt19937_64& rng) {
  std::vector<int> sigma(static_cast<std::size_t>(f.num_vars()));
  std::iota(sigma.begin(), sigma.end(), 0);
  std::shuffle(sigma.begin(), sigma.end(), rng);
  rmrls::TruthTable member = rmrls::conjugate(f, sigma);
  if ((rng() & 1u) != 0) member = member.inverse();
  return member;
}

bool io_round_trip(SpanLog& log, std::uint64_t request, int parent,
                   const rmrls::TruthTable& spec,
                   const rmrls::Circuit& circuit) {
  const std::string text = rmrls::write_permutation_spec(spec);
  bool ok = true;
  {
    ScopedSpan span(log, "io", "parse", request, parent);
    rmrls::Result<rmrls::TruthTable> parsed =
        rmrls::parse_permutation_spec_checked(text);
    ok = parsed.ok() && parsed.value() == spec;
  }
  std::string tfc;
  {
    ScopedSpan span(log, "io", "render", request, parent);
    tfc = rmrls::write_tfc(circuit);
  }
  std::optional<rmrls::Result<rmrls::Circuit>> back;
  {
    ScopedSpan span(log, "io", "tfc_read", request, parent);
    back.emplace(rmrls::read_tfc_checked(tfc));
  }
  return ok && back->ok() && rmrls::implements(back->value(), spec);
}

}  // namespace perfbench
