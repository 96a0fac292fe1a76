/// \file serve_mix.cpp
/// \brief `serve-mix`: an in-process rmrls-serve daemon driven over a unix
/// socket by a single-threaded open-loop generator.

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/synthesizer.hpp"
#include "io/spec.hpp"
#include "io/tfc.hpp"
#include "obs/json.hpp"
#include "rev/canonical.hpp"
#include "rev/random.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using rmrls::TruthTable;
using std::chrono::duration;

// The traced run drives the open loop: a fixed absolute rate with a small
// share of cold requests, spaced evenly (see make_inputs). The rate is low
// enough that nothing is shed: cold requests arrive at least 100 ms apart,
// so both workers are held by cold searches at once only while one of
// them outlasts that gap, and the 64-slot admission queue (the daemon's
// default) then takes 160 ms to fill; the slowest 3-variable searches
// take about 250 ms. The cold share puts the open loop's p99 inside the
// cold requests rather than on the boundary between them and the hits,
// where it would jump between the two populations.
constexpr double kRatePerS = 400.0;
constexpr double kColdShare = 0.02;
// The untraced run is a closed loop: kInFlight requests outstanding over
// the connections, in passes over a list of kClosedRequests, until the
// time is up. Open-loop latency on a 4-vCPU VM was dominated by how
// long the host takes to wake an idle CPU, and it varied by 30-75%
// between runs; under a closed loop the daemon's threads stay busy and
// the figures repeat. kInFlight stays below the 64-slot admission queue,
// so nothing is shed. Its cold requests are cold only in the first pass.
constexpr std::size_t kInFlight = 16;
constexpr std::size_t kClosedRequests = 8192;
constexpr int kWorkers = 2;
constexpr int kBases = 12;
constexpr int kSetupRepeats = 3;

/// A run is invalid when the generator sent any request later than this
/// after its due time: the offered load was then not the one defined.
constexpr double kMaxLateMs = 100.0;
/// How long the generator waits for replies after its last send.
constexpr double kDrainS = 30.0;
constexpr timespec kSpin{0, 0};
constexpr timespec kBlock{0, 50000000};

struct Request {
  TruthTable spec;
  std::string text;  ///< the submit frame
};

struct Inputs {
  std::vector<TruthTable> bases;
  std::vector<Request> requests;
};

std::string submit_frame(std::size_t id, const TruthTable& spec) {
  rmrls::JsonObject o;
  o.field("op", "submit");
  o.field("id", std::to_string(id));
  o.field("spec", rmrls::write_permutation_spec(spec));
  o.field("tfc", true);
  return o.str() + "\n";
}

/// Seed of the cold pool: a fixed population, like the bases. The daemon
/// synthesizes an orbit's canonical representative, so every run pays for
/// the same cold searches; the run's seed moves only when they arrive.
constexpr std::uint64_t kColdPoolSeed = 0xc01d5eed;

/// Requests are orbit members of the bases, except kColdShare of them:
/// 3-variable functions from orbits no base touches, each used once. The
/// seed picks every request's orbit member, each hit's base, and each
/// cold request's position.
Inputs make_inputs(std::uint64_t seed, std::size_t count) {
  Inputs in;
  std::set<std::uint64_t> seen;
  for (rmrls::suite::CorpusEntry& e :
       corpus_bases(rmrls::suite::CorpusFamily::kMixed, kBases, 3, 5)) {
    seen.insert(rmrls::canonicalize(e.spec).key);
    in.bases.push_back(std::move(e.spec));
  }
  if (in.bases.empty()) return in;
  const auto colds = static_cast<std::size_t>(
      std::lround(static_cast<double>(count) * kColdShare));
  std::vector<TruthTable> pool;
  std::mt19937_64 pool_rng(kColdPoolSeed);
  while (pool.size() < colds) {
    TruthTable f = rmrls::random_reversible_function(3, pool_rng);
    if (seen.insert(rmrls::canonicalize(f).key).second) {
      pool.push_back(std::move(f));
    }
  }
  // One cold request per stretch of count / colds requests, at a seeded
  // offset inside the stretch's first fifth, so consecutive cold requests
  // are at least 4/5 of a stretch apart.
  std::mt19937_64 rng(seed);
  std::vector<bool> cold(count, false);
  const std::size_t stretch = colds > 0 ? count / colds : count;
  for (std::size_t c = 0; c < colds; ++c) {
    cold[c * stretch + rng() % std::max<std::size_t>(1, stretch / 5)] = true;
  }
  std::size_t next_cold = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const TruthTable& f = cold[i] ? pool[next_cold++]
                                  : in.bases[rng() % in.bases.size()];
    in.requests.push_back({orbit_member(f, rng), ""});
  }
  return in;
}

/// Restricts the calling thread to `cpus`; threads it creates inherit
/// them. False when the host does not allow it.
bool pin_self(const cpu_set_t& cpus) {
  return ::pthread_setaffinity_np(::pthread_self(), sizeof(cpus), &cpus) == 0;
}

/// The CPUs the generator and the daemon run on. With 4 or more usable
/// CPUs the generator gets the first and the daemon the rest, so the
/// spinning generator never holds a CPU a daemon thread was woken on;
/// with fewer, nothing is pinned.
struct CpuSplit {
  cpu_set_t client{};
  cpu_set_t daemon{};
  bool split = false;

  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof(all), &all) != 0 ||
        CPU_COUNT(&all) < 4) {
      return;
    }
    int first = 0;
    while (!CPU_ISSET(first, &all)) ++first;
    CPU_ZERO(&client);
    CPU_SET(first, &client);
    daemon = all;
    CPU_CLR(first, &daemon);
    split = true;
  }
};

/// The daemon on its own thread; drained and joined on destruction.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path)
      : daemon_(options(socket_path)) {}
  ~Daemon() {
    if (thread_.joinable()) {
      daemon_.begin_drain();
      thread_.join();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts the daemon's threads on `cpus.daemon`, then moves the caller
  /// to `cpus.client`.
  [[nodiscard]] rmrls::Status start(const CpuSplit& cpus) {
    if (cpus.split) pin_self(cpus.daemon);
    rmrls::Status s = daemon_.start();
    if (s.ok()) thread_ = std::thread([this] { (void)daemon_.run(); });
    if (cpus.split) pin_self(cpus.client);
    return s;
  }

 private:
  static rmrls::ServeOptions options(const std::string& socket_path) {
    rmrls::ServeOptions o;
    o.socket_path = socket_path;
    o.workers = kWorkers;
    return o;
  }

  rmrls::ServeDaemon daemon_;
  std::thread thread_;
};

/// One client connection with a frame splitter.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  bool send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads what is available; false on EOF or error.
  bool read_some() {
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      splitter_.feed(buf, static_cast<std::size_t>(n));
      return true;
    }
    return n < 0 && (errno == EINTR || errno == EAGAIN);
  }

  std::optional<std::string> next_frame() { return splitter_.next(); }

 private:
  int fd_ = -1;
  rmrls::FrameSplitter splitter_;
};

/// What the generator observed for one request.
struct Sample {
  Clock::time_point due, sent, accepted, done;
  bool answered = false;
  bool ok = false;
  bool shed = false;
  bool cache_hit = false;
  bool orbit_hit = false;
  bool deduped = false;
  bool best_first = false;
  double elapsed_us = 0;
  int gates = 0;
  long long quantum_cost = 0;
  std::optional<rmrls::Circuit> circuit;
};

class Client {
 public:
  Client(Report& report, std::vector<std::unique_ptr<Connection>>& conns)
      : report_(report), conns_(conns) {}

  /// Sends requests[first, first + count) and collects every reply. With
  /// `rate` > 0 this is the open loop: request i is due at
  /// start + (i - first) / rate. With `rate` 0 it is a closed loop that
  /// keeps `window` requests outstanding, each due when it is sent.
  std::vector<Sample> drive(const std::vector<Request>& requests,
                            std::size_t first, std::size_t count, double rate,
                            std::size_t window = 0) {
    std::vector<Sample> samples(count);
    const auto start = Clock::now() + std::chrono::milliseconds(1);
    const auto due = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         duration<double>(rate > 0 ? i / rate : 0.0));
    };
    std::vector<pollfd> fds;
    for (const auto& c : conns_) fds.push_back(pollfd{c->fd(), POLLIN, 0});
    std::size_t next = 0;
    std::size_t outstanding = 0;
    if (rate > 0) window = count;
    const auto give_up =
        due(count) + std::chrono::duration_cast<Clock::duration>(
                         duration<double>(kDrainS));
    while (next < count || outstanding > 0) {
      if (Clock::now() > give_up) {
        report_.fail("serve: no reply within the drain timeout");
        break;
      }
      while (next < count && outstanding < window &&
             due(next) <= Clock::now()) {
        Sample& s = samples[next];
        const std::size_t id = first + next;
        s.sent = Clock::now();
        s.due = rate > 0 ? due(next) : s.sent;
        late_ms_max_ = std::max(
            late_ms_max_, duration<double, std::milli>(s.sent - s.due).count());
        if (!conns_[id % conns_.size()]->send(requests[id].text)) {
          report_.fail("serve: send failed");
          return samples;
        }
        ++next;
        ++outstanding;
      }
      // The open loop polls without sleeping between sends: waking a
      // halted CPU for each due time adds a scheduling delay of the host
      // to every request's latency. A closed loop blocks for replies.
      const int rc = ::ppoll(fds.data(), fds.size(),
                             rate > 0 ? &kSpin : &kBlock, nullptr);
      if (rc < 0 && errno != EINTR) {
        report_.fail("serve: poll failed");
        break;
      }
      if (rc <= 0) continue;
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!conns_[c]->read_some()) {
          report_.fail("serve: connection closed by the daemon");
          return samples;
        }
        while (std::optional<std::string> frame = conns_[c]->next_frame()) {
          outstanding -= handle(*frame, requests, first, samples);
        }
      }
    }
    return samples;
  }

  [[nodiscard]] double late_ms_max() const { return late_ms_max_; }

 private:
  /// Applies one reply frame; returns 1 when it resolved a request.
  std::size_t handle(const std::string& frame,
                     const std::vector<Request>& requests, std::size_t first,
                     std::vector<Sample>& samples) {
    const auto now = Clock::now();
    const std::optional<rmrls::JsonValue> v = rmrls::json_parse(frame);
    const rmrls::JsonValue* record = v ? v->find("record") : nullptr;
    const rmrls::JsonValue* idv = v ? v->find("id") : nullptr;
    if (record == nullptr || idv == nullptr || !idv->is_string()) return 0;
    const std::size_t id = std::stoul(idv->string);
    if (id < first || id >= first + samples.size()) return 0;
    Sample& s = samples[id - first];
    if (record->string == "accepted") {
      s.accepted = now;
      return 0;
    }
    if (record->string != "result" && record->string != "error") return 0;
    s.done = now;
    s.answered = true;
    if (s.accepted == Clock::time_point{}) s.accepted = now;
    const auto flag = [&](const char* key) {
      const rmrls::JsonValue* f = v->find(key);
      return f != nullptr && f->type == rmrls::JsonValue::Type::kBool &&
             f->boolean;
    };
    const auto number = [&](const char* key) {
      const rmrls::JsonValue* f = v->find(key);
      return f != nullptr && f->is_number() ? f->number : 0.0;
    };
    const rmrls::JsonValue* status = v->find("status");
    if (record->string == "error") {
      s.shed = status != nullptr && status->string == "unavailable";
      return 1;
    }
    s.cache_hit = flag("cache_hit");
    s.orbit_hit = flag("orbit_hit");
    s.deduped = flag("deduped");
    s.elapsed_us = number("elapsed_us");
    const rmrls::JsonValue* engine = v->find("engine");
    s.best_first = engine != nullptr && engine->string == "best_first";
    if (!flag("success")) return 1;
    // The reply's own claims are not trusted: its .tfc is parsed and
    // checked against the spec that was sent.
    const TruthTable& spec = requests[id].spec;
    const rmrls::JsonValue* tfc = v->find("tfc");
    std::optional<rmrls::Result<rmrls::Circuit>> circuit;
    if (tfc != nullptr && tfc->is_string()) {
      circuit.emplace(rmrls::read_tfc_checked(tfc->string));
    }
    if (!circuit || !circuit->ok() || !flag("verified") ||
        !rmrls::implements(circuit->value(), spec) ||
        circuit->value().gate_count() != static_cast<int>(number("gates"))) {
      report_.fail("serve: request " + std::to_string(id) +
                   " returned a circuit that does not implement its spec");
      return 1;
    }
    s.ok = true;
    s.gates = circuit->value().gate_count();
    s.quantum_cost = static_cast<long long>(number("quantum_cost"));
    s.circuit = std::move(circuit->value());
    return 1;
  }

  Report& report_;
  std::vector<std::unique_ptr<Connection>>& conns_;
  double late_ms_max_ = 0;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return duration<double, std::milli>(b - a).count();
}

/// Latency from the due time; a request without a verified circuit waited
/// until the end of its phase (it misses any latency limit).
std::vector<double> latencies_ms(const std::vector<Sample>& samples) {
  Clock::time_point end{};
  for (const Sample& s : samples) end = std::max(end, s.done);
  std::vector<double> out;
  for (const Sample& s : samples) {
    out.push_back(ms_between(s.due, s.ok ? s.done : end));
  }
  return out;
}

struct Served {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;
};

/// Starts a daemon, connects, and warms its cache with the bases.
bool start_and_warm(Served& served, const std::string& socket_path,
                    int connections, const Inputs& inputs, Report& report) {
  static const CpuSplit cpus;
  served.conns.clear();
  served.daemon.reset();
  served.daemon = std::make_unique<Daemon>(socket_path);
  const rmrls::Status s = served.daemon->start(cpus);
  if (!s.ok()) {
    report.fail("serve: daemon failed to start: " + s.to_string());
    return false;
  }
  for (int c = 0; c < connections; ++c) {
    served.conns.push_back(std::make_unique<Connection>(socket_path));
    if (served.conns.back()->fd() < 0) {
      report.fail("serve: cannot connect to " + socket_path);
      return false;
    }
  }
  std::vector<Request> warm;
  for (const TruthTable& base : inputs.bases) {
    warm.push_back({base, submit_frame(warm.size(), base)});
  }
  Client client(report, served.conns);
  for (const Sample& sample :
       client.drive(warm, 0, warm.size(), 0.0, kInFlight)) {
    if (!sample.ok) report.fail("serve: warm-up request failed");
  }
  return report.correct();
}

}  // namespace

Report run_serve_mix(const RunConfig& config) {
  Report report(config.trace);
  const int connections = std::max(1, std::min(4, config.threads));
  const std::size_t count =
      config.trace ? static_cast<std::size_t>(kRatePerS * config.seconds)
                   : kClosedRequests;
  const std::string socket_path =
      config.workdir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: generate the inputs, start a daemon and warm it; repeated,
  // keeping the last daemon.
  Inputs inputs;
  Served served;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats && report.correct(); ++i) {
    const auto t0 = Clock::now();
    inputs = make_inputs(config.seed, count);
    for (std::size_t r = 0; r < inputs.requests.size(); ++r) {
      inputs.requests[r].text = submit_frame(r, inputs.requests[r].spec);
    }
    if (inputs.bases.empty()) report.fail("serve: no base specs generated");
    start_and_warm(served, socket_path, connections, inputs, report);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  if (!report.correct()) return report;
  Client client(report, served.conns);

  if (!config.trace) {
    std::vector<double> lat;
    std::vector<double> pass_p99;
    double wall_s = 0;
    double gates = 0;
    double cost = 0;
    std::size_t ok = 0;
    for (bool first_pass = true; first_pass || wall_s < config.seconds;
         first_pass = false) {
      const auto t0 = Clock::now();
      const std::vector<Sample> pass =
          client.drive(inputs.requests, 0, count, 0.0, kInFlight);
      wall_s += seconds_between(t0, Clock::now());
      const std::vector<double> pass_lat = latencies_ms(pass);
      lat.insert(lat.end(), pass_lat.begin(), pass_lat.end());
      pass_p99.push_back(percentile(pass_lat, 0.99));
      for (const Sample& s : pass) {
        ok += s.ok;
        if (first_pass) {
          gates += s.gates;
          cost += static_cast<double>(s.quantum_cost);
        }
      }
      if (!report.correct()) break;
    }
    served.conns.clear();
    served.daemon.reset();
    report.attempted = lat.size();
    report.failed = report.attempted - ok;
    report.set("setup_s", median(setup_times));
    report.set("ops_per_s", static_cast<double>(ok) / wall_s);
    report.set("latency_p50_ms", percentile(lat, 0.50));
    // The median over passes of each pass's p99 (82 samples beyond it): a
    // stall of the host moves the passes it hits, not the run's figure.
    report.set("latency_p99_ms", median(pass_p99));
    report.set("gates_total", gates);
    report.set("quantum_cost_total", cost);
    report.set("ok_ratio",
               static_cast<double>(ok) / static_cast<double>(report.attempted));
    report.set("peak_rss_mb", peak_rss_mb());
    return report;
  }

  // Traced run: the open loop, its first half untraced and its second half
  // traced; the ratio of their median latencies is the tracing overhead.
  const std::size_t plain = count / 2;
  const std::vector<Sample> a =
      client.drive(inputs.requests, 0, plain, kRatePerS);
  const std::vector<Sample> b =
      client.drive(inputs.requests, plain, count - plain, kRatePerS);
  served.conns.clear();
  served.daemon.reset();
  if (client.late_ms_max() > kMaxLateMs) {
    report.fail("serve: the generator fell behind its schedule by " +
                std::to_string(client.late_ms_max()) + " ms");
  }
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const std::vector<Sample>* phase : {&a, &b}) {
    for (const Sample& s : *phase) {
      ok += s.ok;
      shed += s.shed;
    }
  }
  report.attempted = count;
  report.failed = count - ok;

  // Client-side spans of the traced half: the request from its due time,
  // split at the `accepted` frame into admission and completion, then the
  // io calls the daemon makes per request, replayed on the same data.
  SpanLog log(true);
  std::vector<double> admit_us;
  std::vector<double> complete_ms;
  std::vector<double> cold_ms;
  std::size_t results = 0, hits = 0, orbit = 0, dedup = 0, fallback = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const Sample& s = b[i];
    if (!s.answered) continue;
    const std::uint64_t request = plain + i;
    const int root = log.add("bench", "request", request, -1, s.due, s.done);
    log.add("serve", "admit", request, root, s.sent, s.accepted);
    log.add("serve", "complete", request, root, s.accepted, s.done);
    admit_us.push_back(ms_between(s.sent, s.accepted) * 1e3);
    complete_ms.push_back(ms_between(s.accepted, s.done));
    if (!s.ok) continue;
    ++results;
    hits += s.cache_hit;
    orbit += s.orbit_hit;
    dedup += s.deduped;
    if (!s.cache_hit && !s.deduped) {
      cold_ms.push_back(s.elapsed_us / 1e3);
      fallback += !s.best_first;
    }
    if (!io_round_trip(log, request, root, inputs.requests[request].spec,
                       *s.circuit)) {
      report.fail("serve: io round trip disagrees with the spec");
    }
  }
  const SpanSummary summary = summarize({&log});
  std::vector<double> open_lat = latencies_ms(a);
  const std::vector<double> lat_b = latencies_ms(b);
  open_lat.insert(open_lat.end(), lat_b.begin(), lat_b.end());
  report.set("serve.open_loop_p50_ms", percentile(open_lat, 0.50));
  report.set("serve.open_loop_p99_ms", percentile(open_lat, 0.99));
  report.set("serve.admit_us_p50", percentile(admit_us, 0.50));
  report.set("serve.admit_us_p99", percentile(admit_us, 0.99));
  report.set("serve.complete_ms_p50", percentile(complete_ms, 0.50));
  report.set("serve.complete_ms_p99", percentile(complete_ms, 0.99));
  report.set("serve.shed_ratio",
             static_cast<double>(shed) / static_cast<double>(count));
  report.set("serve.gen_late_ms_max", client.late_ms_max());
  if (results > 0) {
    const auto n = static_cast<double>(results);
    report.set("core.cache.hit_ratio", static_cast<double>(hits) / n);
    report.set("core.cache.orbit_hit_ratio", static_cast<double>(orbit) / n);
  }
  report.set("core.cache.dedup_waits", static_cast<double>(dedup));
  if (!cold_ms.empty()) {
    report.set("core.search.call_ms_p50", percentile(cold_ms, 0.50));
    report.set("core.search.call_ms_p99", percentile(cold_ms, 0.99));
    report.set("core.search.fallback_ratio",
               static_cast<double>(fallback) /
                   static_cast<double>(cold_ms.size()));
  }
  report.set("trace.overhead_ratio",
             percentile(lat_b, 0.5) / percentile(latencies_ms(a), 0.5));
  report_spans(report, summary, b.size());
  if (!config.spans_path.empty() && !write_spans(config.spans_path, {&log})) {
    report.fail("cannot write spans to " + config.spans_path);
  }
  return report;
}

}  // namespace perfbench
