#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/tfc.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "rev/quantum_cost.hpp"
#include "serve/executor.hpp"
#include "serve/frame.hpp"
#include "serve/signals.hpp"

namespace rmrls {

namespace {

using Clock = std::chrono::steady_clock;

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking_cloexec(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  ::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

/// One in-flight synthesis job. Shared between the poll loop (cancel on
/// disconnect / drain) and the worker running it (polls the token, flips
/// `done`); both sides are lock-free.
struct Job {
  std::uint64_t trace_id = 0;
  CancelToken token;
  std::atomic<bool> done{false};
};

/// One client connection. Poll-loop-private: only the poll loop reads or
/// writes a session, so no lock — workers hand results back through the
/// daemon-wide completion queue instead.
struct Session {
  std::uint64_t sid = 0;
  int fd = -1;
  FrameSplitter splitter;
  std::string outbuf;
  bool close_after_flush = false;  ///< condemned: flush pending bytes, close
  bool watching = false;           ///< subscribed to heartbeat records
  std::vector<std::shared_ptr<Job>> jobs;  ///< in-flight submissions
};

/// A finished job travelling from a worker back to the poll loop. The
/// frame and the metrics record are fully rendered on the worker so the
/// poll loop only does I/O.
struct Done {
  std::uint64_t sid = 0;
  std::shared_ptr<Job> job;
  std::string frame;
  std::string metrics_json;  ///< empty when the daemon writes no metrics
  bool ok = false;
  std::uint64_t elapsed_us = 0;
};

}  // namespace

struct ServeDaemon::Impl {
  const ServeOptions* opts = nullptr;

  int listen_fd = -1;
  std::string unlink_path;  ///< unix socket file to remove on shutdown
  int wake_r = -1;
  int wake_w = -1;

  std::unique_ptr<SynthCache> cache;

  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions;
  std::uint64_t next_sid = 1;
  std::uint64_t submit_seq = 0;

  std::mutex done_m;
  std::deque<Done> done;

  // Poll-loop-written counters; relaxed atomics so stats() is safe from
  // any thread (tests drive run() on a helper thread).
  std::atomic<std::uint64_t> c_connections{0};
  std::atomic<std::uint64_t> c_requests{0};
  std::atomic<std::uint64_t> c_malformed{0};
  std::atomic<std::uint64_t> c_submitted{0};
  std::atomic<std::uint64_t> c_shed{0};
  std::atomic<std::uint64_t> c_completed{0};
  std::atomic<std::uint64_t> c_failed{0};
  std::atomic<std::uint64_t> c_disc_cancelled{0};

  // Telemetry mirrors (docs/observability.md, `serve.*`); null when
  // telemetry is disarmed.
  Counter* t_connections = nullptr;
  Counter* t_requests = nullptr;
  Counter* t_malformed = nullptr;
  Counter* t_submitted = nullptr;
  Counter* t_shed = nullptr;
  Counter* t_completed = nullptr;
  Counter* t_failed = nullptr;
  Counter* t_disc_cancelled = nullptr;
  Gauge* g_sessions = nullptr;
  Gauge* g_queue_depth = nullptr;
  Gauge* g_inflight = nullptr;
  Gauge* g_draining = nullptr;
  Histogram* h_request_us = nullptr;

  std::ofstream metrics_file;
  bool metrics_open = false;

  bool draining = false;
  bool drain_cancelled = false;
  Clock::time_point drain_start{};
  Clock::time_point start_time{};
  Clock::time_point last_hb{};
  std::uint64_t hb_seq = 0;

  // Declared last: destroyed (and therefore joined) first, while every
  // member a worker task can still touch — done_m, done, wake_w — is
  // alive above it.
  std::unique_ptr<ServeExecutor> executor;

  ~Impl() {
    if (executor) executor->join();
    executor.reset();
    for (auto& [sid, s] : sessions) {
      if (s->fd >= 0) ::close(s->fd);
    }
    sessions.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (!unlink_path.empty()) ::unlink(unlink_path.c_str());
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
  }

  /// Thread-safe poll-loop wakeup (workers, begin_drain from any thread).
  void wake() const {
    if (wake_w < 0) return;
    const char b = 'w';
    const ssize_t rc = ::write(wake_w, &b, 1);
    (void)rc;
  }
};

namespace {

/// `record:"result"` frame: everything the CLI would have printed for the
/// same spec, plus the shared correlation id.
std::string result_frame(const std::string& id, std::uint64_t trace_id,
                         const CachedSynthesisOutcome& out, bool want_tfc,
                         std::uint64_t elapsed_us, int vars) {
  JsonObject o;
  o.field("schema", kServeSchemaV1);
  o.field("record", "result");
  if (!id.empty()) o.field("id", id);
  o.field("trace_id", trace_id_hex(trace_id));
  o.field("success", out.status.ok());
  o.field("status", std::string_view(to_string(out.status.code())));
  o.field("exit_code", exit_code_for(out.status.code()));
  if (!out.status.ok()) o.field("message", out.status.to_string());
  o.field("engine", std::string_view(to_string(out.engine)));
  o.field("verified", out.verified);
  o.field("cache_hit", out.cache_hit);
  o.field("orbit_hit", out.orbit_hit);
  o.field("deduped", out.deduped);
  o.field("termination",
          std::string_view(to_string(out.result.termination)));
  o.field("vars", vars);
  o.field("elapsed_us", elapsed_us);
  if (out.status.ok()) {
    o.field("gates", static_cast<std::int64_t>(out.result.circuit.gate_count()));
    o.field("quantum_cost",
            static_cast<std::int64_t>(quantum_cost(out.result.circuit)));
    if (want_tfc) o.field("tfc", write_tfc(out.result.circuit));
  } else {
    o.field("gates", -1);
    o.field("quantum_cost", -1);
  }
  return o.str();
}

/// Per-job rmrls-metrics-v1 record, same keys as a batch job record plus
/// `serve_status` (docs/observability.md).
std::string job_record(const std::string& name, int vars,
                       const CachedSynthesisOutcome& out,
                       std::uint64_t trace_id) {
  MetricsRegistry record;
  record.set("name", name).set("vars", vars).set("success", out.status.ok());
  record.set("trace_id", trace_id_hex(trace_id));
  record.add_stats(out.result.stats, out.result.termination);
  record.set("fallback_engine", std::string_view(to_string(out.engine)));
  record.set("verified", out.verified);
  record.set("cache_hit", out.cache_hit)
      .set("cache_orbit_hit", out.orbit_hit)
      .set("batch_deduped", out.deduped);
  record.set("serve_status", std::string_view(to_string(out.status.code())));
  if (out.status.ok()) {
    record.add_circuit(out.result.circuit);
  } else {
    record.set("gates", -1).set("quantum_cost", -1);
  }
  return record.to_json();
}

/// Record for a request that never ran: shed at admission (or while
/// draining). Carries the full required-key set with empty engine stats
/// so one validator covers healthy and shed streams alike.
std::string shed_record(const std::string& name, int vars) {
  MetricsRegistry record;
  record.set("name", name).set("vars", vars).set("success", false);
  record.add_stats(SynthesisStats{}, TerminationReason::kQueueExhausted);
  record.set("fallback_engine", std::string_view(to_string(FallbackEngine::kNone)));
  record.set("verified", false);
  record.set("serve_status",
             std::string_view(to_string(StatusCode::kUnavailable)));
  record.set("gates", -1).set("quantum_cost", -1);
  return record.to_json();
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {
  impl_->opts = &options_;
  SynthCacheOptions cache_options;
  cache_options.byte_budget = options_.cache_bytes;
  cache_options.dir = options_.cache_dir;
  impl_->cache = std::make_unique<SynthCache>(cache_options);
}

ServeDaemon::~ServeDaemon() = default;

Status ServeDaemon::start() {
  Impl& im = *impl_;
  if (im.listen_fd >= 0) {
    return Status(StatusCode::kInvalidArgument, "start() called twice");
  }
  if (options_.tcp_port < 0 || options_.tcp_port > 65535) {
    return Status(StatusCode::kInvalidArgument,
                  "tcp_port out of range [0, 65535]");
  }
  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
      return Status(StatusCode::kInvalidArgument,
                    "socket path exceeds sockaddr_un limit (" +
                        std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status(StatusCode::kInternal, errno_text("socket"));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);
    ::unlink(options_.socket_path.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status s(StatusCode::kInternal, errno_text("bind"));
      ::close(fd);
      return s;
    }
    if (::listen(fd, 64) != 0) {
      const Status s(StatusCode::kInternal, errno_text("listen"));
      ::close(fd);
      return s;
    }
    im.listen_fd = fd;
    im.unlink_path = options_.socket_path;
    bound_address_ = options_.socket_path;
  } else {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status(StatusCode::kInternal, errno_text("socket"));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a public bind
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status s(StatusCode::kInternal, errno_text("bind"));
      ::close(fd);
      return s;
    }
    if (::listen(fd, 64) != 0) {
      const Status s(StatusCode::kInternal, errno_text("listen"));
      ::close(fd);
      return s;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    im.listen_fd = fd;
    bound_address_ =
        "127.0.0.1:" + std::to_string(ntohs(bound.sin_port));
  }
  set_nonblocking_cloexec(im.listen_fd);

  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return Status(StatusCode::kInternal, errno_text("pipe"));
  }
  set_nonblocking_cloexec(fds[0]);
  set_nonblocking_cloexec(fds[1]);
  im.wake_r = fds[0];
  im.wake_w = fds[1];

  im.executor = std::make_unique<ServeExecutor>(options_.workers,
                                                options_.queue_cap);
  return Status();
}

void ServeDaemon::begin_drain() {
  drain_requested_.store(true, std::memory_order_release);
  impl_->wake();
}

ServeStats ServeDaemon::stats() const {
  const Impl& im = *impl_;
  ServeStats s;
  s.connections = im.c_connections.load(std::memory_order_relaxed);
  s.requests = im.c_requests.load(std::memory_order_relaxed);
  s.malformed = im.c_malformed.load(std::memory_order_relaxed);
  s.submitted = im.c_submitted.load(std::memory_order_relaxed);
  s.shed = im.c_shed.load(std::memory_order_relaxed);
  s.completed = im.c_completed.load(std::memory_order_relaxed);
  s.failed = im.c_failed.load(std::memory_order_relaxed);
  s.disconnect_cancelled = im.c_disc_cancelled.load(std::memory_order_relaxed);
  return s;
}

namespace {

void count(std::atomic<std::uint64_t>& c, Counter* mirror) {
  c.fetch_add(1, std::memory_order_relaxed);
  if (mirror != nullptr) mirror->inc();
}

}  // namespace

// ---------------------------------------------------------------------------
// The poll loop and its helpers. Everything below runs on the thread that
// called run() — the single writer for sessions and the metrics stream.

int ServeDaemon::run() {
  Impl& im = *impl_;
  if (im.listen_fd < 0) return exit_code_for(StatusCode::kInvalidArgument);

  if (!options_.metrics_path.empty()) {
    im.metrics_file.open(options_.metrics_path,
                         std::ios::out | std::ios::trunc);
    im.metrics_open = im.metrics_file.is_open();
  }
  const bool heartbeats = options_.heartbeat_interval.count() > 0;
  if (heartbeats) Telemetry::enable();
  if (Telemetry* t = Telemetry::active()) {
    im.t_connections = &t->counter("serve.connections");
    im.t_requests = &t->counter("serve.requests");
    im.t_malformed = &t->counter("serve.malformed");
    im.t_submitted = &t->counter("serve.submitted");
    im.t_shed = &t->counter("serve.shed");
    im.t_completed = &t->counter("serve.completed");
    im.t_failed = &t->counter("serve.failed");
    im.t_disc_cancelled = &t->counter("serve.disconnect_cancelled");
    im.g_sessions = &t->gauge("serve.sessions");
    im.g_queue_depth = &t->gauge("serve.queue_depth");
    im.g_inflight = &t->gauge("serve.inflight");
    im.g_draining = &t->gauge("serve.draining");
    im.h_request_us = &t->histogram("serve.request_us");
  }

  SignalBridge signals({SIGTERM, SIGINT, SIGHUP});
  im.start_time = Clock::now();
  im.last_hb = im.start_time;

  const auto enter_drain = [&] {
    if (im.draining) return;
    im.draining = true;
    im.drain_start = Clock::now();
    im.executor->close();
    if (im.listen_fd >= 0) {
      ::close(im.listen_fd);
      im.listen_fd = -1;
      if (!im.unlink_path.empty()) {
        ::unlink(im.unlink_path.c_str());
        im.unlink_path.clear();
      }
    }
    if (im.g_draining != nullptr) im.g_draining->set(1);
  };

  const auto send = [&](Session& s, std::string_view frame) {
    s.outbuf.append(frame);
    s.outbuf.push_back('\n');
  };

  // Opportunistic nonblocking flush; false means the socket died.
  const auto flush = [&](Session& s) -> bool {
    while (!s.outbuf.empty()) {
      // MSG_NOSIGNAL: a peer that vanished mid-write must surface as
      // EPIPE here, not SIGPIPE the whole daemon.
      const ssize_t n =
          ::send(s.fd, s.outbuf.data(), s.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        s.outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  };

  // Disconnect == cancel (docs/serving.md): every in-flight job of the
  // session is cancelled the moment its socket goes away.
  const auto disconnect = [&](std::uint64_t sid) {
    const auto it = im.sessions.find(sid);
    if (it == im.sessions.end()) return;
    Session& s = *it->second;
    for (const std::shared_ptr<Job>& job : s.jobs) {
      if (!job->done.load(std::memory_order_acquire)) {
        job->token.cancel(CancelReason::kUser);
        count(im.c_disc_cancelled, im.t_disc_cancelled);
      }
    }
    ::close(s.fd);
    im.sessions.erase(it);
  };

  const auto shed = [&](Session& s, const ServeRequest& req) {
    count(im.c_shed, im.t_shed);
    const Status status(StatusCode::kUnavailable,
                        im.draining ? "server is draining"
                                    : "admission queue is full");
    send(s, frame_error(req.id, status));
    if (im.metrics_open) {
      const std::string name =
          req.id.empty() ? "serve#shed" : req.id;
      im.metrics_file << shed_record(name, req.spec.num_vars()) << '\n';
    }
  };

  const auto submit = [&](Session& s, ServeRequest&& req) {
    if (im.draining) {
      shed(s, req);
      return;
    }
    auto job = std::make_shared<Job>();
    const std::uint64_t seq = im.submit_seq++;
    const std::string name =
        req.id.empty() ? ("serve#" + std::to_string(seq)) : req.id;
    job->trace_id = derive_trace_id(name, seq);
    const std::chrono::milliseconds deadline =
        req.time_ms > 0
            ? std::min(std::chrono::milliseconds(req.time_ms),
                       options_.max_deadline)
            : options_.default_deadline;
    Impl* imp = &im;
    const bool want_metrics = im.metrics_open;
    auto task = [imp, job, spec = req.spec, name, id = req.id,
                 want_tfc = req.want_tfc, want_metrics, deadline,
                 sid = s.sid]() {
      const auto t0 = Clock::now();
      ResilienceOptions r = imp->opts->resilience;
      r.deadline = deadline;
      r.use_watchdog = true;
      r.cancel_token = &job->token;
      r.search.trace_id = job->trace_id;
      const CachedSynthesisOutcome out = synthesize_cached(
          spec, imp->cache.get(), imp->opts->canonical, r);
      const auto elapsed_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count());
      job->done.store(true, std::memory_order_release);
      Done d;
      d.sid = sid;
      d.job = job;
      d.ok = out.status.ok();
      d.elapsed_us = elapsed_us;
      d.frame = result_frame(id, job->trace_id, out, want_tfc, elapsed_us,
                             spec.num_vars());
      if (want_metrics) {
        d.metrics_json = job_record(name, spec.num_vars(), out, job->trace_id);
      }
      {
        const std::lock_guard<std::mutex> lock(imp->done_m);
        imp->done.push_back(std::move(d));
      }
      imp->wake();
    };
    if (!im.executor->try_submit(std::move(task))) {
      shed(s, req);
      return;
    }
    s.jobs.push_back(job);
    count(im.c_submitted, im.t_submitted);
    if (Telemetry* t = Telemetry::active()) {
      t->add_active(trace_id_hex(job->trace_id));
    }
    send(s, frame_accepted(req.id, trace_id_hex(job->trace_id)));
  };

  const auto stats_frame = [&](const std::string& id) {
    JsonObject o;
    o.field("schema", kServeSchemaV1);
    o.field("record", "stats");
    if (!id.empty()) o.field("id", id);
    o.field("uptime_ms",
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - im.start_time)
                    .count()));
    o.field("connections", im.c_connections.load(std::memory_order_relaxed));
    o.field("requests", im.c_requests.load(std::memory_order_relaxed));
    o.field("malformed", im.c_malformed.load(std::memory_order_relaxed));
    o.field("submitted", im.c_submitted.load(std::memory_order_relaxed));
    o.field("shed", im.c_shed.load(std::memory_order_relaxed));
    o.field("completed", im.c_completed.load(std::memory_order_relaxed));
    o.field("failed", im.c_failed.load(std::memory_order_relaxed));
    o.field("disconnect_cancelled",
            im.c_disc_cancelled.load(std::memory_order_relaxed));
    o.field("sessions", static_cast<std::uint64_t>(im.sessions.size()));
    o.field("queue_depth",
            static_cast<std::uint64_t>(im.executor->queue_depth()));
    o.field("inflight", im.executor->inflight());
    o.field("draining", im.draining);
    o.field("cache_entries",
            static_cast<std::uint64_t>(im.cache->entry_count()));
    o.field("cache_bytes", static_cast<std::uint64_t>(im.cache->bytes_used()));
    return o.str();
  };

  const auto handle_frame = [&](Session& s, const std::string& line) {
    Result<ServeRequest> parsed = parse_request_checked(
        line, "session#" + std::to_string(s.sid));
    if (!parsed.ok()) {
      // A malformed frame costs the peer one error response, not the
      // session: a fat-fingered interactive client keeps its connection.
      // Best-effort id echo so the client can still correlate the
      // failure (a bad spec inside otherwise well-formed JSON keeps its
      // request id).
      std::string id;
      if (const std::optional<JsonValue> doc = json_parse(line)) {
        if (const JsonValue* v = doc->find("id")) {
          if (v->is_string()) id = v->string;
        }
      }
      count(im.c_malformed, im.t_malformed);
      send(s, frame_error(id, parsed.status()));
      return;
    }
    ServeRequest req = std::move(parsed).value();
    count(im.c_requests, im.t_requests);
    switch (req.op) {
      case ServeOp::kPing:
        send(s, frame_pong(req.id));
        break;
      case ServeOp::kStats:
        send(s, stats_frame(req.id));
        break;
      case ServeOp::kWatch: {
        s.watching = req.watch_enable;
        JsonObject o;
        o.field("schema", kServeSchemaV1);
        o.field("record", "watch");
        if (!req.id.empty()) o.field("id", req.id);
        o.field("enabled", s.watching);
        send(s, o.str());
        break;
      }
      case ServeOp::kShutdown:
        send(s, frame_shutdown(req.id, true));
        enter_drain();
        break;
      case ServeOp::kSubmit:
        submit(s, std::move(req));
        break;
    }
  };

  const auto emit_heartbeat = [&] {
    Telemetry* t = Telemetry::active();
    if (!heartbeats || t == nullptr) return;
    const auto uptime_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             im.start_time)
            .count());
    const std::string line =
        Snapshotter::heartbeat_json(t->snapshot(), im.hb_seq++, uptime_ns);
    if (im.metrics_open) im.metrics_file << line << '\n';
    for (auto& [sid, s] : im.sessions) {
      if (s->watching) send(*s, line);
    }
    im.last_hb = Clock::now();
  };

  // Completions: the only path that writes per-job records, so v1 lines
  // and heartbeats interleave on one stream without a lock.
  const auto drain_done = [&] {
    std::deque<Done> batch;
    {
      const std::lock_guard<std::mutex> lock(im.done_m);
      batch.swap(im.done);
    }
    for (Done& d : batch) {
      count(d.ok ? im.c_completed : im.c_failed,
            d.ok ? im.t_completed : im.t_failed);
      if (im.h_request_us != nullptr) im.h_request_us->record(d.elapsed_us);
      if (Telemetry* t = Telemetry::active()) {
        t->remove_active(trace_id_hex(d.job->trace_id));
      }
      if (im.metrics_open && !d.metrics_json.empty()) {
        im.metrics_file << d.metrics_json << '\n';
      }
      const auto it = im.sessions.find(d.sid);
      if (it == im.sessions.end()) continue;  // client left; work was cancelled
      Session& s = *it->second;
      send(s, d.frame);
      s.jobs.erase(std::remove(s.jobs.begin(), s.jobs.end(), d.job),
                   s.jobs.end());
    }
  };

  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_sid;  // parallel: 0 for non-session entries
  std::vector<std::uint64_t> to_close;

  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire)) enter_drain();
    if (im.draining && im.executor->idle()) {
      const std::lock_guard<std::mutex> lock(im.done_m);
      if (im.done.empty()) break;
    }

    pfds.clear();
    pfd_sid.clear();
    pfds.push_back({im.wake_r, POLLIN, 0});
    pfd_sid.push_back(0);
    if (signals.fd() >= 0) {
      pfds.push_back({signals.fd(), POLLIN, 0});
      pfd_sid.push_back(0);
    }
    const std::size_t listen_idx = pfds.size();
    if (im.listen_fd >= 0) {
      pfds.push_back({im.listen_fd, POLLIN, 0});
      pfd_sid.push_back(0);
    }
    for (auto& [sid, s] : im.sessions) {
      short events = POLLIN;
      if (!s->outbuf.empty()) events |= POLLOUT;
      pfds.push_back({s->fd, events, 0});
      pfd_sid.push_back(sid);
    }

    const int rc = ::poll(pfds.data(), pfds.size(),
                          static_cast<int>(options_.poll_interval.count()));
    if (rc < 0 && errno != EINTR) break;  // poll itself failed: bail out

    if (signals.fd() >= 0) {
      // pfds[1] is the bridge when present (see construction order above).
      const std::vector<int> fired = signals.drain();
      if (!fired.empty()) {
        if (!im.draining) {
          enter_drain();
        } else {
          // A second signal escalates: stop waiting for in-flight work.
          for (auto& [sid, s] : im.sessions) {
            for (const std::shared_ptr<Job>& job : s->jobs) {
              job->token.cancel(CancelReason::kUser);
            }
          }
          im.drain_cancelled = true;
        }
      }
    }
    {
      char buf[256];
      while (::read(im.wake_r, buf, sizeof(buf)) > 0) {
      }
    }

    drain_done();

    if (im.listen_fd >= 0 && listen_idx < pfds.size() &&
        (pfds[listen_idx].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(im.listen_fd, nullptr, nullptr);
        if (cfd < 0) break;  // EAGAIN/EMFILE/...: try again next round
        set_nonblocking_cloexec(cfd);
        auto s = std::make_unique<Session>();
        s->sid = im.next_sid++;
        s->fd = cfd;
        count(im.c_connections, im.t_connections);
        im.sessions.emplace(s->sid, std::move(s));
      }
    }

    to_close.clear();
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const std::uint64_t sid = pfd_sid[i];
      if (sid == 0) continue;
      const auto it = im.sessions.find(sid);
      if (it == im.sessions.end()) continue;
      Session& s = *it->second;
      const short re = pfds[i].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        to_close.push_back(sid);
        continue;
      }
      bool dead = false;
      if ((re & (POLLIN | POLLHUP)) != 0) {
        char buf[16384];
        for (;;) {
          const ssize_t n = ::read(s.fd, buf, sizeof(buf));
          if (n > 0) {
            s.splitter.feed(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) {
            dead = true;  // EOF: the client hung up
          } else if (errno == EINTR) {
            continue;
          }
          break;  // EAGAIN or EOF or error
        }
        while (std::optional<std::string> line = s.splitter.next()) {
          handle_frame(s, *line);
        }
        if (s.splitter.overflowed() && !s.close_after_flush) {
          count(im.c_malformed, im.t_malformed);
          send(s, frame_error(
                      "", Status(StatusCode::kParseError,
                                 "frame exceeds " +
                                     std::to_string(kMaxFrameBytes) +
                                     " bytes; closing connection")));
          s.close_after_flush = true;
        }
      }
      if (dead) {
        to_close.push_back(sid);
        continue;
      }
      if (!flush(s)) {
        to_close.push_back(sid);
        continue;
      }
      if (s.outbuf.size() > options_.max_output_bytes) {
        // Slow consumer: it cannot pin daemon memory (docs/serving.md).
        to_close.push_back(sid);
        continue;
      }
      if (s.close_after_flush && s.outbuf.empty()) to_close.push_back(sid);
    }
    for (const std::uint64_t sid : to_close) disconnect(sid);

    const auto now = Clock::now();
    if (heartbeats && now - im.last_hb >= options_.heartbeat_interval) {
      emit_heartbeat();
    }
    if (im.draining && !im.drain_cancelled &&
        now - im.drain_start >= options_.drain_deadline) {
      // Drain deadline: in-flight and queued jobs get a deadline-reason
      // cancel; the engines stop within one cooperative poll.
      for (auto& [sid, s] : im.sessions) {
        for (const std::shared_ptr<Job>& job : s->jobs) {
          job->token.cancel(CancelReason::kDeadline);
        }
      }
      im.drain_cancelled = true;
    }
    if (im.g_sessions != nullptr) {
      im.g_sessions->set(static_cast<std::int64_t>(im.sessions.size()));
      im.g_queue_depth->set(
          static_cast<std::int64_t>(im.executor->queue_depth()));
      im.g_inflight->set(im.executor->inflight());
      im.g_draining->set(im.draining ? 1 : 0);
    }
  }

  // Shutdown: workers are idle and the completion queue is drained, so
  // what remains is flushing — one final heartbeat (the run's cumulative
  // state, same flush-on-exit contract as the CLI Snapshotter), then the
  // session buffers, then the metrics stream.
  im.executor->join();
  drain_done();
  emit_heartbeat();
  for (auto& [sid, s] : im.sessions) {
    if (s->outbuf.empty()) continue;
    // Best-effort blocking flush with a 1s cap so a dead peer cannot
    // stall shutdown.
    const int fl = ::fcntl(s->fd, F_GETFL, 0);
    ::fcntl(s->fd, F_SETFL, fl & ~O_NONBLOCK);
    timeval tv{1, 0};
    ::setsockopt(s->fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    (void)!::send(s->fd, s->outbuf.data(), s->outbuf.size(), MSG_NOSIGNAL);
  }
  for (auto& [sid, s] : im.sessions) ::close(s->fd);
  im.sessions.clear();
  if (im.metrics_open) im.metrics_file.flush();
  return 0;
}

}  // namespace rmrls
