/// \file server.hpp
/// \brief The rmrls-serve daemon: long-lived synthesis over a socket
/// (docs/serving.md).
///
/// One process, one warm SynthCache, one poll(2) loop, one bounded worker
/// pool. Clients connect over a unix-domain socket (or loopback TCP),
/// speak newline-delimited JSON (serve/frame.hpp), and get their circuits
/// back without paying process startup or a cold cache per request.
///
/// Robustness posture (the reason this subsystem exists):
///   * Bounded admission — the executor's queue has a hard cap; a full
///     queue sheds the request immediately with StatusCode::kUnavailable
///     (exit code 7 on the client) instead of queueing unboundedly.
///   * Per-request deadlines — every submit gets a CancelToken and a
///     Watchdog-backed deadline (min(request time_ms, max_deadline),
///     defaulting to default_deadline), so one pathological spec cannot
///     wedge a worker.
///   * Disconnect == cancel — the poll loop cancels a session's in-flight
///     jobs the moment its socket reads EOF (within one poll interval),
///     so abandoned work stops consuming workers.
///   * Graceful drain — SIGTERM/SIGHUP/SIGINT (serve/signals.hpp) or a
///     shutdown frame stops accepting, sheds new submits, lets admitted
///     work finish, force-cancels whatever is still running when
///     drain_deadline passes, then flushes one final heartbeat.
///   * Single-writer I/O — only the poll loop touches sockets and the
///     metrics stream; workers hand finished frames back over a queue and
///     a self-pipe wakeup, so per-job rmrls-metrics-v1 records and
///     rmrls-metrics-v2 heartbeats interleave without a lock on the file.
///
/// Every job routes through core/batch.hpp's synthesize_cached — the
/// exact per-request core of the batch driver — so the daemon inherits
/// the canonical-orbit cache, single-flight dedup, fallback cascade, and
/// the re-verify-every-hit guarantee unchanged.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/batch.hpp"
#include "core/resilient.hpp"
#include "core/status.hpp"
#include "core/synth_cache.hpp"
#include "rev/canonical.hpp"

namespace rmrls {

struct ServeOptions {
  /// Unix-domain socket path (preferred: filesystem permissions apply).
  /// When empty, tcp_port is used instead.
  std::string socket_path;
  /// Loopback TCP port; 0 picks an ephemeral port (see bound_address()).
  /// Only consulted when socket_path is empty. Binds 127.0.0.1 only.
  int tcp_port = 0;

  int workers = 2;          ///< executor threads (minimum 1)
  std::size_t queue_cap = 64;  ///< admission queue bound (load shed past it)

  std::chrono::milliseconds default_deadline{2000};  ///< when time_ms absent
  std::chrono::milliseconds max_deadline{30000};     ///< clamp on time_ms
  std::chrono::milliseconds drain_deadline{5000};    ///< graceful-drain budget
  std::chrono::milliseconds heartbeat_interval{0};   ///< 0 = no heartbeats
  std::chrono::milliseconds poll_interval{50};       ///< poll(2) timeout

  /// Per-session output buffer cap; a consumer slower than this is
  /// disconnected rather than allowed to pin daemon memory.
  std::size_t max_output_bytes = std::size_t{8} << 20;

  std::size_t cache_bytes = std::size_t{64} << 20;  ///< warm SynthCache budget
  std::string cache_dir;                            ///< optional on-disk store

  CanonicalOptions canonical;
  /// Per-request cascade base. deadline / cancel_token / search.trace_id
  /// are overridden per job.
  ResilienceOptions resilience;

  /// JSONL sink for per-job rmrls-metrics-v1 records and heartbeats;
  /// empty = no metrics file.
  std::string metrics_path;
};

/// Daemon counters, all written by the poll loop (reads are snapshots).
struct ServeStats {
  std::uint64_t connections = 0;  ///< sessions accepted
  std::uint64_t requests = 0;     ///< well-formed frames handled
  std::uint64_t malformed = 0;    ///< frames rejected by the parser
  std::uint64_t submitted = 0;    ///< jobs admitted to the executor
  std::uint64_t shed = 0;         ///< submits refused with kUnavailable
  std::uint64_t completed = 0;    ///< jobs finished with a verified circuit
  std::uint64_t failed = 0;       ///< jobs finished without one
  std::uint64_t disconnect_cancelled = 0;  ///< jobs cancelled by client EOF
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds and listens. kInvalidArgument for a hopeless address (path too
  /// long for sockaddr_un, no port and no path), kInternal for syscall
  /// failures (message carries errno text).
  [[nodiscard]] Status start();

  /// The serving loop; returns the process exit code (0 after a clean
  /// drain). Call after start(); installs SIGTERM/SIGINT/SIGHUP handlers
  /// for the duration.
  [[nodiscard]] int run();

  /// Begins graceful drain: stop accepting, shed new submits, finish (or
  /// cancel at drain_deadline) in-flight jobs, flush, exit run(). Safe
  /// from any thread and from within run()'s callbacks; idempotent.
  void begin_drain();

  /// Where the daemon actually listens — the socket path, or
  /// "127.0.0.1:<port>" with the kernel-assigned port for tcp_port 0.
  /// Valid after start().
  [[nodiscard]] const std::string& bound_address() const {
    return bound_address_;
  }

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Impl;
  ServeOptions options_;
  std::string bound_address_;
  std::atomic<bool> drain_requested_{false};
  std::unique_ptr<Impl> impl_;
};

}  // namespace rmrls
