/// \file trace.hpp
/// \brief Typed search-event tracing for the RMRLS engine.
///
/// The search loop (core/search.cpp) and the synthesize*() drivers emit
/// TraceEvent records into a TraceSink installed via
/// SynthesisOptions::trace_sink. The hot path pays exactly one inlined
/// pointer test per potential event when no sink is installed, and the two
/// high-frequency kinds (node expansion, child pruned) honour a sampling
/// interval so an attached sink can be kept cheap on large runs; see
/// docs/observability.md for the measured overhead.
///
/// Sinks provided here:
///   * NullTraceSink      — swallows everything (overhead baseline).
///   * JsonlTraceSink     — one JSON object per event, one event per line.
///   * ProgressTraceSink  — human-readable heartbeat for long runs.
///   * RecordingTraceSink — in-memory capture for tests.
///   * MultiTraceSink     — fan-out to several sinks (e.g. trace + progress).

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace rmrls {

/// What happened. Numbering is part of the JSONL schema (the `kind` string,
/// not the numeric value, is serialized — reorder freely).
enum class TraceEventKind : std::uint8_t {
  kRunBegin,         ///< one Search::run() started (each refinement reruns)
  kNodeExpanded,     ///< a queue entry was popped and expanded (sampled)
  kChildPruned,      ///< a candidate child was discarded (sampled; see reason)
  kSolutionFound,    ///< a new best solution was recorded
  kRestart,          ///< the Section IV-E restart heuristic fired
  kQueueDrop,        ///< a child was dropped because the queue is full
  kRefinementRound,  ///< synthesize() starts an iterative-refinement rerun
  kRunEnd,           ///< one Search::run() finished
};

/// Why a child was discarded (kChildPruned only).
enum class PruneReason : std::uint8_t {
  kNone,       ///< not a prune event
  kElim,       ///< failed the elim > 0 rule (outside the exemption budget)
  kDepth,      ///< at/beyond bestDepth - 1
  kMaxGates,   ///< at/beyond the max_gates cap
  kDuplicate,  ///< transposition-table hit
  kStale,      ///< popped entry obsolete under the current bestDepth
};

/// One search event. Plain data; which fields are meaningful depends on
/// `kind` (unused ones keep their defaults).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRunBegin;
  PruneReason prune_reason = PruneReason::kNone;
  std::uint64_t nodes_expanded = 0;  ///< running pop counter at emission
  std::uint64_t queue_size = 0;      ///< heap size at emission
  std::int32_t depth = 0;            ///< node/child depth in the search tree
  std::int32_t terms = 0;            ///< PPRM term count (expansion events)
  std::int32_t gates = -1;  ///< solution/refinement/run-end: best gate count
  double priority = 0.0;    ///< eq. (4) priority of the expanded entry
  std::uint64_t t_us = 0;   ///< microseconds since the run started
  std::uint64_t timestamp_ns = 0;  ///< steady_clock at emission (epoch-ns),
                                   ///< time-aligns events with heartbeats
  std::uint64_t trace_id = 0;      ///< correlation id (0 = none); see
                                   ///< SynthesisOptions::trace_id
};

[[nodiscard]] const char* to_string(TraceEventKind kind);
[[nodiscard]] const char* to_string(PruneReason reason);

/// Receiver interface. Implementations must tolerate events from nested
/// Search runs (synthesize() reruns share one sink). Not thread-safe;
/// one sink per run.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Discards every event. Exists so overhead of the *enabled* emission path
/// can be measured against the disabled (`trace_sink == nullptr`) path.
class NullTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent&) override {}
};

/// Serializes each event as one JSON object per line (JSONL). The schema
/// is documented in docs/observability.md and validated by tests/test_obs.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}
  void on_event(const TraceEvent& event) override;

  /// Renders one event the way the sink writes it (reused by tests).
  [[nodiscard]] static std::string to_json(const TraceEvent& event);

 private:
  std::ostream& out_;
};

/// Low-frequency human-readable progress lines (for --progress): a
/// heartbeat every `interval` expansions plus every solution, restart and
/// refinement round. Heartbeats carry the expansion rate since the last
/// print, and — when the process Telemetry registry is armed and a batch
/// run is publishing its gauges — batch jobs done/total.
class ProgressTraceSink final : public TraceSink {
 public:
  explicit ProgressTraceSink(std::ostream& out,
                             std::uint64_t interval = 10000)
      : out_(out), interval_(interval ? interval : 1) {}
  void on_event(const TraceEvent& event) override;

 private:
  std::ostream& out_;
  std::uint64_t interval_;
  std::uint64_t last_heartbeat_ = 0;
  std::uint64_t last_nodes_ = 0;  ///< rate window start (node count)
  std::uint64_t last_ns_ = 0;     ///< rate window start (timestamp_ns)
};

/// Captures events in memory; the test harness asserts event/counter
/// consistency against SynthesisStats.
class RecordingTraceSink final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events.push_back(event); }

  [[nodiscard]] std::uint64_t count(TraceEventKind kind) const;
  [[nodiscard]] std::uint64_t count(PruneReason reason) const;

  std::vector<TraceEvent> events;
};

/// Serializes concurrent emitters onto a single downstream sink. The batch
/// driver (core/batch.hpp) wraps the user's sink in one of these, so
/// existing sinks stay single-threaded; events from concurrent jobs
/// interleave in lock-acquisition order.
class SyncTraceSink final : public TraceSink {
 public:
  explicit SyncTraceSink(TraceSink* inner) : inner_(inner) {}
  void on_event(const TraceEvent& event) override {
    if (inner_ == nullptr) return;
    const std::lock_guard<std::mutex> lock(m_);
    inner_->on_event(event);
  }

 private:
  TraceSink* inner_;
  std::mutex m_;
};

/// Forwards every event to each registered sink, in order.
class MultiTraceSink final : public TraceSink {
 public:
  void add(TraceSink* sink) {
    if (sink) sinks_.push_back(sink);
  }
  void on_event(const TraceEvent& event) override {
    for (TraceSink* s : sinks_) s->on_event(event);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace rmrls
