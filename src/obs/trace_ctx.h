// Causal round tracing: deterministic trace/span identifiers attached to
// every per-participant round lifecycle, timestamped in *simulated* time.
//
// The asynchronous soft-sync protocol means a round's outcome is shaped
// by per-participant causal chains — dispatch -> transmit -> local train
// -> arrive (possibly rounds later, stale) -> screen -> aggregate — that
// the aggregate per-phase spans (FMS_SPAN, src/obs/profile.h) cannot rebuild.
// This module records that chain as structured lifecycle events:
//
//   * trace_id is a pure function of (run seed, dispatch round), so the
//     events of one round's cohort share a trace across their whole
//     lifetime, even when a stale update lands several rounds later;
//   * span_id is a pure function of (trace_id, participant, stage);
//   * timestamps are sim-time ticks derived from the transmission /
//     quorum model — never wall clock, so traces are bit-reproducible
//     and the `wall-clock` lint rule stays green.
//
// The exporter writes Chrome trace-event JSON (load it at ui.perfetto.dev
// or chrome://tracing): participants become tracks (tid), rounds become
// nested duration events, and every event's args carry the causal ids.
//
// Everything is inert until tracing_enabled() is set: every hook reads
// one relaxed atomic and returns, so the search hot path is unaffected
// and results are bit-identical on/off (pinned by test, like the
// profiler).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/thread_annotations.h"

namespace fms::obs {

namespace detail {
inline std::atomic<bool>& tracing_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

inline bool tracing_enabled() {
  return detail::tracing_flag().load(std::memory_order_relaxed);
}

inline void set_tracing_enabled(bool on) {
  detail::tracing_flag().store(on, std::memory_order_relaxed);
}

// Stages of the per-participant round lifecycle, in causal order.
enum class Stage {
  kDispatch = 0,   // server samples a mask and ships the sub-model
  kTransmit = 1,   // simulated download (dur = link latency)
  kLocalTrain = 2, // participant trains and emits its update
  kFault = 3,      // injected fault touched this update (detail = kind)
  kArrive = 4,     // update reached the server (value = staleness tau)
  kStale = 5,      // staleness draw / DC compensation applied
  kScreen = 6,     // update screening verdict (detail = violation)
  kAggregate = 7,  // folded into (or rejected by) the theta estimator
  kDrop = 8,       // update lost (offline, dead link, overflow, late)
  kQuorum = 9,     // round commit event (value = commit latency)
};

const char* stage_name(Stage s);

// Deterministic 64-bit ids (splitmix64 mixing; no RNG stream is touched).
std::uint64_t make_trace_id(std::uint64_t seed, int round);
std::uint64_t make_span_id(std::uint64_t trace_id, int participant,
                           Stage stage);

// One lifecycle occurrence. participant == -1 marks a server-wide event.
struct LifecycleEvent {
  int round = -1;        // round whose processing recorded the event
  int origin_round = -1; // dispatch round of the traced update (trace key)
  int participant = -1;
  Stage stage = Stage::kDispatch;
  double ts_s = 0.0;     // sim-time seconds since the start of the run
  double dur_s = 0.0;    // simulated duration; 0 = instant event
  double value = 0.0;    // numeric payload (latency s, tau, norm, ...)
  std::string detail;    // outcome tag ("ok", "rejected:grad_norm", ...)
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

class FlightRecorder;  // src/obs/flight.h

// Process-wide trace context, mirroring obs::Telemetry: free functions
// deep in the stack (transmission_latency, screen_update, the staleness
// draw) record lifecycle events without threading a handle through every
// signature. The context owns the sim clock: each round occupies the
// window [round_base, round_base + round duration) and the base advances
// by the committed round duration, so Perfetto renders rounds end to end.
class TraceContext {
 public:
  static TraceContext& instance();

  // Applies the tracing slice of a TelemetryConfig. `seed` keys every
  // trace id; `chrome_path` buffers events for export_chrome (empty =
  // don't buffer); `flight_capacity` > 0 attaches a FlightRecorder.
  void configure(bool enabled, std::uint64_t seed, std::string chrome_path,
                 int flight_capacity, std::string flight_dump_path);

  // Advances the sim clock past the finished round (called by
  // FederatedSearch::run_round; no-op while tracing is disabled).
  void end_round(double round_sim_duration_s);
  double round_base_s() const;

  // Records one event, tagged with Telemetry's current round. `offset_s`
  // is relative to the current round's base; `origin_round` keys the
  // trace id (-1 = the current round).
  // No-op while tracing is disabled, so call sites need no guard.
  void record(int participant, Stage stage, double offset_s, double dur_s,
              double value = 0.0, std::string_view detail = {},
              int origin_round = -1);

  // Chrome trace-event export of everything buffered so far. Called by
  // Telemetry::finish(); path comes from configure. No-op when no path
  // was configured or nothing was recorded.
  void export_chrome() const;
  std::string chrome_path() const;

  std::shared_ptr<FlightRecorder> flight() const;
  std::string flight_dump_path() const;
  // Dumps the flight recorder (if attached) with the given reason tag.
  void dump_flight(const std::string& reason) const;

  std::size_t num_events() const;
  std::vector<LifecycleEvent> events_snapshot() const;

  // Drops buffered events, resets the sim clock and detaches the flight
  // recorder. Tests and between independent runs only.
  void reset();

 private:
  TraceContext() = default;

  mutable fms::Mutex mu_;
  std::vector<LifecycleEvent> events_ FMS_GUARDED_BY(mu_);
  std::shared_ptr<FlightRecorder> flight_ FMS_GUARDED_BY(mu_);
  std::string chrome_path_ FMS_GUARDED_BY(mu_);
  std::string flight_dump_path_ FMS_GUARDED_BY(mu_);
  std::uint64_t seed_ FMS_GUARDED_BY(mu_) = 0;
  double base_s_ FMS_GUARDED_BY(mu_) = 0.0;
};

// Serializes lifecycle events as a Chrome trace-event JSON document
// (stable field order, sim-time microsecond ticks) — the unit the golden
// file test pins. Separate from TraceContext so tests can feed a
// hand-built event list.
std::string chrome_trace_json(const std::vector<LifecycleEvent>& events);

}  // namespace fms::obs
