// Process-wide telemetry context: the metrics registry plus the active
// trace sinks, with the current-round tag that spans and the causal
// trace context (src/obs/trace_ctx.h) stamp onto their events.
//
// A single global context (rather than one per FederatedSearch) lets
// free functions deep in the stack — assign_models, the delay-compensation
// kernels, participant train steps — record spans without threading a
// handle through every call signature, mirroring how production metrics
// libraries work. Everything is inert until telemetry_enabled() is set,
// either directly or via configure(SearchConfig::telemetry).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"

namespace fms::obs {

class Telemetry {
 public:
  static Telemetry& instance();

  MetricsRegistry& registry() { return registry_; }

  void add_sink(std::shared_ptr<TraceSink> sink);
  void clear_sinks();
  std::size_t num_sinks() const;

  // Fans the event out to every sink; no-op while telemetry is disabled.
  // Stamps the current run label onto events that carry none. Inside an
  // EventCapture the event is buffered instead.
  void emit(TraceEvent event);
  void flush();

  // Round tag for span, profile and lifecycle events (set by
  // FederatedSearch::run_round).
  void set_round(int round) { round_.store(round, std::memory_order_relaxed); }
  int round() const { return round_.load(std::memory_order_relaxed); }

  // Run/variant label stamped onto emitted events (benches comparing
  // several configurations into one trace file).
  void set_label(std::string label);

  // Applies a TelemetryConfig: toggles the global enable flag and replaces
  // the sink set. The metrics CSV path is remembered and written by
  // finish(). `seed` keys the deterministic trace ids of the causal trace
  // context (src/obs/trace_ctx) when tracing is configured.
  void configure(const TelemetryConfig& cfg, std::uint64_t seed = 0);

  // Flushes sinks, writes the metrics CSV snapshot when configured,
  // exports the Chrome trace when configured, and hands each sink a final
  // registry snapshot (ConsoleRoundSink prints its quantile table here).
  void finish();

 private:
  Telemetry() = default;

  MetricsRegistry registry_;  // self-locking
  mutable fms::Mutex mu_;
  std::vector<std::shared_ptr<TraceSink>> sinks_ FMS_GUARDED_BY(mu_);
  std::string label_ FMS_GUARDED_BY(mu_);
  std::string metrics_csv_path_ FMS_GUARDED_BY(mu_);
  std::atomic<int> round_{-1};
};

// RAII: while alive, the trace events this thread emits are appended to
// `into` instead of reaching the sinks. A parallel phase captures each
// participant's span events and re-emits them in participant order after
// the join, so trace files do not depend on thread scheduling.
class EventCapture {
 public:
  explicit EventCapture(std::vector<TraceEvent>& into);
  ~EventCapture();

  EventCapture(const EventCapture&) = delete;
  EventCapture& operator=(const EventCapture&) = delete;

 private:
  std::vector<TraceEvent>* prev_;
};

}  // namespace fms::obs
