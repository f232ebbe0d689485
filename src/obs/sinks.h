// Structured telemetry sinks.
//
// Producers (spans, the search loop, benches) describe what happened as a
// TraceEvent; sinks decide where it goes. Two structured formats:
//   * JSONL — one self-contained JSON object per line, one line per event,
//     for offline analysis of round/phase timing traces;
//   * console — the per-round progress one-liner the examples print.
// Metrics snapshots go to CSV via MetricsRegistry::write_csv.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"

namespace fms::obs {

class MetricsRegistry;  // src/obs/metrics.h

// One observable occurrence: a finished span, a completed round, or a
// run-level annotation. Numeric payload only — everything the paper's
// curves need is a number.
struct TraceEvent {
  std::string type;   // "span" | "round" | "profile" | "meta"
  std::string name;   // span phase (e.g. "local_train") or event name
  int round = -1;     // -1 when not tied to a round
  std::string label;  // run/variant label (stamped by Telemetry if empty)
  std::vector<std::pair<std::string, double>> fields;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
  virtual void flush() {}
  // End-of-run hook, handed the final metrics snapshot by
  // Telemetry::finish(). File sinks ignore it (the CSV snapshot already
  // carries the registry); the console sink prints its quantile table.
  virtual void write_summary(const MetricsRegistry& registry) { (void)registry; }
};

// One JSON object per event, one event per line:
//   {"type":"span","name":"local_train","round":12,"dur_s":0.0031}
// Writes are mutex-serialized so ThreadPool workers can emit concurrently.
class JsonlTraceWriter : public TraceSink {
 public:
  explicit JsonlTraceWriter(const std::string& path);

  void write(const TraceEvent& event) override;
  void flush() override;

  std::size_t events_written() const;

 private:
  mutable fms::Mutex mu_;
  std::ofstream out_ FMS_GUARDED_BY(mu_);
  std::size_t events_ FMS_GUARDED_BY(mu_) = 0;
};

// Per-round progress one-liner (the examples' former on_round lambdas):
//   round  25  acc 0.412 (moving 0.398)  arrived 10 dropped 0  3.1 r/s  ema 322.6 ms
// Throughput columns come from the "round" span the search loop already
// emits: the sink keeps an exponential moving average of round wall time
// and prints it (plus its reciprocal, rounds/sec) once a sample exists.
class ConsoleRoundSink : public TraceSink {
 public:
  explicit ConsoleRoundSink(int every_n = 25, std::FILE* out = stdout);

  void write(const TraceEvent& event) override;
  void flush() override;
  // End-of-run latency table: one row per histogram with count, mean and
  // the interpolated p50/p95/p99 the quantile buckets already track.
  void write_summary(const MetricsRegistry& registry) override;

 private:
  int every_;
  std::FILE* out_;
  double ema_round_s_ = 0.0;  // EMA of "round" span durations
  bool have_ema_ = false;
  bool summary_written_ = false;  // finish() may run twice (caller + dtor)
};

}  // namespace fms::obs
