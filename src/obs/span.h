// RAII scoped-span timers: FMS_SPAN("phase") measures the enclosing scope
// and records it twice — into the `span.<phase>` histogram (p50/p95/p99
// per phase across the run) and, when a trace sink is attached, as a JSONL
// span event tagged with the current round.
//
// When telemetry is disabled the constructor reads one relaxed atomic and
// skips the clock entirely, so instrumented hot paths cost nothing
// measurable (acceptance: bench_table5_searchtime within noise of seed).
#pragma once

#include <chrono>
#include <string>

#include "src/obs/profile.h"
#include "src/obs/telemetry.h"

namespace fms::obs {

class ScopedSpan {
 public:
  // The embedded ScopedOp mirrors every span into the profiler tree
  // (round -> sample/transmit/.../aggregate), so the --profile self-time
  // table shows the same phase skeleton the span histograms use. It
  // checks its own enable flag: spans and profiling toggle separately.
  explicit ScopedSpan(const char* phase)
      : ScopedSpan(phase, [] { return OpCost{}; }) {}
  // A span that is also a costed op: `cost` (a callable returning
  // OpCost) is booked on the span's own zone, as FMS_OP would.
  template <typename CostFn>
  ScopedSpan(const char* phase, CostFn&& cost)
      : phase_(phase), op_(phase, cost), active_(telemetry_enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (!active_) return;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    Telemetry& telemetry = Telemetry::instance();
    telemetry.registry()
        .histogram(std::string("span.") + phase_, default_span_buckets())
        .observe(seconds);
    TraceEvent event;
    event.type = "span";
    event.name = phase_;
    event.round = telemetry.round();
    event.fields.emplace_back("dur_s", seconds);
    telemetry.emit(std::move(event));
  }

 private:
  const char* phase_;
  ScopedOp op_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace fms::obs

#define FMS_SPAN(phase) \
  ::fms::obs::ScopedSpan FMS_OBS_CONCAT(fms_scoped_span_, __LINE__)(phase)
