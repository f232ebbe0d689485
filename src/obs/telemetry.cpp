#include "src/obs/telemetry.h"

#include "src/obs/flight.h"
#include "src/obs/profile.h"
#include "src/obs/trace_ctx.h"

namespace fms::obs {
namespace {

// The calling thread's active EventCapture buffer, if any.
thread_local std::vector<TraceEvent>* captured_events = nullptr;

}  // namespace

Telemetry& Telemetry::instance() {
  static Telemetry telemetry;
  return telemetry;
}

void Telemetry::add_sink(std::shared_ptr<TraceSink> sink) {
  fms::MutexLock lock(mu_);
  sinks_.push_back(std::move(sink));
}

void Telemetry::clear_sinks() {
  fms::MutexLock lock(mu_);
  sinks_.clear();
}

std::size_t Telemetry::num_sinks() const {
  fms::MutexLock lock(mu_);
  return sinks_.size();
}

void Telemetry::emit(TraceEvent event) {
  if (!telemetry_enabled()) return;
  if (captured_events != nullptr) {
    captured_events->push_back(std::move(event));
    return;
  }
  fms::MutexLock lock(mu_);
  if (event.label.empty()) event.label = label_;
  for (const auto& sink : sinks_) sink->write(event);
}

void Telemetry::flush() {
  fms::MutexLock lock(mu_);
  for (const auto& sink : sinks_) sink->flush();
}

void Telemetry::set_label(std::string label) {
  fms::MutexLock lock(mu_);
  label_ = std::move(label);
}

void Telemetry::configure(const TelemetryConfig& cfg, std::uint64_t seed) {
  set_telemetry_enabled(cfg.enabled);
  set_profiling_enabled(cfg.profile);
  // Causal tracing rides the same config: the trace context is live when
  // either a Chrome export or a flight recorder was asked for. The flight
  // dump needs a destination even when only the default was configured —
  // a postmortem artifact with no path would silently vanish.
  const bool tracing =
      cfg.enabled && (!cfg.trace_chrome_path.empty() || cfg.flight_recorder > 0);
  std::string flight_dump = cfg.flight_dump_path;
  if (cfg.flight_recorder > 0 && flight_dump.empty()) {
    flight_dump = "fms_flight.jsonl";
  }
  TraceContext::instance().configure(tracing, seed, cfg.trace_chrome_path,
                                     cfg.enabled ? cfg.flight_recorder : 0,
                                     flight_dump);
  if (cfg.enabled) install_crash_handlers();
  fms::MutexLock lock(mu_);
  sinks_.clear();
  metrics_csv_path_ = cfg.metrics_csv_path;
  if (!cfg.enabled) return;
  if (!cfg.trace_jsonl_path.empty()) {
    sinks_.push_back(std::make_shared<JsonlTraceWriter>(cfg.trace_jsonl_path));
  }
  if (cfg.console) {
    sinks_.push_back(std::make_shared<ConsoleRoundSink>(cfg.console_every));
  }
}

void Telemetry::finish() {
  std::string csv_path;
  {
    fms::MutexLock lock(mu_);
    for (const auto& sink : sinks_) {
      sink->write_summary(registry_);
      sink->flush();
    }
    csv_path = metrics_csv_path_;
  }
  if (!csv_path.empty()) registry_.write_csv(csv_path);
  TraceContext::instance().export_chrome();
}

EventCapture::EventCapture(std::vector<TraceEvent>& into)
    : prev_(captured_events) {
  captured_events = &into;
}

EventCapture::~EventCapture() { captured_events = prev_; }

}  // namespace fms::obs
