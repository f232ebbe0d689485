#include "src/obs/flight.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "src/common/check.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"

namespace fms::obs {
namespace {

std::string event_json(const LifecycleEvent& ev) {
  std::string line;
  line.reserve(160);
  line += "{\"type\":\"flight\",\"stage\":\"";
  line += stage_name(ev.stage);
  line += "\",\"round\":";
  json_number(line, ev.round);
  line += ",\"origin_round\":";
  json_number(line, ev.origin_round);
  line += ",\"participant\":";
  json_number(line, ev.participant);
  line += ",\"ts_s\":";
  json_number(line, ev.ts_s);
  line += ",\"dur_s\":";
  json_number(line, ev.dur_s);
  line += ",\"value\":";
  json_number(line, ev.value);
  if (!ev.detail.empty()) {
    line += ",\"detail\":\"";
    line += json_escape(ev.detail);
    line += "\"";
  }
  line += ",\"trace_id\":\"";
  append_hex_id(line, ev.trace_id);
  line += "\",\"span_id\":\"";
  append_hex_id(line, ev.span_id);
  line += "\"}\n";
  return line;
}

}  // namespace

FlightRecorder::FlightRecorder(int capacity_per_participant)
    : capacity_(capacity_per_participant) {
  FMS_CHECK_MSG(capacity_ > 0, "flight recorder capacity must be positive");
}

void FlightRecorder::record(const LifecycleEvent& ev) {
  fms::MutexLock lock(mu_);
  Ring& ring = rings_[ev.participant];
  if (ring.slots.empty()) {
    ring.slots.resize(static_cast<std::size_t>(capacity_));
  }
  ring.slots[ring.next] = ev;
  ring.next = (ring.next + 1) % ring.slots.size();
  if (ring.count < ring.slots.size()) ++ring.count;
}

void FlightRecorder::dump(const std::string& path,
                          const std::string& reason) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;  // postmortem best effort: never throw here
  dump_stream(out, reason);
  std::fclose(out);
}

void FlightRecorder::dump_stream(std::FILE* out,
                                 const std::string& reason) const {
  fms::MutexLock lock(mu_);
  std::size_t total = 0;
  for (const auto& [p, ring] : rings_) {
    (void)p;
    total += ring.count;
  }
  std::string header;
  header += "{\"type\":\"flight_header\",\"reason\":\"";
  header += json_escape(reason);
  header += "\",\"capacity\":";
  json_number(header, capacity_);
  header += ",\"events\":";
  json_number(header, static_cast<double>(total));
  header += "}\n";
  std::fputs(header.c_str(), out);
  for (const auto& [p, ring] : rings_) {
    (void)p;
    const std::size_t n = ring.slots.size();
    for (std::size_t i = 0; i < ring.count; ++i) {
      // Oldest first: when full, the insertion cursor is the oldest slot.
      const std::size_t idx =
          ring.count < n ? i : (ring.next + i) % n;
      std::fputs(event_json(ring.slots[idx]).c_str(), out);
    }
  }
  std::fflush(out);
  ++dumps_;
}

std::size_t FlightRecorder::num_dumps() const {
  fms::MutexLock lock(mu_);
  return dumps_;
}

std::vector<LifecycleEvent> FlightRecorder::events_for(int participant) const {
  fms::MutexLock lock(mu_);
  std::vector<LifecycleEvent> out;
  const auto it = rings_.find(participant);
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  const std::size_t n = ring.slots.size();
  out.reserve(ring.count);
  for (std::size_t i = 0; i < ring.count; ++i) {
    const std::size_t idx = ring.count < n ? i : (ring.next + i) % n;
    out.push_back(ring.slots[idx]);
  }
  return out;
}

namespace {

std::terminate_handler g_previous_terminate = nullptr;

// The terminate path must not allocate exotically or throw: dump what we
// can, flush what we can, then chain to the previous handler (abort).
[[noreturn]] void fms_terminate_handler() {
  std::fputs("fms: terminating — dumping flight recorder and flushing "
             "telemetry sinks\n",
             stderr);
  TraceContext::instance().dump_flight("crash");
  Telemetry::instance().flush();
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

void fms_atexit_flush() {
  // Scope-exit flush: sinks buffered in ofstreams would otherwise lose
  // their tail on exit paths that bypass Telemetry::finish().
  Telemetry::instance().flush();
}

}  // namespace

void install_crash_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  g_previous_terminate = std::set_terminate(fms_terminate_handler);
  std::atexit(fms_atexit_flush);
}

}  // namespace fms::obs
