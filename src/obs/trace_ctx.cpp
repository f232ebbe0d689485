#include "src/obs/trace_ctx.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/obs/flight.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"

namespace fms::obs {
namespace {

// Sim seconds -> integer microsecond ticks (Chrome trace "ts"/"dur").
long long sim_us(double seconds) {
  return static_cast<long long>(std::llround(seconds * 1e6));
}

}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kDispatch: return "dispatch";
    case Stage::kTransmit: return "transmit";
    case Stage::kLocalTrain: return "local_train";
    case Stage::kFault: return "fault";
    case Stage::kArrive: return "arrive";
    case Stage::kStale: return "stale";
    case Stage::kScreen: return "screen";
    case Stage::kAggregate: return "aggregate";
    case Stage::kDrop: return "drop";
    case Stage::kQuorum: return "quorum";
  }
  return "unknown";
}

std::uint64_t make_trace_id(std::uint64_t seed, int round) {
  // +1 keeps round 0 distinct from the seed-only hash.
  return splitmix64(splitmix64(seed) ^
                    static_cast<std::uint64_t>(round + 1));
}

std::uint64_t make_span_id(std::uint64_t trace_id, int participant,
                           Stage stage) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(participant + 2) << 8) ^
      static_cast<std::uint64_t>(stage);
  return splitmix64(trace_id ^ splitmix64(key));
}

TraceContext& TraceContext::instance() {
  static TraceContext ctx;
  return ctx;
}

void TraceContext::configure(bool enabled, std::uint64_t seed,
                             std::string chrome_path, int flight_capacity,
                             std::string flight_dump_path) {
  {
    fms::MutexLock lock(mu_);
    seed_ = seed;
    chrome_path_ = std::move(chrome_path);
    flight_dump_path_ = std::move(flight_dump_path);
    events_.clear();
    base_s_ = 0.0;
    flight_ = flight_capacity > 0
                  ? std::make_shared<FlightRecorder>(flight_capacity)
                  : nullptr;
  }
  set_tracing_enabled(enabled);
}

void TraceContext::end_round(double round_sim_duration_s) {
  if (!tracing_enabled()) return;
  fms::MutexLock lock(mu_);
  // A round in which nothing moved (everyone offline) still occupies a
  // nonzero window so successive rounds never collapse onto one tick.
  base_s_ += std::isfinite(round_sim_duration_s) && round_sim_duration_s > 0.0
                 ? round_sim_duration_s
                 : 1e-6;
}

double TraceContext::round_base_s() const {
  fms::MutexLock lock(mu_);
  return base_s_;
}

void TraceContext::record(int participant, Stage stage, double offset_s,
                          double dur_s, double value, std::string_view detail,
                          int origin_round) {
  if (!tracing_enabled()) return;
  LifecycleEvent ev;
  ev.round = Telemetry::instance().round();
  ev.origin_round = origin_round >= 0 ? origin_round : ev.round;
  ev.participant = participant;
  ev.stage = stage;
  ev.dur_s = dur_s;
  ev.value = value;
  ev.detail = std::string(detail);
  fms::MutexLock lock(mu_);
  ev.ts_s = base_s_ + (std::isfinite(offset_s) ? offset_s : 0.0);
  ev.trace_id = make_trace_id(seed_, ev.origin_round);
  ev.span_id = make_span_id(ev.trace_id, participant, stage);
  if (flight_) flight_->record(ev);
  if (!chrome_path_.empty()) events_.push_back(std::move(ev));
}

void TraceContext::export_chrome() const {
  std::string path;
  std::vector<LifecycleEvent> events;
  {
    fms::MutexLock lock(mu_);
    if (chrome_path_.empty() || events_.empty()) return;
    path = chrome_path_;
    events = events_;
  }
  std::ofstream out(path);
  FMS_CHECK_MSG(out.good(), "cannot open chrome trace file " << path);
  out << chrome_trace_json(events);
}

std::string TraceContext::chrome_path() const {
  fms::MutexLock lock(mu_);
  return chrome_path_;
}

std::string TraceContext::flight_dump_path() const {
  fms::MutexLock lock(mu_);
  return flight_dump_path_;
}

std::shared_ptr<FlightRecorder> TraceContext::flight() const {
  fms::MutexLock lock(mu_);
  return flight_;
}

void TraceContext::dump_flight(const std::string& reason) const {
  std::shared_ptr<FlightRecorder> fl;
  std::string path;
  {
    fms::MutexLock lock(mu_);
    fl = flight_;
    path = flight_dump_path_;
  }
  if (fl && !path.empty()) fl->dump(path, reason);
}

std::size_t TraceContext::num_events() const {
  fms::MutexLock lock(mu_);
  return events_.size();
}

std::vector<LifecycleEvent> TraceContext::events_snapshot() const {
  fms::MutexLock lock(mu_);
  return events_;
}

void TraceContext::reset() {
  fms::MutexLock lock(mu_);
  events_.clear();
  flight_.reset();
  chrome_path_.clear();
  flight_dump_path_.clear();
  base_s_ = 0.0;
}

std::string chrome_trace_json(const std::vector<LifecycleEvent>& events) {
  std::string out;
  out.reserve(256 + events.size() * 192);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
         "\"fms_trace_ctx\",\"clock\":\"sim\"},\"traceEvents\":[\n";

  // Metadata first: one process, one named track per participant plus the
  // server track (-1 -> tid 0; participant k -> tid k + 1). Sorted ids
  // keep the output deterministic regardless of recording interleaving.
  std::map<int, bool> participants;
  for (const LifecycleEvent& ev : events) participants[ev.participant] = true;
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"fms federated search (sim time)\"}}";
  for (const auto& [p, unused] : participants) {
    (void)unused;
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    json_number(out, p + 1);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    out += p < 0 ? std::string("server") :
                   "participant " + std::to_string(p);
    out += "\"}}";
  }

  for (const LifecycleEvent& ev : events) {
    out += ",\n{\"name\":\"";
    out += stage_name(ev.stage);
    out += "\",\"cat\":\"lifecycle\",\"ph\":\"";
    const bool span = ev.dur_s > 0.0;
    out += span ? "X" : "i";
    out += "\",\"pid\":1,\"tid\":";
    json_number(out, ev.participant + 1);
    out += ",\"ts\":";
    json_number(out, static_cast<double>(sim_us(ev.ts_s)));
    if (span) {
      out += ",\"dur\":";
      json_number(out, static_cast<double>(sim_us(ev.dur_s)));
    } else {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    out += ",\"args\":{\"round\":";
    json_number(out, ev.round);
    out += ",\"origin_round\":";
    json_number(out, ev.origin_round);
    out += ",\"participant\":";
    json_number(out, ev.participant);
    out += ",\"value\":";
    json_number(out, ev.value);
    if (!ev.detail.empty()) {
      out += ",\"detail\":\"";
      out += json_escape(ev.detail);
      out += "\"";
    }
    out += ",\"trace_id\":\"";
    append_hex_id(out, ev.trace_id);
    out += "\",\"span_id\":\"";
    append_hex_id(out, ev.span_id);
    out += "\"}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace fms::obs
