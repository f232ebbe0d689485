#include "src/obs/sinks.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"

namespace fms::obs {

JsonlTraceWriter::JsonlTraceWriter(const std::string& path) : out_(path) {
  FMS_CHECK_MSG(out_.good(), "cannot open trace file " << path);
}

void JsonlTraceWriter::write(const TraceEvent& event) {
  std::string line;
  line.reserve(96 + event.fields.size() * 24);
  line += "{\"type\":\"";
  line += json_escape(event.type);
  line += "\",\"name\":\"";
  line += json_escape(event.name);
  line += "\"";
  if (event.round >= 0) {
    line += ",\"round\":";
    json_number(line, event.round);
  }
  if (!event.label.empty()) {
    line += ",\"label\":\"";
    line += json_escape(event.label);
    line += "\"";
  }
  for (const auto& [key, value] : event.fields) {
    line += ",\"";
    line += json_escape(key);
    line += "\":";
    json_number(line, value);
  }
  line += "}\n";
  fms::MutexLock lock(mu_);
  out_ << line;
  ++events_;
}

void JsonlTraceWriter::flush() {
  fms::MutexLock lock(mu_);
  out_.flush();
}

std::size_t JsonlTraceWriter::events_written() const {
  fms::MutexLock lock(mu_);
  return events_;
}

ConsoleRoundSink::ConsoleRoundSink(int every_n, std::FILE* out)
    : every_(every_n > 0 ? every_n : 1), out_(out) {}

void ConsoleRoundSink::write(const TraceEvent& event) {
  if (event.type == "span" && event.name == "round") {
    // Smoothing factor 0.1: ~the last 10 rounds dominate, so the column
    // settles fast after warm-up yet absorbs per-round jitter.
    for (const auto& [key, value] : event.fields) {
      if (key == "dur_s" && value > 0.0) {
        ema_round_s_ =
            have_ema_ ? 0.1 * value + 0.9 * ema_round_s_ : value;
        have_ema_ = true;
      }
    }
    return;
  }
  if (event.type != "round" || event.round % every_ != 0) return;
  double reward = 0.0, moving = 0.0, arrived = 0.0, dropped = 0.0;
  for (const auto& [key, value] : event.fields) {
    if (key == "mean_reward") reward = value;
    else if (key == "moving_avg") moving = value;
    else if (key == "arrived") arrived = value;
    else if (key == "dropped") dropped = value;
  }
  if (have_ema_) {
    std::fprintf(out_,
                 "round %4d  acc %.3f (moving %.3f)  arrived %d dropped %d"
                 "  %.1f r/s  ema %.1f ms\n",
                 event.round, reward, moving, static_cast<int>(arrived),
                 static_cast<int>(dropped), 1.0 / ema_round_s_,
                 ema_round_s_ * 1e3);
  } else {
    // The round record lands before its enclosing span closes, so the
    // first printed line has no duration sample yet.
    std::fprintf(out_,
                 "round %4d  acc %.3f (moving %.3f)  arrived %d dropped %d\n",
                 event.round, reward, moving, static_cast<int>(arrived),
                 static_cast<int>(dropped));
  }
}

void ConsoleRoundSink::flush() { std::fflush(out_); }

void ConsoleRoundSink::write_summary(const MetricsRegistry& registry) {
  // Both the explicit finish() call and the owning search's destructor
  // reach here; the table is for humans, so print it once.
  if (summary_written_) return;
  summary_written_ = true;
  const std::vector<MetricSample> samples = registry.snapshot();
  bool header = false;
  for (const MetricSample& s : samples) {
    if (s.type != "histogram" || s.count == 0) continue;
    if (!header) {
      std::fprintf(out_, "%-32s %10s %12s %12s %12s %12s\n", "histogram",
                   "count", "mean", "p50", "p95", "p99");
      header = true;
    }
    std::fprintf(out_, "%-32s %10llu %12.6g %12.6g %12.6g %12.6g\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.count),
                 s.value, s.p50, s.p95, s.p99);
  }
}

}  // namespace fms::obs
