#include "src/obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/obs/json.h"
#include "src/obs/roofline.h"
#include "src/obs/work.h"

namespace fms::obs {
namespace {

// ---------------------------------------------------------------------
// Trace model.

struct Event {
  JsonValue json;  // the line's object
  std::string type;
  int round = -1;
};

std::vector<Event> parse_trace_text(const std::string& text) {
  std::vector<Event> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    Event ev;
    if (!parse_json(line, &ev.json) ||
        ev.json.kind != JsonValue::Kind::kObject) {
      continue;
    }
    ev.type = ev.json.string_or("type", "");
    // A round that is not an int makes the line as malformed as bad JSON.
    if (!to_integer(ev.json.number_or("round", -1.0), &ev.round)) continue;
    events.push_back(std::move(ev));
  }
  return events;
}

// An integer field; 0 when absent or not representable as T.
template <typename T>
T int_field(const Event& ev, const std::string& key) {
  T v = 0;
  ev.json.integer(key, &v);
  return v;
}

// What --compare diffs: a line's numeric fields except "round", in order.
std::vector<std::pair<std::string, double>> numeric_fields(const Event& ev) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [key, value] : ev.json.obj) {
    if (value.kind == JsonValue::Kind::kNumber && key != "round") {
      out.emplace_back(key, value.num);
    }
  }
  return out;
}

// The run's op tree (the fields the report renders) as its last
// "profile" events left it: they carry cumulative counters, so the
// latest event per zone path is the total.
ProfileReport latest_profile(const std::vector<Event>& events) {
  std::map<std::string, const Event*> latest;
  for (const Event& ev : events) {
    if (ev.type == "profile") latest[ev.json.string_or("name", "")] = &ev;
  }
  ProfileReport profile;
  for (const auto& [path, ev] : latest) {
    ZoneStats z;
    z.path = path;
    z.name = path.substr(path.rfind('/') + 1);  // npos + 1 == 0
    z.calls = int_field<std::uint64_t>(*ev, "calls");
    z.incl_ns = int_field<std::uint64_t>(*ev, "incl_ns");
    z.excl_ns = int_field<std::uint64_t>(*ev, "excl_ns");
    z.wall_ns = int_field<std::uint64_t>(*ev, "wall_ns");
    z.cost.flops = int_field<std::uint64_t>(*ev, "flops");
    z.cost.bytes_read = int_field<std::uint64_t>(*ev, "bytes_read");
    z.cost.bytes_written = int_field<std::uint64_t>(*ev, "bytes_written");
    z.cost.elements = int_field<std::uint64_t>(*ev, "elements");
    profile.zones.push_back(std::move(z));
  }
  return profile;
}

// ---------------------------------------------------------------------
// HTML helpers. All numeric output goes through fmt() so the generated
// bytes are stable for golden-file comparison.

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmt_fixed(double v, int digits) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void section_open(std::string* out, const std::string& title) {
  *out += "<section><h2>" + html_escape(title) + "</h2>\n";
}

void section_close(std::string* out) { *out += "</section>\n"; }

void placeholder(std::string* out, const std::string& what) {
  *out += "<p class=\"nodata\">no " + html_escape(what) + " data</p>\n";
}

// ---------------------------------------------------------------------
// Sections.

void render_timeline(std::string* out, const std::vector<Event>& rounds) {
  section_open(out, "Round timeline");
  if (rounds.empty()) {
    placeholder(out, "trace");
    section_close(out);
    return;
  }
  const double width = 720.0, height = 150.0, lane_h = 10.0;
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const Event& ev : rounds) {
    for (const char* key : {"mean_reward", "moving_avg"}) {
      const double v = ev.json.number_or(key, 0.0);
      if (first) {
        lo = hi = v;
        first = false;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  }
  if (hi <= lo) hi = lo + 1.0;
  const double n = static_cast<double>(rounds.size());
  auto x_of = [&](std::size_t i) {
    return n <= 1.0 ? 0.0
                    : width * static_cast<double>(i) / (n - 1.0);
  };
  auto y_of = [&](double v) {
    return (height - lane_h - 4.0) * (1.0 - (v - lo) / (hi - lo));
  };
  auto polyline = [&](const char* key, const char* cls) {
    std::string pts;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      if (!pts.empty()) pts += ' ';
      pts += fmt_fixed(x_of(i), 1) + "," +
             fmt_fixed(y_of(rounds[i].json.number_or(key, 0.0)), 1);
    }
    *out += "<polyline class=\"" + std::string(cls) + "\" points=\"" + pts +
            "\"/>\n";
  };
  *out += "<svg viewBox=\"0 0 " + fmt(width) + " " + fmt(height) +
          "\" class=\"timeline\">\n";
  polyline("mean_reward", "reward");
  polyline("moving_avg", "moving");
  // Degradation lane: one cell per round, shaded by degrade_mode.
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const int mode = int_field<int>(rounds[i], "degrade_mode");
    const double cell_w = std::max(1.0, width / n);
    const char* shade = mode <= 0   ? "#d7e8d7"
                        : mode == 1 ? "#f4e3b2"
                        : mode == 2 ? "#f3c98a"
                                    : "#e59b9b";
    *out += "<rect x=\"" + fmt_fixed(x_of(i), 1) + "\" y=\"" +
            fmt(height - lane_h) + "\" width=\"" + fmt_fixed(cell_w, 1) +
            "\" height=\"" + fmt(lane_h) + "\" fill=\"" + shade + "\"/>\n";
  }
  *out += "</svg>\n";
  const Event& last = rounds.back();
  *out += "<p>" + fmt(n) + " rounds; final mean_reward " +
          fmt(last.json.number_or("mean_reward", 0.0)) + ", moving_avg " +
          fmt(last.json.number_or("moving_avg", 0.0)) + ", reward range [" +
          fmt(lo) + ", " + fmt(hi) +
          "]. Bottom lane: degradation ladder (green=normal).</p>\n";
  section_close(out);
}

void render_phases(std::string* out, const ProfileReport& profile) {
  section_open(out, "Per-phase exclusive time");
  if (profile.zones.empty()) {
    placeholder(out, "profile");
    section_close(out);
    return;
  }
  double total_excl = 0.0;
  for (const ZoneStats& z : profile.zones) {
    total_excl += static_cast<double>(z.excl_ns);
  }
  *out += "<table><tr><th>zone</th><th>self ms</th><th>self %</th>"
          "<th>incl ms</th><th>wall ms</th><th>calls</th><th></th></tr>\n";
  for (const ZoneStats* z : top_self_time(profile, 15)) {
    const double excl = static_cast<double>(z->excl_ns);
    const double pct = total_excl > 0.0 ? 100.0 * excl / total_excl : 0.0;
    // Plain ops have no wall time; only spans read the wall clock.
    const std::string wall =
        z->wall_ns == 0
            ? "-"
            : fmt_fixed(static_cast<double>(z->wall_ns) / 1e6, 3);
    *out += "<tr><td>" + html_escape(z->path) + "</td><td>" +
            fmt_fixed(excl / 1e6, 3) + "</td><td>" + fmt_fixed(pct, 1) +
            "</td><td>" +
            fmt_fixed(static_cast<double>(z->incl_ns) / 1e6, 3) +
            "</td><td>" + wall + "</td><td>" +
            fmt(static_cast<double>(z->calls)) +
            "</td><td><div class=\"bar\" style=\"width:" +
            fmt_fixed(std::min(100.0, pct) * 2.0, 1) + "px\"></div></td>"
            "</tr>\n";
  }
  *out += "</table>\n";
  section_close(out);
}

void render_work(std::string* out, const WorkReport& work) {
  section_open(out, "Work ledger");
  if (work.rows.empty()) {
    placeholder(out, "work-ledger");
    section_close(out);
    return;
  }
  std::vector<const WorkRow*> rows;
  for (const WorkRow& row : work.rows) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const WorkRow* a, const WorkRow* b) {
    if (a->cost.flops != b->cost.flops) return a->cost.flops > b->cost.flops;
    return a->op < b->op;
  });
  *out += "<table><tr><th>op</th><th>calls</th><th>MFLOPs</th>"
          "<th>read MB</th><th>written MB</th><th>AI</th></tr>\n";
  for (const WorkRow* row : rows) {
    *out += "<tr><td>" + html_escape(row->op) + "</td><td>" +
            fmt(static_cast<double>(row->calls)) + "</td><td>" +
            fmt_fixed(static_cast<double>(row->cost.flops) / 1e6, 3) +
            "</td><td>" +
            fmt_fixed(static_cast<double>(row->cost.bytes_read) / 1e6, 3) +
            "</td><td>" +
            fmt_fixed(static_cast<double>(row->cost.bytes_written) / 1e6, 3) +
            "</td><td>" + fmt_fixed(arithmetic_intensity(row->cost), 3) +
            "</td></tr>\n";
  }
  *out += "</table>\n";
  section_close(out);
}

// Op-level roofline scatter: achieved GFLOP/s = a work row's FLOPs over
// its zones' summed inclusive ns.
void render_roofline(std::string* out, const WorkReport& work,
                     const MachinePeak& peak) {
  section_open(out, "Op roofline");
  if (work.rows.empty()) {
    placeholder(out, "work-ledger");
    section_close(out);
    return;
  }
  struct Point {
    std::string op;
    double ai = 0.0;
    double gflops = 0.0;
  };
  std::vector<Point> points;
  for (const WorkRow& row : work.rows) {
    const double ai = arithmetic_intensity(row.cost);  // 0 without FLOPs
    if (ai <= 0.0 || row.incl_ns == 0) continue;
    Point pt;
    pt.op = row.op;
    pt.ai = ai;
    pt.gflops = static_cast<double>(row.cost.flops) /
                static_cast<double>(row.incl_ns);  // FLOPs/ns == GFLOP/s
    points.push_back(std::move(pt));
  }
  if (points.empty()) {
    placeholder(out, "roofline (no op has both work and zone time)");
    section_close(out);
    return;
  }
  // Log-log axes: AI in [1e-2, 1e2], GF/s in [1e-3, 1e3].
  const double width = 520.0, height = 300.0;
  const double ai_lo = -2.0, ai_hi = 2.0, gf_lo = -3.0, gf_hi = 3.0;
  auto clamp = [](double v, double lo, double hi) {
    return std::min(hi, std::max(lo, v));
  };
  auto x_of = [&](double ai) {
    const double l = clamp(std::log10(ai), ai_lo, ai_hi);
    return width * (l - ai_lo) / (ai_hi - ai_lo);
  };
  auto y_of = [&](double gf) {
    const double l = clamp(std::log10(std::max(gf, 1e-12)), gf_lo, gf_hi);
    return height * (1.0 - (l - gf_lo) / (gf_hi - gf_lo));
  };
  *out += "<svg viewBox=\"0 0 " + fmt(width) + " " + fmt(height) +
          "\" class=\"roofline\">\n";
  if (peak.valid()) {
    // Memory roof (45-degree in log-log) up to the ridge, then compute.
    std::string pts;
    for (const double ai : {std::pow(10.0, ai_lo),
                            peak.vector_gflops / peak.stream_gbps,
                            std::pow(10.0, ai_hi)}) {
      if (!pts.empty()) pts += ' ';
      pts += fmt_fixed(x_of(ai), 1) + "," +
             fmt_fixed(y_of(roofline_gflops(peak, ai)), 1);
    }
    *out += "<polyline class=\"roof\" points=\"" + pts + "\"/>\n";
  }
  for (const Point& pt : points) {
    *out += "<circle cx=\"" + fmt_fixed(x_of(pt.ai), 1) + "\" cy=\"" +
            fmt_fixed(y_of(pt.gflops), 1) +
            "\" r=\"4\"><title>" + html_escape(pt.op) + ": " +
            fmt_fixed(pt.gflops, 3) + " GF/s at AI " + fmt_fixed(pt.ai, 3) +
            "</title></circle>\n";
  }
  *out += "</svg>\n";
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    if (a.gflops != b.gflops) return a.gflops > b.gflops;
    // fms-lint: allow(float-eq) -- equal-keys fall through to the name
    // tie-break; either branch is a valid strict weak order.
    return a.op < b.op;
  });
  *out += "<table><tr><th>op</th><th>GF/s</th><th>AI</th>";
  if (peak.valid()) *out += "<th>% of roof</th>";
  *out += "</tr>\n";
  for (const Point& pt : points) {
    *out += "<tr><td>" + html_escape(pt.op) + "</td><td>" +
            fmt_fixed(pt.gflops, 3) + "</td><td>" + fmt_fixed(pt.ai, 3) +
            "</td>";
    if (peak.valid()) {
      *out += "<td>" + fmt_fixed(roof_percent(peak, pt.gflops, pt.ai), 1) +
              "</td>";
    }
    *out += "</tr>\n";
  }
  *out += "</table>\n";
  if (peak.valid()) {
    *out += "<p>machine peak: vector " + fmt_fixed(peak.vector_gflops, 2) +
            " GF/s, scalar " + fmt_fixed(peak.scalar_gflops, 2) +
            " GF/s, stream " + fmt_fixed(peak.stream_gbps, 2) +
            " GB/s.</p>\n";
  }
  section_close(out);
}

void render_health(std::string* out, const std::string& health_json) {
  section_open(out, "Search health");
  JsonValue v;
  if (health_json.empty() || !parse_json(health_json, &v) ||
      v.kind != JsonValue::Kind::kObject) {
    placeholder(out, "health");
    section_close(out);
    return;
  }
  const std::string worst = v.string_or("worst", "?");
  *out += "<p>worst state over " + fmt(v.number_or("rounds", 0.0)) +
          " rounds: <span class=\"state-" + html_escape(worst) + "\">" +
          html_escape(worst) + "</span></p>\n";
  const JsonValue* detectors = v.find("detectors");
  if (detectors == nullptr || detectors->kind != JsonValue::Kind::kArray) {
    section_close(out);
    return;
  }
  *out += "<table><tr><th>detector</th><th>state</th><th>value</th>"
          "<th>warn</th><th>crit</th><th>warn rounds</th>"
          "<th>crit rounds</th></tr>\n";
  for (const JsonValue& d : detectors->arr) {
    if (d.kind != JsonValue::Kind::kObject) continue;
    const std::string state = d.string_or("state", "?");
    *out += "<tr><td>" + html_escape(d.string_or("name", "?")) +
            "</td><td class=\"state-" + html_escape(state) + "\">" +
            html_escape(state) + "</td><td>" +
            fmt(d.number_or("value", 0.0)) + "</td><td>" +
            fmt(d.number_or("warn", 0.0)) + "</td><td>" +
            fmt(d.number_or("crit", 0.0)) + "</td><td>" +
            fmt(d.number_or("warn_rounds", 0.0)) + "</td><td>" +
            fmt(d.number_or("crit_rounds", 0.0)) + "</td></tr>\n";
  }
  *out += "</table>\n";
  section_close(out);
}

void render_metrics(std::string* out, const std::string& csv) {
  section_open(out, "Metrics");
  if (csv.empty()) {
    placeholder(out, "metrics");
    section_close(out);
    return;
  }
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::pair<std::string, std::string>> rows;
  while (std::getline(in, line)) {
    const std::size_t c1 = line.find(',');
    if (c1 == std::string::npos) continue;
    const std::size_t c2 = line.find(',', c1 + 1);
    if (c2 == std::string::npos) continue;
    const std::size_t c3 = line.find(',', c2 + 1);
    rows.emplace_back(line.substr(0, c1),
                      line.substr(c2 + 1, c3 == std::string::npos
                                              ? std::string::npos
                                              : c3 - c2 - 1));
  }
  if (rows.empty()) {
    placeholder(out, "metrics");
    section_close(out);
    return;
  }
  std::sort(rows.begin(), rows.end());
  *out += "<table class=\"metrics\"><tr><th>metric</th><th>value</th></tr>\n";
  for (const auto& [name, value] : rows) {
    *out += "<tr><td>" + html_escape(name) + "</td><td>" +
            html_escape(value) + "</td></tr>\n";
  }
  *out += "</table>\n";
  section_close(out);
}

struct HistorySeries {
  std::vector<double> medians;  // oldest -> newest per history row
  std::string last_sha;
};

void render_bench(std::string* out, const std::string& bench_json,
                  const std::string& history_text,
                  const MachinePeak& peak) {
  section_open(out, "Benchmarks");
  JsonValue v;
  if (bench_json.empty() || !parse_json(bench_json, &v) ||
      v.kind != JsonValue::Kind::kObject) {
    placeholder(out, "bench");
    section_close(out);
    return;
  }
  // History: per-benchmark median series across committed rows.
  std::map<std::string, HistorySeries> history;
  int history_rows = 0;
  {
    std::istringstream in(history_text);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      JsonValue row;
      if (!parse_json(line, &row) || row.kind != JsonValue::Kind::kObject) {
        continue;
      }
      ++history_rows;
      const std::string sha = row.string_or("git_sha", "?");
      const JsonValue* benches = row.find("benchmarks");
      if (benches == nullptr) continue;
      for (const auto& [name, b] : benches->obj) {
        HistorySeries& series = history[name];
        series.medians.push_back(b.number_or("median_ns", 0.0));
        series.last_sha = sha;
      }
    }
  }
  const JsonValue* benches = v.find("benchmarks");
  if (benches == nullptr || benches->kind != JsonValue::Kind::kObject) {
    placeholder(out, "bench");
    section_close(out);
    return;
  }
  *out += "<table><tr><th>benchmark</th><th>median ns</th><th>GF/s</th>"
          "<th>AI</th>";
  if (peak.valid()) *out += "<th>% of roof</th>";
  *out += "<th>history</th></tr>\n";
  for (const auto& [name, b] : benches->obj) {
    const double median = b.number_or("median_ns", 0.0);
    const double flops = b.number_or("flops", 0.0);
    const double iters = b.number_or("iters", 1.0);
    const double bytes =
        b.number_or("bytes_read", 0.0) + b.number_or("bytes_written", 0.0);
    const double gf =
        median > 0.0 && iters > 0.0 ? flops / iters / median : 0.0;
    const double ai = bytes > 0.0 ? flops / bytes : 0.0;
    *out += "<tr><td>" + html_escape(name) + "</td><td>" +
            fmt_fixed(median, 1) + "</td><td>" + fmt_fixed(gf, 3) +
            "</td><td>" + fmt_fixed(ai, 3) + "</td>";
    if (peak.valid()) {
      *out += "<td>" + fmt_fixed(roof_percent(peak, gf, ai), 1) + "</td>";
    }
    // Sparkline of history medians (lower is better).
    *out += "<td>";
    const auto it = history.find(name);
    if (it != history.end() && it->second.medians.size() >= 2) {
      const std::vector<double>& m = it->second.medians;
      double lo = m[0], hi = m[0];
      for (const double x : m) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      if (hi <= lo) hi = lo + 1.0;
      std::string pts;
      for (std::size_t i = 0; i < m.size(); ++i) {
        if (!pts.empty()) pts += ' ';
        pts += fmt_fixed(120.0 * static_cast<double>(i) /
                             static_cast<double>(m.size() - 1),
                         1) +
               "," + fmt_fixed(22.0 * (1.0 - (m[i] - lo) / (hi - lo)) + 1.0,
                               1);
      }
      *out += "<svg viewBox=\"0 0 120 24\" class=\"spark\"><polyline "
              "points=\"" +
              pts + "\"/></svg>";
    } else {
      *out += "&mdash;";
    }
    *out += "</td></tr>\n";
  }
  *out += "</table>\n";
  if (history_rows > 0) {
    *out += "<p>" + fmt(history_rows) +
            " history row(s) in BENCH_history.jsonl.</p>\n";
  }
  section_close(out);
}

const char* kCss =
    "body{font-family:system-ui,sans-serif;margin:24px auto;max-width:960px;"
    "color:#222}h1{border-bottom:2px solid #444}h2{margin-top:32px}"
    "table{border-collapse:collapse;font-size:13px}"
    "td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}"
    "td:first-child,th:first-child{text-align:left}"
    ".nodata{color:#999;font-style:italic}"
    ".bar{background:#6b8cba;height:10px}"
    ".timeline{width:100%;max-width:720px;border:1px solid #ddd}"
    ".timeline .reward{fill:none;stroke:#b55;stroke-width:1.5}"
    ".timeline .moving{fill:none;stroke:#36c;stroke-width:1.5}"
    ".roofline{width:100%;max-width:520px;border:1px solid #ddd}"
    ".roofline circle{fill:#36c}"
    ".roofline .roof{fill:none;stroke:#b55;stroke-width:1.5}"
    ".spark{width:120px;height:24px}"
    ".spark polyline{fill:none;stroke:#36c;stroke-width:1}"
    ".state-OK{color:#283}.state-WARN{color:#b82}.state-CRIT{color:#c33}";

}  // namespace

std::string generate_report_html(const ReportInputs& inputs) {
  std::string trace_text, metrics_csv, health_json, bench_json;
  std::string history_text, peak_json;
  read_text_file(inputs.trace_jsonl_path, &trace_text);
  read_text_file(inputs.metrics_csv_path, &metrics_csv);
  read_text_file(inputs.health_json_path, &health_json);
  read_text_file(inputs.bench_json_path, &bench_json);
  read_text_file(inputs.history_jsonl_path, &history_text);
  read_text_file(inputs.peak_json_path, &peak_json);

  const std::vector<Event> events = parse_trace_text(trace_text);
  std::vector<Event> rounds;
  for (const Event& ev : events) {
    if (ev.type == "round") rounds.push_back(ev);
  }
  const ProfileReport profile = latest_profile(events);
  const WorkReport work = collect_work(profile);

  MachinePeak peak;  // stays invalid (no roof columns) without a sidecar
  parse_machine_peak(peak_json, &peak);

  std::string out;
  out.reserve(1 << 16);
  out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>";
  out += html_escape(inputs.title);
  out += "</title>\n<style>";
  out += kCss;
  out += "</style>\n</head>\n<body>\n<h1>";
  out += html_escape(inputs.title);
  out += "</h1>\n";
  render_timeline(&out, rounds);
  render_phases(&out, profile);
  render_work(&out, work);
  render_roofline(&out, work, peak);
  render_health(&out, health_json);
  render_bench(&out, bench_json, history_text, peak);
  render_metrics(&out, metrics_csv);
  out += "<footer><p>fms_report &middot; self-contained; generated "
         "deterministically from run artifacts.</p></footer>\n"
         "</body></html>\n";
  return out;
}

void write_report_html(const ReportInputs& inputs,
                       const std::string& out_path) {
  const std::string html = generate_report_html(inputs);
  std::ofstream out(out_path);
  FMS_CHECK_MSG(out.good(), "cannot open report file " << out_path);
  out << html;
}

RunDiff diff_runs(const std::string& trace_a_path,
                  const std::string& trace_b_path) {
  RunDiff diff;
  std::string text_a, text_b;
  if (!read_text_file(trace_a_path, &text_a)) {
    diff.identical = false;
    diff.notes.push_back("cannot read trace A: " + trace_a_path);
    return diff;
  }
  if (!read_text_file(trace_b_path, &text_b)) {
    diff.identical = false;
    diff.notes.push_back("cannot read trace B: " + trace_b_path);
    return diff;
  }
  std::vector<Event> rounds_a, rounds_b;
  for (Event& ev : parse_trace_text(text_a)) {
    if (ev.type == "round") rounds_a.push_back(std::move(ev));
  }
  for (Event& ev : parse_trace_text(text_b)) {
    if (ev.type == "round") rounds_b.push_back(std::move(ev));
  }
  diff.rounds_a = static_cast<int>(rounds_a.size());
  diff.rounds_b = static_cast<int>(rounds_b.size());
  const std::size_t shared = std::min(rounds_a.size(), rounds_b.size());
  for (std::size_t i = 0; i < shared; ++i) {
    const Event& a = rounds_a[i];
    const Event& b = rounds_b[i];
    const auto fa = numeric_fields(a);
    const auto fb = numeric_fields(b);
    if (a.round != b.round) {
      diff.identical = false;
      diff.first_diverging_round = std::min(a.round, b.round);
      diff.first_diverging_field = "(round number)";
      diff.value_a = a.round;
      diff.value_b = b.round;
      return diff;
    }
    const std::size_t nfields = std::min(fa.size(), fb.size());
    for (std::size_t f = 0; f < nfields; ++f) {
      if (fa[f].first != fb[f].first) {
        diff.identical = false;
        diff.first_diverging_round = a.round;
        diff.first_diverging_field = fa[f].first + " vs " + fb[f].first;
        return diff;
      }
      // fms-lint: allow(float-eq) -- exact comparison is the point:
      // bit-identical runs must diff clean, anything else must not.
      if (fa[f].second != fb[f].second) {
        diff.identical = false;
        diff.first_diverging_round = a.round;
        diff.first_diverging_field = fa[f].first;
        diff.value_a = fa[f].second;
        diff.value_b = fb[f].second;
        return diff;
      }
    }
    if (fa.size() != fb.size()) {
      diff.identical = false;
      diff.first_diverging_round = a.round;
      diff.first_diverging_field = "(field count)";
      diff.value_a = static_cast<double>(fa.size());
      diff.value_b = static_cast<double>(fb.size());
      return diff;
    }
  }
  if (rounds_a.size() != rounds_b.size()) {
    diff.identical = false;
    diff.first_diverging_round = static_cast<int>(shared);
    diff.first_diverging_field = "(missing round)";
    diff.value_a = static_cast<double>(rounds_a.size());
    diff.value_b = static_cast<double>(rounds_b.size());
    diff.notes.push_back("round counts differ: " +
                         std::to_string(rounds_a.size()) + " vs " +
                         std::to_string(rounds_b.size()));
  }
  return diff;
}

std::string diff_summary(const RunDiff& diff) {
  std::string out;
  if (diff.identical) {
    out = "runs identical across " + std::to_string(diff.rounds_a) +
          " rounds\n";
  } else {
    out = "runs diverge at round " +
          std::to_string(diff.first_diverging_round) + " on field '" +
          diff.first_diverging_field + "' (" + fmt(diff.value_a) + " vs " +
          fmt(diff.value_b) + ")\n";
  }
  for (const std::string& note : diff.notes) out += "note: " + note + "\n";
  return out;
}

std::string generate_diff_html(const RunDiff& diff, const std::string& name_a,
                               const std::string& name_b) {
  std::string out;
  out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
         "<title>run diff</title>\n<style>";
  out += kCss;
  out += "</style>\n</head>\n<body>\n<h1>run diff</h1>\n";
  out += "<p>A: " + html_escape(name_a) + " (" +
         std::to_string(diff.rounds_a) + " rounds)<br>B: " +
         html_escape(name_b) + " (" + std::to_string(diff.rounds_b) +
         " rounds)</p>\n";
  if (diff.identical) {
    out += "<p class=\"state-OK\">IDENTICAL</p>\n";
  } else {
    out += "<p class=\"state-CRIT\">DIVERGED</p>\n<table>"
           "<tr><th>first diverging round</th><td>" +
           std::to_string(diff.first_diverging_round) +
           "</td></tr><tr><th>field</th><td>" +
           html_escape(diff.first_diverging_field) +
           "</td></tr><tr><th>A value</th><td>" + fmt(diff.value_a) +
           "</td></tr><tr><th>B value</th><td>" + fmt(diff.value_b) +
           "</td></tr></table>\n";
  }
  for (const std::string& note : diff.notes) {
    out += "<p class=\"nodata\">" + html_escape(note) + "</p>\n";
  }
  out += "</body></html>\n";
  return out;
}

}  // namespace fms::obs
