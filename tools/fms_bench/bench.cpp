#include "tools/fms_bench/bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/obs/alloc.h"
#include "src/obs/json.h"
#include "src/obs/profile.h"
#include "src/obs/work.h"

namespace fms::bench {
namespace {

double percentile(std::vector<double> sorted, double q) {
  FMS_CHECK(!sorted.empty());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

// parse_bench_json's field readers: an absent key keeps the default; a
// present one of the wrong kind, a non-finite number (a NaN median would
// pass any gate) or an integer field that is not exactly a T is
// malformed input.
void read_number(const obs::JsonValue& obj, const std::string& key,
                 double* out) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr) return;
  FMS_CHECK_MSG(v->kind == obs::JsonValue::Kind::kNumber &&
                    std::isfinite(v->num),
                "bench json: \"" << key << "\" is not a finite number");
  *out = v->num;
}

template <typename T>
void read_integer(const obs::JsonValue& obj, const std::string& key, T* out) {
  FMS_CHECK_MSG(obj.find(key) == nullptr || obj.integer(key, out),
                "bench json: \"" << key << "\" is not a valid integer");
}

const obs::JsonValue& object_at(const obs::JsonValue& v,
                                const std::string& what) {
  FMS_CHECK_MSG(v.kind == obs::JsonValue::Kind::kObject,
                "bench json: " << what << " is not an object");
  return v;
}

BenchResult parse_result(const obs::JsonValue& v, const std::string& name) {
  BenchResult r;
  r.name = name;
  object_at(v, "benchmark " + name);
  read_number(v, "median_ns", &r.median_ns);
  read_number(v, "p10_ns", &r.p10_ns);
  read_number(v, "p90_ns", &r.p90_ns);
  read_integer(v, "bytes_alloc", &r.bytes_alloc);
  read_integer(v, "allocs", &r.allocs);
  read_integer(v, "flops", &r.flops);
  read_integer(v, "bytes_read", &r.bytes_read);
  read_integer(v, "bytes_written", &r.bytes_written);
  read_integer(v, "iters", &r.iters);
  read_integer(v, "repeats", &r.repeats);
  if (const obs::JsonValue* zones = v.find("zones")) {
    for (const auto& [path, zv] : object_at(*zones, "zones").obj) {
      ZoneSummary z;
      object_at(zv, "zone " + path);
      read_integer(zv, "calls", &z.calls);
      read_integer(zv, "incl_ns", &z.incl_ns);
      read_integer(zv, "excl_ns", &z.excl_ns);
      r.zones[path] = z;
    }
  }
  return r;
}

// Appends `prefix` then `v` under the shared JSON number rule.
void put(std::string& out, const char* prefix, double v) {
  out += prefix;
  obs::json_number(out, v);
}

// Appends `s` as a quoted, escaped JSON string.
void put_string(std::string& out, const std::string& s) {
  out += '"';
  out += obs::json_escape(s);
  out += '"';
}

}  // namespace

std::vector<BenchResult> run_benchmarks(
    const std::vector<Benchmark>& list, const RunOptions& opts,
    const std::function<void(const std::string&)>& log) {
  FMS_CHECK(opts.repeats >= 1 && opts.warmup >= 0);
  std::vector<BenchResult> results;
  for (const Benchmark& bench : list) {
    if (!opts.filter.empty() &&
        bench.name.find(opts.filter) == std::string::npos) {
      continue;
    }
    FMS_CHECK_MSG(bench.iters >= 1, "benchmark " << bench.name
                                                 << " needs iters >= 1");
    std::function<void()> iteration = bench.setup();

    for (int w = 0; w < opts.warmup; ++w) {
      for (int i = 0; i < bench.iters; ++i) iteration();
    }

    std::vector<double> per_iter_ns;
    per_iter_ns.reserve(static_cast<std::size_t>(opts.repeats));
    for (int r = 0; r < opts.repeats; ++r) {
      Stopwatch sw;
      for (int i = 0; i < bench.iters; ++i) iteration();
      per_iter_ns.push_back(sw.elapsed_seconds() * 1e9 /
                            static_cast<double>(bench.iters));
    }
    std::sort(per_iter_ns.begin(), per_iter_ns.end());

    BenchResult result;
    result.name = bench.name;
    result.iters = bench.iters;
    result.repeats = opts.repeats;
    result.median_ns = percentile(per_iter_ns, 0.5);
    result.p10_ns = percentile(per_iter_ns, 0.1);
    result.p90_ns = percentile(per_iter_ns, 0.9);

    if (opts.accounting_pass) {
      // Untimed instrumented repetition: alloc ledger + op tree (time
      // and work). Saved and restored around the pass so the harness
      // composes with externally enabled profiling.
      const bool prof_was = obs::profiling_enabled();
      const obs::AllocStats before_stats = obs::alloc_stats();
      obs::set_profiling_enabled(true);
      obs::reset_profiler();
      obs::reset_alloc_stats();
      for (int i = 0; i < bench.iters; ++i) iteration();
      const obs::AllocStats after = obs::alloc_stats();
      result.bytes_alloc = after.total_bytes;
      result.allocs = after.allocs;
      const obs::ProfileReport report = obs::collect_profile();
      const obs::WorkReport work = obs::collect_work(report);
      result.flops = work.total.flops;
      result.bytes_read = work.total.bytes_read;
      result.bytes_written = work.total.bytes_written;
      for (const obs::ZoneStats& z : report.zones) {
        // reset_profiler keeps the merged tree's shape, so zones from
        // earlier benchmarks reappear with zeroed counters; skip them.
        if (z.calls == 0 && z.allocs == 0) continue;
        result.zones[z.path] = ZoneSummary{z.calls, z.incl_ns, z.excl_ns};
      }
      obs::set_profiling_enabled(prof_was);
      obs::restore_alloc_stats(before_stats);
      obs::reset_profiler();
    }

    if (log) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "%-28s median %12.1f ns  p10 %12.1f  p90 %12.1f  "
                    "alloc %8.1f KB  %7.3f GF/s  ai %5.2f",
                    result.name.c_str(), result.median_ns, result.p10_ns,
                    result.p90_ns,
                    static_cast<double>(result.bytes_alloc) / 1024.0,
                    achieved_gflops(result),
                    bench_arithmetic_intensity(result));
      log(line);
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::string to_json(const std::vector<BenchResult>& results,
                    long long timestamp_unix) {
  std::string out = "{\n  \"schema\": 1";
  put(out, ",\n  \"timestamp_unix\": ", static_cast<double>(timestamp_unix));
  out += ",\n  \"benchmarks\": {";
  bool first = true;
  for (const BenchResult& r : results) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    put_string(out, r.name);
    put(out, ": {\"median_ns\": ", r.median_ns);
    put(out, ", \"p10_ns\": ", r.p10_ns);
    put(out, ", \"p90_ns\": ", r.p90_ns);
    put(out, ", \"bytes_alloc\": ", static_cast<double>(r.bytes_alloc));
    put(out, ", \"allocs\": ", static_cast<double>(r.allocs));
    put(out, ", \"flops\": ", static_cast<double>(r.flops));
    put(out, ", \"bytes_read\": ", static_cast<double>(r.bytes_read));
    put(out, ", \"bytes_written\": ", static_cast<double>(r.bytes_written));
    put(out, ", \"iters\": ", r.iters);
    put(out, ", \"repeats\": ", r.repeats);
    out += ", \"zones\": {";
    bool zfirst = true;
    for (const auto& [path, z] : r.zones) {
      if (!zfirst) out += ", ";
      zfirst = false;
      put_string(out, path);
      put(out, ": {\"calls\": ", static_cast<double>(z.calls));
      put(out, ", \"incl_ns\": ", static_cast<double>(z.incl_ns));
      put(out, ", \"excl_ns\": ", static_cast<double>(z.excl_ns));
      out += "}";
    }
    out += "}}";
  }
  out += "\n  }\n}\n";
  return out;
}

BenchFile parse_bench_json(const std::string& text) {
  obs::JsonValue doc;
  FMS_CHECK_MSG(obs::parse_json(text, &doc),
                "bench json: malformed document or trailing content");
  object_at(doc, "the document");
  BenchFile file;
  read_integer(doc, "schema", &file.schema);
  read_integer(doc, "timestamp_unix", &file.timestamp_unix);
  FMS_CHECK_MSG(file.schema == 1,
                "bench json: unsupported schema " << file.schema);
  const obs::JsonValue* benches = doc.find("benchmarks");
  FMS_CHECK_MSG(benches != nullptr, "bench json: missing \"benchmarks\"");
  for (const auto& [name, v] : object_at(*benches, "benchmarks").obj) {
    file.benchmarks[name] = parse_result(v, name);
  }
  return file;
}

BenchFile load_bench_file(const std::string& path) {
  std::string text;
  FMS_CHECK_MSG(obs::read_text_file(path, &text),
                "cannot open bench file " << path);
  return parse_bench_json(text);
}

CompareOutcome compare_bench_files(const BenchFile& oldf,
                                   const BenchFile& newf, double gate_pct) {
  FMS_CHECK_MSG(gate_pct >= 0.0, "gate percentage must be >= 0");
  CompareOutcome out;
  out.gate_pct = gate_pct;
  for (const auto& [name, old_result] : oldf.benchmarks) {
    const auto it = newf.benchmarks.find(name);
    if (it == newf.benchmarks.end()) {
      out.only_old.push_back(name);
      continue;
    }
    CompareRow row;
    row.name = name;
    row.old_median_ns = old_result.median_ns;
    row.new_median_ns = it->second.median_ns;
    row.delta_pct = old_result.median_ns > 0.0
                        ? 100.0 * (row.new_median_ns - row.old_median_ns) /
                              row.old_median_ns
                        : 0.0;
    row.regressed = row.delta_pct > gate_pct;
    if (row.regressed) out.ok = false;
    out.rows.push_back(std::move(row));
  }
  for (const auto& [name, result] : newf.benchmarks) {
    (void)result;
    if (oldf.benchmarks.find(name) == oldf.benchmarks.end()) {
      out.only_new.push_back(name);
    }
  }
  return out;
}

double achieved_gflops(const BenchResult& r) {
  if (r.flops == 0 || r.iters <= 0 || r.median_ns <= 0.0) return 0.0;
  const double flops_per_iter =
      static_cast<double>(r.flops) / static_cast<double>(r.iters);
  return flops_per_iter / r.median_ns;  // FLOPs/ns == GFLOP/s
}

double bench_arithmetic_intensity(const BenchResult& r) {
  return obs::arithmetic_intensity(
      obs::OpCost{r.flops, r.bytes_read, r.bytes_written, 0});
}

std::string history_row_json(const std::vector<BenchResult>& results,
                             const std::string& git_sha,
                             long long timestamp_unix, std::uint64_t src_loc) {
  std::string out = "{\"schema\": 1, \"git_sha\": ";
  put_string(out, git_sha);
  put(out, ", \"timestamp_unix\": ", static_cast<double>(timestamp_unix));
  put(out, ", \"src_loc\": ", static_cast<double>(src_loc));
  out += ", \"benchmarks\": {";
  bool first = true;
  for (const BenchResult& r : results) {
    if (!first) out += ", ";
    first = false;
    put_string(out, r.name);
    put(out, ": {\"median_ns\": ", r.median_ns);
    put(out, ", \"gflops\": ", achieved_gflops(r));
    put(out, ", \"ai\": ", bench_arithmetic_intensity(r));
    out += "}";
  }
  out += "}}";
  return out;
}

std::uint64_t count_source_lines(const std::string& root) {
  namespace fs = std::filesystem;
  FMS_CHECK_MSG(fs::is_directory(root), "not a source directory: " << root);
  std::uint64_t lines = 0;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(root)) {
    const std::string ext = e.path().extension().string();
    if (!e.is_regular_file() || (ext != ".h" && ext != ".cpp")) continue;
    std::ifstream in(e.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r\f\v") != std::string::npos) ++lines;
    }
  }
  return lines;
}

void append_history_row(const std::string& path, const std::string& row) {
  std::ofstream f(path, std::ios::app);
  FMS_CHECK_MSG(f.good(), "cannot open history file " << path);
  f << row << "\n";
}

std::string format_compare(const CompareOutcome& outcome) {
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-28s %14s %14s %9s  %s\n", "benchmark",
                "old_median_ns", "new_median_ns", "delta", "verdict");
  out += line;
  for (const CompareRow& row : outcome.rows) {
    std::snprintf(line, sizeof(line), "%-28s %14.1f %14.1f %+8.1f%%  %s\n",
                  row.name.c_str(), row.old_median_ns, row.new_median_ns,
                  row.delta_pct,
                  row.regressed ? "REGRESSED" : "ok");
    out += line;
  }
  for (const std::string& name : outcome.only_old) {
    std::snprintf(line, sizeof(line), "%-28s only in old file (removed?)\n",
                  name.c_str());
    out += line;
  }
  for (const std::string& name : outcome.only_new) {
    std::snprintf(line, sizeof(line), "%-28s only in new file (not gated)\n",
                  name.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "gate: %.1f%% -> %s\n", outcome.gate_pct,
                outcome.ok ? "PASS" : "FAIL");
  out += line;
  return out;
}

}  // namespace fms::bench
