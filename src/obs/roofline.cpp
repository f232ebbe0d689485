#include "src/obs/roofline.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/obs/json.h"
#include "src/obs/telemetry.h"

namespace fms::obs {
namespace {

// Sink the result of a kernel so the optimizer cannot delete the loop.
volatile float g_sink = 0.0F;

// Peak scalar rate: four independent dependent-multiply-add chains. The
// serial dependence within each chain defeats vectorization; four chains
// keep the FMA pipes busy without becoming a SIMD candidate.
// fms-lint: allow(wall-clock) -- calibration measures the host machine
double measure_scalar_gflops() {
  const int iters = 2'000'000;
  float x0 = 1.0F, x1 = 1.1F, x2 = 1.2F, x3 = 1.3F;
  const float a = 0.999999F, b = 1e-7F;
  const Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    x0 = x0 * a + b;
    x1 = x1 * a + b;
    x2 = x2 * a + b;
    x3 = x3 * a + b;
  }
  const double secs = sw.elapsed_seconds();
  g_sink = x0 + x1 + x2 + x3;
  const double flops = 2.0 * 4.0 * static_cast<double>(iters);
  return secs > 0.0 ? flops / secs / 1e9 : 0.0;
}

// Peak vector rate: an a[i] = a[i]*s + b[i] sweep over an L1/L2-resident
// array — the compiler auto-vectorizes it, so this approximates SIMD FMA
// throughput at cache bandwidth.
double measure_vector_gflops() {
  const std::size_t n = 16 * 1024;
  const int sweeps = 2'000;
  std::vector<float> a(n, 1.0F), b(n, 1e-7F);
  const float s = 0.999999F;
  const Stopwatch sw;
  for (int it = 0; it < sweeps; ++it) {
    float* pa = a.data();
    const float* pb = b.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pa[i] * s + pb[i];
  }
  const double secs = sw.elapsed_seconds();
  g_sink = a[0] + a[n / 2];
  const double flops = 2.0 * static_cast<double>(n) * sweeps;
  return secs > 0.0 ? flops / secs / 1e9 : 0.0;
}

// Streaming bandwidth: the classic triad a[i] = b[i] + s*c[i] over
// arrays far larger than LLC; 3 arrays x 4 bytes move per element.
double measure_stream_gbps() {
  const std::size_t n = 8 * 1024 * 1024;
  const int sweeps = 3;
  std::vector<float> a(n, 0.0F), b(n, 1.0F), c(n, 2.0F);
  const float s = 3.0F;
  const Stopwatch sw;
  for (int it = 0; it < sweeps; ++it) {
    float* pa = a.data();
    const float* pb = b.data();
    const float* pc = c.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
  }
  const double secs = sw.elapsed_seconds();
  g_sink = a[0] + a[n - 1];
  const double bytes = 3.0 * 4.0 * static_cast<double>(n) * sweeps;
  return secs > 0.0 ? bytes / secs / 1e9 : 0.0;
}

template <typename F>
double best_of(int reps, F measure) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) best = std::max(best, measure());
  return best;
}

}  // namespace

MachinePeak calibrate_machine_peak() {
  MachinePeak peak;
  const Stopwatch sw;  // fms-lint: allow(wall-clock) -- calibration timing
  peak.scalar_gflops = best_of(3, measure_scalar_gflops);
  peak.vector_gflops = best_of(3, measure_vector_gflops);
  peak.stream_gbps = best_of(3, measure_stream_gbps);
  // A machine can't stream math slower than it computes serially; keep
  // the ordering sane even under noisy schedulers.
  peak.vector_gflops = std::max(peak.vector_gflops, peak.scalar_gflops);
  peak.calibrated_ms = sw.elapsed_seconds() * 1e3;
  return peak;
}

// %.17g rather than json_number: the sidecar must round-trip exactly,
// and calibrated rates are rarely integers.
std::string peak_to_json(const MachinePeak& peak) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\": 1, \"scalar_gflops\": %.17g, "
                "\"vector_gflops\": %.17g, \"stream_gbps\": %.17g, "
                "\"calibrated_ms\": %.17g}\n",
                peak.scalar_gflops, peak.vector_gflops, peak.stream_gbps,
                peak.calibrated_ms);
  return buf;
}

bool parse_machine_peak(const std::string& json, MachinePeak* out) {
  JsonValue v;
  int schema = 0;
  if (!parse_json(json, &v) || !v.integer("schema", &schema) || schema != 1) {
    return false;
  }
  MachinePeak peak;
  peak.scalar_gflops = v.number_or("scalar_gflops", 0.0);
  peak.vector_gflops = v.number_or("vector_gflops", 0.0);
  peak.stream_gbps = v.number_or("stream_gbps", 0.0);
  peak.calibrated_ms = v.number_or("calibrated_ms", 0.0);  // optional
  if (!peak.valid()) return false;
  *out = peak;
  return true;
}

MachinePeak load_or_calibrate(const std::string& path) {
  std::string text;
  MachinePeak peak;
  if (read_text_file(path, &text) && parse_machine_peak(text, &peak)) {
    return peak;
  }
  peak = calibrate_machine_peak();
  if (!path.empty()) {
    std::ofstream out(path);  // best effort: calibration stands either way
    if (out) out << peak_to_json(peak);
  }
  return peak;
}

double roofline_gflops(const MachinePeak& peak, double ai) {
  if (!peak.valid() || ai <= 0.0) return 0.0;
  return std::min(peak.vector_gflops, ai * peak.stream_gbps);
}

double roof_percent(const MachinePeak& peak, double gflops, double ai) {
  const double roof = roofline_gflops(peak, ai);
  return roof > 0.0 ? 100.0 * gflops / roof : 0.0;
}

void emit_roofline_telemetry(const MachinePeak& peak) {
  if (!telemetry_enabled()) return;
  MetricsRegistry& registry = Telemetry::instance().registry();
  registry.gauge("fms.roofline.scalar_gflops").set(peak.scalar_gflops);
  registry.gauge("fms.roofline.vector_gflops").set(peak.vector_gflops);
  registry.gauge("fms.roofline.stream_gbps").set(peak.stream_gbps);
}

}  // namespace fms::obs
