// Machine-peak calibration for roofline analysis: a one-shot micro-bench
// measuring peak scalar FLOP rate, peak vectorized FLOP rate, and
// streaming memory bandwidth, cached to a JSON sidecar so repeated
// `fms_bench` / `--report` runs pay the ~tens-of-milliseconds cost once
// per machine.
//
// The numbers are *measurements of the host*, never inputs to the
// search: calibration touches no RNG stream and no search state, so
// trajectories stay bit-identical whether or not a peak file exists.
#pragma once

#include <string>

#include "src/obs/work.h"

namespace fms::obs {

struct MachinePeak {
  double scalar_gflops = 0.0;  // dependent-chain FMA throughput
  double vector_gflops = 0.0;  // cache-resident vectorizable sweep
  double stream_gbps = 0.0;    // triad bandwidth, GB/s
  double calibrated_ms = 0.0;  // how long calibration took

  bool valid() const {
    return scalar_gflops > 0.0 && vector_gflops > 0.0 && stream_gbps > 0.0;
  }
};

// Runs the micro-bench (best-of-3 per component, ~10-50 ms total).
MachinePeak calibrate_machine_peak();

// JSON sidecar round-trip. %.17g formatting, so parse(to_json(p)) == p.
std::string peak_to_json(const MachinePeak& peak);
bool parse_machine_peak(const std::string& json, MachinePeak* out);

// Reads `path` if it holds a valid peak file; otherwise calibrates and
// best-effort writes the result there (failure to write is not fatal —
// the calibration is still returned).
MachinePeak load_or_calibrate(const std::string& path);

// Attainable GFLOP/s at arithmetic intensity `ai` (FLOPs/byte) under the
// classic roofline: min(peak compute, ai * peak bandwidth).
double roofline_gflops(const MachinePeak& peak, double ai);

// Achieved `gflops` as a percentage of the roof at `ai`; 0 without a
// roof (invalid peak or ai <= 0).
double roof_percent(const MachinePeak& peak, double gflops, double ai);

// Sets the fms.roofline.scalar_gflops / fms.roofline.vector_gflops /
// fms.roofline.stream_gbps gauges. No-op when telemetry is disabled.
void emit_roofline_telemetry(const MachinePeak& peak);

}  // namespace fms::obs
