// Per-op compute work ledger: exact FLOPs, bytes moved, and element
// counts for every hot-path operator. Each FMS_OP (src/obs/profile.h)
// books its OpCost on its own profiler zone, so "where did the
// nanoseconds go" and "how much math was that" share one node, and the
// ledger is a by-name fold over the profile tree.
//
// The ledger is *deterministic by construction*: costs are pure
// functions of operand shapes (never data content), recorded as integer
// counters, and merged across threads and parent paths by op name — so
// two runs of the same seeded search produce identical ledgers, and a
// run with profiling on is bit-identical to one without.
//
// Conventions (the contract pinned by tests and DESIGN §6.3):
//   - FLOP: every floating add/sub/mul/div/sqrt/max/compare-select
//     counts 1. Costs are the dense algorithmic work implied by the
//     operand shapes.
//   - bytes_read / bytes_written: 4 bytes per float element, each
//     distinct operand array counted ONCE per invocation (compulsory
//     traffic, not cache-level traffic); read-modify-write arrays count
//     on both sides.
//   - elements: output element count (payload bytes for codecs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/profile.h"

namespace fms::obs {

// The ledger has no switch or state of its own. These two aliases exist
// only because fms_benchmark/fms_benchmark.cpp still calls them; new
// code uses set_profiling_enabled / reset_profiler.
inline void set_work_tracking_enabled(bool on) { set_profiling_enabled(on); }
inline void reset_work_ledger() { reset_profiler(); }

// One op, merged across threads and parent paths.
struct WorkRow {
  std::string op;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;  // summed inclusive CPU ns of the folded zones
  OpCost cost;
};

struct WorkReport {
  // Rows in lexicographic op-name order — deterministic regardless of
  // thread scheduling (per-op sums are commutative).
  std::vector<WorkRow> rows;
  std::uint64_t total_calls = 0;
  OpCost total;
};

// Folds the profile's costed zones by op name (across threads and parent
// paths) into one deterministic report; zones with a zero cost only time.
// The one by-name fold: fms_search_cli's roofline line and fms_report
// (over ZoneStats rebuilt from "profile" events) both read its rows.
WorkReport collect_work(const ProfileReport& profile = collect_profile());

// FLOPs per byte moved (read + written); 0 when no bytes moved.
double arithmetic_intensity(const OpCost& cost);

// -----------------------------------------------------------------------
// Cost models: pure shape->cost functions, shared by the recording sites
// and the tests that pin them. All dims are element counts.

// Dense conv2d, groups=g: out = n*cout*ho*wo, macs = out*(cin/g)*kh*kw.
OpCost conv2d_fwd_cost(std::size_t n, std::size_t cin, std::size_t h,
                       std::size_t w, std::size_t cout, std::size_t kh,
                       std::size_t kw, std::size_t ho, std::size_t wo,
                       std::size_t groups);
OpCost conv2d_bwd_cost(std::size_t n, std::size_t cin, std::size_t h,
                       std::size_t w, std::size_t cout, std::size_t kh,
                       std::size_t kw, std::size_t ho, std::size_t wo,
                       std::size_t groups);

// BatchNorm2d over [n, c, h, w].
OpCost batchnorm_fwd_cost(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w, bool train);
OpCost batchnorm_bwd_cost(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w);

// Train mode also writes the byte mask the backward reads.
OpCost relu_fwd_cost(std::size_t numel, bool train);
OpCost relu_bwd_cost(std::size_t numel);

// Pooling over [n, c, h, w] -> out output elements, k x k window.
OpCost maxpool_fwd_cost(std::size_t numel_in, std::size_t out, std::size_t k);
OpCost maxpool_bwd_cost(std::size_t numel_in, std::size_t out);
OpCost avgpool_fwd_cost(std::size_t numel_in, std::size_t out, std::size_t k);
OpCost avgpool_bwd_cost(std::size_t numel_in, std::size_t out, std::size_t k);
OpCost global_avgpool_fwd_cost(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w);
OpCost global_avgpool_bwd_cost(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w);

// C[m,n] = A[m,k] * B[k,n] (any transpose flavor — same algebra).
OpCost matmul_cost(std::size_t m, std::size_t k, std::size_t n);

// Linear y[n_batch, out] = x[n_batch, in] * W^T + b.
OpCost linear_fwd_cost(std::size_t n_batch, std::size_t in, std::size_t out);
OpCost linear_bwd_cost(std::size_t n_batch, std::size_t in, std::size_t out);

// y += x over numel elements (y is read-modify-write).
OpCost axpy_cost(std::size_t numel);

// Aggregation estimators over m updates of dimension d. Costs are the
// dense shape-based work (presence masks ignored — the point is a
// stable, comparable number per estimator call).
OpCost agg_mean_cost(std::size_t m, std::size_t d);
OpCost agg_clipped_mean_cost(std::size_t m, std::size_t d);
OpCost agg_coordinate_median_cost(std::size_t m, std::size_t d);
OpCost agg_trimmed_mean_cost(std::size_t m, std::size_t d);
OpCost agg_krum_cost(std::size_t m, std::size_t d);

// Delay compensation: out[i] = h + lambda*h*h*(fresh[i] - stale[i]).
OpCost dc_compensate_cost(std::size_t dim);

// Message encode/decode: pure data movement, flops = 0.
OpCost codec_cost(std::size_t payload_bytes);

// Supernet gather/scatter/densify over numel floats: booked as bytes
// only (read and written once each), flops = 0.
OpCost copy_cost(std::size_t numel);

// Transmission scheduling over k links: bytes_written is the simulated
// wire traffic (the sum of scheduled model bytes), elements = k links.
OpCost net_transmission_cost(std::size_t k, std::uint64_t wire_bytes);

// ceil(log2(n)) for n >= 1; the sort-cost exponent in the agg models.
std::size_t ceil_log2(std::size_t n);

}  // namespace fms::obs
