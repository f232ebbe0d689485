#include "src/obs/work.h"

#include <map>
#include <utility>

namespace fms::obs {

WorkReport collect_work(const ProfileReport& profile) {
  // Per-op sums are commutative, so a name-keyed map makes the fold
  // independent of thread registration order and of the parent path.
  std::map<std::string, WorkRow> merged;
  for (const ZoneStats& z : profile.zones) {
    if (z.cost == OpCost{}) continue;
    WorkRow& row = merged[z.name];
    row.op = z.name;
    row.calls += z.calls;
    row.incl_ns += z.incl_ns;
    row.cost += z.cost;
  }
  WorkReport report;
  report.rows.reserve(merged.size());
  for (auto& [op, row] : merged) {
    report.total_calls += row.calls;
    report.total += row.cost;
    report.rows.push_back(std::move(row));
  }
  return report;
}

double arithmetic_intensity(const OpCost& cost) {
  const std::uint64_t bytes = cost.bytes_read + cost.bytes_written;
  if (bytes == 0) return 0.0;
  return static_cast<double>(cost.flops) / static_cast<double>(bytes);
}

// -----------------------------------------------------------------------
// Cost models. All counts follow the header's FLOP / compulsory-bytes
// conventions; every formula here is pinned by tests/test_work.cpp.

namespace {
constexpr std::uint64_t kF = 4;  // bytes per float element
}  // namespace

std::size_t ceil_log2(std::size_t n) {
  std::size_t bits = 0;
  std::size_t pow2 = 1;
  while (pow2 < n) {
    pow2 *= 2;
    ++bits;
  }
  return bits;
}

OpCost conv2d_fwd_cost(std::size_t n, std::size_t cin, std::size_t h,
                       std::size_t w, std::size_t cout, std::size_t kh,
                       std::size_t kw, std::size_t ho, std::size_t wo,
                       std::size_t groups) {
  const std::uint64_t out =
      static_cast<std::uint64_t>(n) * cout * ho * wo;
  const std::uint64_t cin_g = cin / (groups == 0 ? 1 : groups);
  const std::uint64_t macs = out * cin_g * kh * kw;
  const std::uint64_t xnumel = static_cast<std::uint64_t>(n) * cin * h * w;
  const std::uint64_t wnumel =
      static_cast<std::uint64_t>(cout) * cin_g * kh * kw;
  OpCost cost;
  cost.flops = 2 * macs;  // multiply + accumulate
  cost.bytes_read = kF * (xnumel + wnumel);
  cost.bytes_written = kF * out;
  cost.elements = out;
  return cost;
}

OpCost conv2d_bwd_cost(std::size_t n, std::size_t cin, std::size_t h,
                       std::size_t w, std::size_t cout, std::size_t kh,
                       std::size_t kw, std::size_t ho, std::size_t wo,
                       std::size_t groups) {
  const std::uint64_t out =
      static_cast<std::uint64_t>(n) * cout * ho * wo;
  const std::uint64_t cin_g = cin / (groups == 0 ? 1 : groups);
  const std::uint64_t macs = out * cin_g * kh * kw;
  const std::uint64_t xnumel = static_cast<std::uint64_t>(n) * cin * h * w;
  const std::uint64_t wnumel =
      static_cast<std::uint64_t>(cout) * cin_g * kh * kw;
  OpCost cost;
  cost.flops = 4 * macs;  // grad_x and grad_w are each a macs-sized GEMM
  cost.bytes_read = kF * (out + xnumel + wnumel);
  cost.bytes_written = kF * (xnumel + wnumel);
  cost.elements = xnumel + wnumel;
  return cost;
}

OpCost batchnorm_fwd_cost(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w, bool train) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  const std::uint64_t ch = c;
  OpCost cost;
  if (train) {
    // mean pass (1/elem) + var pass (3/elem) + normalize (4/elem) and
    // per-channel: mean/var finalize, inv_std (div+sqrt+add), running
    // stats update (2 * (mul+mul+add)) ~= 10/channel.
    cost.flops = 8 * numel + 10 * ch;
    cost.bytes_read = kF * (numel + 4 * ch);  // x + gamma/beta/running*2
    cost.bytes_written = kF * (2 * numel + 2 * ch);  // y, xhat, running*2
  } else {
    // normalize with running stats: (x - mean) * inv_std * g + b, with
    // inv_std derived per channel (div+sqrt+add).
    cost.flops = 4 * numel + 3 * ch;
    cost.bytes_read = kF * (numel + 4 * ch);
    cost.bytes_written = kF * numel;
  }
  cost.elements = numel;
  return cost;
}

OpCost batchnorm_bwd_cost(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  OpCost cost;
  // pass 1: sum_gy + sum_gy_xhat (3/elem); pass 2: the gx formula
  // (5/elem); per channel: two means + two param-grad accumulates.
  cost.flops = 8 * numel + 4 * static_cast<std::uint64_t>(c);
  cost.bytes_read = kF * (2 * numel + 4 * static_cast<std::uint64_t>(c));
  cost.bytes_written = kF * (numel + 2 * static_cast<std::uint64_t>(c));
  cost.elements = numel;
  return cost;
}

OpCost relu_fwd_cost(std::size_t numel, bool train) {
  OpCost cost;
  cost.flops = numel;  // one compare-select per element
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel);
  cost.bytes_written =
      (kF + (train ? 1 : 0)) * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

OpCost relu_bwd_cost(std::size_t numel) {
  OpCost cost;
  cost.flops = numel;  // one select per element
  // gy + the forward's byte mask x > 0.
  cost.bytes_read = (kF + 1) * static_cast<std::uint64_t>(numel);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

OpCost maxpool_fwd_cost(std::size_t numel_in, std::size_t out,
                        std::size_t k) {
  OpCost cost;
  cost.flops = static_cast<std::uint64_t>(out) * k * k;  // window compares
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel_in);
  // y (4B floats) + argmax window taps (1B each).
  cost.bytes_written = (kF + 1) * static_cast<std::uint64_t>(out);
  cost.elements = out;
  return cost;
}

OpCost maxpool_bwd_cost(std::size_t numel_in, std::size_t out) {
  OpCost cost;
  cost.flops = out;  // one scatter-add per output grad
  cost.bytes_read = (kF + 1) * static_cast<std::uint64_t>(out);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel_in);
  cost.elements = numel_in;
  return cost;
}

OpCost avgpool_fwd_cost(std::size_t numel_in, std::size_t out,
                        std::size_t k) {
  OpCost cost;
  cost.flops = static_cast<std::uint64_t>(out) * (k * k + 1);  // sum + div
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel_in);
  cost.bytes_written = kF * static_cast<std::uint64_t>(out);
  cost.elements = out;
  return cost;
}

OpCost avgpool_bwd_cost(std::size_t numel_in, std::size_t out,
                        std::size_t k) {
  OpCost cost;
  cost.flops = static_cast<std::uint64_t>(out) * (k * k + 1);
  cost.bytes_read = kF * static_cast<std::uint64_t>(out);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel_in);
  cost.elements = numel_in;
  return cost;
}

OpCost global_avgpool_fwd_cost(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  const std::uint64_t nc = static_cast<std::uint64_t>(n) * c;
  OpCost cost;
  cost.flops = numel + nc;  // sum everything + one div per channel
  cost.bytes_read = kF * numel;
  cost.bytes_written = kF * nc;
  cost.elements = nc;
  return cost;
}

OpCost global_avgpool_bwd_cost(std::size_t n, std::size_t c, std::size_t h,
                               std::size_t w) {
  const std::uint64_t numel = static_cast<std::uint64_t>(n) * c * h * w;
  const std::uint64_t nc = static_cast<std::uint64_t>(n) * c;
  OpCost cost;
  cost.flops = nc;  // one scale per channel, broadcast
  cost.bytes_read = kF * nc;
  cost.bytes_written = kF * numel;
  cost.elements = numel;
  return cost;
}

OpCost matmul_cost(std::size_t m, std::size_t k, std::size_t n) {
  OpCost cost;
  cost.flops = 2ull * m * k * n;
  cost.bytes_read = kF * (static_cast<std::uint64_t>(m) * k +
                          static_cast<std::uint64_t>(k) * n);
  cost.bytes_written = kF * static_cast<std::uint64_t>(m) * n;
  cost.elements = static_cast<std::uint64_t>(m) * n;
  return cost;
}

OpCost linear_fwd_cost(std::size_t n_batch, std::size_t in,
                       std::size_t out) {
  OpCost cost;
  // GEMM + bias add.
  cost.flops = 2ull * n_batch * in * out + static_cast<std::uint64_t>(n_batch) * out;
  cost.bytes_read = kF * (static_cast<std::uint64_t>(n_batch) * in +
                          static_cast<std::uint64_t>(out) * in + out);
  cost.bytes_written = kF * static_cast<std::uint64_t>(n_batch) * out;
  cost.elements = static_cast<std::uint64_t>(n_batch) * out;
  return cost;
}

OpCost linear_bwd_cost(std::size_t n_batch, std::size_t in,
                       std::size_t out) {
  const std::uint64_t nio = static_cast<std::uint64_t>(n_batch) * in * out;
  const std::uint64_t wsz = static_cast<std::uint64_t>(out) * in;
  OpCost cost;
  // grad_w GEMM + grad_x GEMM + bias-grad reduce.
  cost.flops = 4 * nio + static_cast<std::uint64_t>(n_batch) * out;
  // gy + x + w, plus grad_w / grad_b read-modify-write.
  cost.bytes_read = kF * (static_cast<std::uint64_t>(n_batch) * out +
                          static_cast<std::uint64_t>(n_batch) * in + wsz +
                          wsz + out);
  cost.bytes_written =
      kF * (static_cast<std::uint64_t>(n_batch) * in + wsz + out);
  cost.elements = static_cast<std::uint64_t>(n_batch) * in + wsz + out;
  return cost;
}

OpCost axpy_cost(std::size_t numel) {
  OpCost cost;
  cost.flops = numel;
  cost.bytes_read = 2 * kF * static_cast<std::uint64_t>(numel);  // y rmw + x
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

namespace {
OpCost agg_base_cost(std::size_t d, std::size_t carried) {
  OpCost cost;
  cost.bytes_read = kF * static_cast<std::uint64_t>(carried);
  cost.bytes_written = kF * static_cast<std::uint64_t>(d);
  cost.elements = d;
  return cost;
}
}  // namespace

OpCost agg_mean_cost(std::size_t d, std::size_t carried) {
  OpCost cost = agg_base_cost(d, carried);
  // one add per carried value + final scale.
  cost.flops = static_cast<std::uint64_t>(carried) + d;
  return cost;
}

OpCost agg_clipped_mean_cost(std::size_t d, std::size_t carried) {
  OpCost cost = agg_base_cost(d, carried);
  // norm pass (2/value: mul+add) + scaled sum (2/value) + final scale.
  cost.flops = 4ull * carried + d;
  return cost;
}

OpCost agg_coordinate_median_cost(std::size_t m, std::size_t d,
                                  std::size_t carried) {
  OpCost cost = agg_base_cost(d, carried);
  // per-coordinate sort (log m compares per value) + participation scale.
  cost.flops = static_cast<std::uint64_t>(carried) * ceil_log2(m) + d;
  return cost;
}

OpCost agg_trimmed_mean_cost(std::size_t m, std::size_t d,
                             std::size_t carried) {
  OpCost cost = agg_base_cost(d, carried);
  // per-coordinate sort + trimmed sum + final scale.
  cost.flops = static_cast<std::uint64_t>(carried) * (ceil_log2(m) + 1) + d;
  return cost;
}

OpCost agg_krum_cost(std::size_t m, std::size_t d, std::size_t carried) {
  OpCost cost = agg_base_cost(d, carried);
  // Each value meets the m-1 other updates once in the pairwise squared
  // distances (3 flops: sub, mul, add, charged once per pair) + mean of
  // the keep set (bounded by the carried values) + final scale.
  const std::uint64_t pair_values =
      static_cast<std::uint64_t>(m > 0 ? m - 1 : 0) * carried / 2;
  cost.flops = 3 * pair_values + carried + d;
  return cost;
}

OpCost dc_compensate_cost(std::size_t dim) {
  OpCost cost;
  // h*h, lambda*, (fresh-stale), *, + per element.
  cost.flops = 5ull * dim;
  cost.bytes_read = 3 * kF * static_cast<std::uint64_t>(dim);
  cost.bytes_written = kF * static_cast<std::uint64_t>(dim);
  cost.elements = dim;
  return cost;
}

OpCost codec_cost(std::size_t payload_bytes) {
  OpCost cost;
  cost.bytes_read = payload_bytes;
  cost.bytes_written = payload_bytes;
  cost.elements = payload_bytes;
  return cost;
}

OpCost copy_cost(std::size_t numel) {
  OpCost cost;
  cost.bytes_read = kF * static_cast<std::uint64_t>(numel);
  cost.bytes_written = kF * static_cast<std::uint64_t>(numel);
  cost.elements = numel;
  return cost;
}

OpCost net_transmission_cost(std::size_t k, std::uint64_t wire_bytes) {
  OpCost cost;
  // avg + per-link divide + max + sum over k links.
  cost.flops = 4ull * k;
  cost.bytes_written = wire_bytes;
  cost.elements = k;
  return cost;
}

}  // namespace fms::obs
