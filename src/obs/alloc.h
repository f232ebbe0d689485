// Tensor allocation accounting.
//
// The paper's round-time and memory claims need to know where tensor
// bytes go: how many allocations a round performs, how much storage is
// live at once, and whether rounds leak. The hooks below are called from
// Tensor's special members (src/tensor/tensor.h) — the only tensor
// storage in the codebase — and cost one relaxed atomic load when
// profiling is disabled: the ledger follows the profiler's flag.
//
// This header is deliberately dependency-free (atomics only) so the
// tensor header can include it without pulling the rest of src/obs into
// every translation unit; that is why the profiler's flag lives here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace fms::obs {

namespace detail {
inline std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

struct AllocCounters {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> total_bytes{0};
  // live_bytes is signed: profiling may be switched on while tensors
  // allocated earlier are still alive, so frees can transiently outrun
  // tracked allocations.
  std::atomic<std::int64_t> live_bytes{0};
  std::atomic<std::int64_t> peak_live_bytes{0};
};

inline AllocCounters& alloc_counters() {
  static AllocCounters counters;
  return counters;
}
}  // namespace detail

inline bool profiling_enabled() {
  return detail::profiling_flag().load(std::memory_order_relaxed);
}

inline void set_profiling_enabled(bool on) {
  detail::profiling_flag().store(on, std::memory_order_relaxed);
}

// The ledger has no switch of its own. This alias exists only because
// fms_benchmark/fms_benchmark.cpp still calls it; new code uses
// set_profiling_enabled.
inline void set_alloc_tracking_enabled(bool on) { set_profiling_enabled(on); }

// Point-in-time snapshot of the tensor allocation ledger.
struct AllocStats {
  std::uint64_t allocs = 0;       // tensor buffers allocated
  std::uint64_t frees = 0;        // tensor buffers released
  std::uint64_t total_bytes = 0;  // cumulative bytes ever allocated
  std::int64_t live_bytes = 0;    // currently live tensor bytes
  std::int64_t peak_live_bytes = 0;
};

// Defined in src/obs/profile.cpp. Attributes tensor
// allocations to the innermost active profiler zone, if any.
void profile_note_alloc(std::size_t bytes);

inline void track_alloc(std::size_t bytes) {
  if (bytes == 0 || !profiling_enabled()) return;
  detail::AllocCounters& c = detail::alloc_counters();
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  c.total_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::int64_t live =
      c.live_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                             std::memory_order_relaxed) +
      static_cast<std::int64_t>(bytes);
  std::int64_t peak = c.peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !c.peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  profile_note_alloc(bytes);
}

inline void track_free(std::size_t bytes) {
  if (bytes == 0 || !profiling_enabled()) return;
  detail::AllocCounters& c = detail::alloc_counters();
  c.frees.fetch_add(1, std::memory_order_relaxed);
  c.live_bytes.fetch_sub(static_cast<std::int64_t>(bytes),
                         std::memory_order_relaxed);
}

inline AllocStats alloc_stats() {
  const detail::AllocCounters& c = detail::alloc_counters();
  AllocStats s;
  s.allocs = c.allocs.load(std::memory_order_relaxed);
  s.frees = c.frees.load(std::memory_order_relaxed);
  s.total_bytes = c.total_bytes.load(std::memory_order_relaxed);
  s.live_bytes = c.live_bytes.load(std::memory_order_relaxed);
  s.peak_live_bytes = c.peak_live_bytes.load(std::memory_order_relaxed);
  return s;
}

// Overwrites the ledger with `s` — lets a nested measurement window
// (the bench harness's accounting pass) restore the outer window's
// counts after a destructive reset.
inline void restore_alloc_stats(const AllocStats& s) {
  detail::AllocCounters& c = detail::alloc_counters();
  c.allocs.store(s.allocs, std::memory_order_relaxed);
  c.frees.store(s.frees, std::memory_order_relaxed);
  c.total_bytes.store(s.total_bytes, std::memory_order_relaxed);
  c.live_bytes.store(s.live_bytes, std::memory_order_relaxed);
  c.peak_live_bytes.store(s.peak_live_bytes, std::memory_order_relaxed);
}

inline void reset_alloc_stats() { restore_alloc_stats(AllocStats{}); }

}  // namespace fms::obs
