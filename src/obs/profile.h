// In-process scoped profiler: a tree of named ops with inclusive /
// exclusive CPU time, call counts, compute cost (FLOPs and bytes, the
// work ledger of src/obs/work.h) and the tensor-allocation ledger
// (src/obs/alloc.h), all attributed per node.
//
// FMS_OP("nn.conv_fwd", cost) is the one instrumentation point: it opens
// a zone for the enclosing scope and adds `cost` (an OpCost expression)
// to that zone's node. Nesting builds a per-thread tree, merged
// deterministically at collection time. ThreadPool workers adopt the
// dispatching thread's open zone path (AdoptedZones below), so an op
// entered on a worker lands at the same path it would reach serially
// ("round/local_train/nn.conv_fwd"). Time is per-thread CPU time
// (CLOCK_THREAD_CPUTIME_ID), so a zone's cost is what *it* burned, not
// what it waited on.
//
// When profiling is disabled an op reads one relaxed atomic and does
// nothing else; the cost expression is not even evaluated. Search
// results are bit-identical to an uninstrumented build (the profiler
// only ever observes; it never touches RNG streams, float accumulation
// order, or iteration order).
//
// Op names must be string literals (or otherwise outlive the profiler):
// nodes store the pointer, not a copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fms::obs {

// One invocation's compute cost. Additive: recording twice doubles
// everything. Conventions and the cost models live in src/obs/work.h.
struct OpCost {
  std::uint64_t flops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t elements = 0;

  OpCost& operator+=(const OpCost& o) {
    flops += o.flops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    elements += o.elements;
    return *this;
  }
  bool operator==(const OpCost&) const = default;
};

namespace detail {
inline std::atomic<bool>& profiling_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

// Out-of-line slow paths (profile.cpp); called only when profiling is on.
// zone_enter books `cost` on the zone's node and returns that node, which
// zone_add_cost books any late cost into.
int zone_enter(const char* name, const OpCost& cost);
void zone_exit();
void zone_add_cost(int node, const OpCost& cost);
}  // namespace detail

inline bool profiling_enabled() {
  return detail::profiling_flag().load(std::memory_order_relaxed);
}

void set_profiling_enabled(bool on);

// Zeroes every zone's counters (tree structure and any active zone stack
// are preserved, so it is safe to call between benchmark repetitions even
// if an outer zone is open; the open zones restart their clocks).
void reset_profiler();

// One merged zone across all threads, identified by its path from the
// root ("round/aggregate/agg.estimate").
struct ZoneStats {
  std::string path;
  std::string name;  // last path segment
  int depth = 0;     // 0 for top-level zones
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;  // CPU ns inside the zone, children included
  std::uint64_t excl_ns = 0;  // incl_ns minus child zones' inclusive time
  OpCost cost;                // summed FMS_OP costs; zero for time-only
  std::uint64_t alloc_bytes = 0;  // tensor bytes allocated inside the zone
  std::uint64_t allocs = 0;       // tensor allocations inside the zone
};

struct ProfileReport {
  // Depth-first over the merged tree, children in lexicographic name
  // order — deterministic regardless of thread scheduling.
  std::vector<ZoneStats> zones;
};

// Merges every thread's tree into one deterministic report. Open zones
// contribute their finished calls only.
ProfileReport collect_profile();

// Human-readable table sorted by exclusive (self) time, one row per
// zone, for fms_search_cli --profile and fms_bench --profile.
std::string self_time_table(const ProfileReport& report,
                            std::size_t max_rows = 40);

// Emits the report into the active Telemetry context: one "profile"
// trace event per zone, fms.prof.<path>.* gauges, the fms.alloc.*
// ledger, and the fms.rss.peak_bytes gauge. No-op when telemetry is
// disabled.
void emit_profile_telemetry(const ProfileReport& report);

// The calling thread's open zone path, outermost first (empty when
// profiling is off or no zone is open). ThreadPool::parallel_for hands
// it to its workers.
std::vector<const char*> open_zone_path();

// RAII: opens `path` on this thread as adopted frames, so the zones the
// thread enters meanwhile nest beneath the dispatching thread's zone.
// Adopted frames book no call, time or child time: the dispatcher's zones
// keep their own thread's CPU time, a parent's exclusive time never goes
// negative, and only the dispatcher's zones are top-level.
class AdoptedZones {
 public:
  explicit AdoptedZones(const std::vector<const char*>& path);
  ~AdoptedZones();

  AdoptedZones(const AdoptedZones&) = delete;
  AdoptedZones& operator=(const AdoptedZones&) = delete;

 private:
  std::size_t depth_ = 0;
};

// Process peak resident set size in bytes (0 when unavailable).
std::int64_t peak_rss_bytes();

// RAII op handle: a zone for its lifetime plus the cost booked on it.
// `name` must outlive the profiler (string literal). Costs are callables
// returning OpCost, invoked only when profiling is on.
class ScopedOp {
 public:
  explicit ScopedOp(const char* name)
      : ScopedOp(name, [] { return OpCost{}; }) {}
  template <typename CostFn>
  ScopedOp(const char* name, CostFn&& cost) : active_(profiling_enabled()) {
    if (active_) node_ = detail::zone_enter(name, cost());
  }

  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

  ~ScopedOp() {
    if (active_) detail::zone_exit();
  }

  // For costs known only once the op has done its work (an encoded
  // payload's size): books onto this op's node, wherever it sits.
  template <typename CostFn>
  void add(CostFn&& cost) {
    if (active_) detail::zone_add_cost(node_, cost());
  }

 private:
  bool active_;
  int node_ = 0;
};

}  // namespace fms::obs

#define FMS_OBS_CONCAT_INNER(a, b) a##b
#define FMS_OBS_CONCAT(a, b) FMS_OBS_CONCAT_INNER(a, b)
// FMS_OP(name, cost): profile the enclosing scope as op `name` and book
// `cost` (an OpCost expression; `{}` for a zone that only times) on it.
// Variadic so a cost expression may contain unparenthesized commas.
#define FMS_OP(name, ...)                                              \
  ::fms::obs::ScopedOp FMS_OBS_CONCAT(fms_scoped_op_, __LINE__)(        \
      name, [&]() -> ::fms::obs::OpCost { return __VA_ARGS__; })
