// Tests for the in-process profiler and the tensor allocation ledger
// (src/obs/profile.*, src/obs/alloc.h): zone-tree structure and
// exclusive/inclusive time bookkeeping, exact and deterministic
// allocation accounting across federated rounds (including a checkpoint
// resume), the telemetry emission path, and — the load-bearing guarantee
// — bit-identical search results with profiling on versus off.
#include <gtest/gtest.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/checkpoint.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/obs/alloc.h"
#include "src/obs/profile.h"
#include "src/obs/sinks.h"
#include "src/obs/telemetry.h"
#include "src/tensor/tensor.h"

namespace fms {
namespace {

// Every test drives the process-global profiler/ledger flags; start and
// end clean so ordering between tests (and other test files) is moot.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_telemetry_enabled(false);
    obs::set_profiling_enabled(false);
    obs::set_alloc_tracking_enabled(false);
    obs::reset_profiler();
    obs::reset_alloc_stats();
    obs::Telemetry::instance().clear_sinks();
    obs::Telemetry::instance().registry().reset();
  }
  void TearDown() override { SetUp(); }
};

struct TinyWorld {
  TrainTest data;
  std::vector<std::vector<int>> partition;
  SearchConfig cfg;
};

// Callers must keep the returned TinyWorld at a stable address before
// constructing a FederatedSearch from it: participants keep pointers
// into `data`.
TinyWorld make_tiny_world(std::uint64_t seed) {
  Rng rng(seed);
  SynthSpec spec;
  spec.train_size = 160;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest data = make_synth_c10(spec, rng);
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 4;
  cfg.seed = seed;
  auto partition =
      iid_partition(data.train.size(), cfg.schedule.num_participants, rng);
  return TinyWorld{std::move(data), std::move(partition), cfg};
}

const obs::ZoneStats* find_zone(const obs::ProfileReport& report,
                                const std::string& path) {
  for (const obs::ZoneStats& z : report.zones) {
    if (z.path == path) return &z;
  }
  return nullptr;
}

TEST_F(ProfileTest, ZoneTreeTracksNestingCallsAndExclusiveTime) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  for (int i = 0; i < 3; ++i) {
    FMS_OP("outer", obs::OpCost{.flops = 7, .bytes_read = 100});
    {
      FMS_OP("inner", obs::OpCost{.bytes_read = 10, .elements = 1});
    }
    {
      FMS_OP("inner", {});
    }
  }
  const obs::ProfileReport report = obs::collect_profile();
  obs::set_profiling_enabled(false);

  const obs::ZoneStats* outer = find_zone(report, "outer");
  const obs::ZoneStats* inner = find_zone(report, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 3U);
  EXPECT_EQ(inner->calls, 6U);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  // Each op's cost lands on its own node, next to its calls and time.
  EXPECT_EQ(outer->cost.flops, 21U);
  EXPECT_EQ(outer->cost.bytes_read, 300U);
  EXPECT_EQ(outer->cost.elements, 0U);
  EXPECT_EQ(inner->cost.bytes_read, 30U);  // only the first inner op costs
  EXPECT_EQ(inner->cost.elements, 3U);
  EXPECT_EQ(inner->cost.flops, 0U);
  // Exclusive time is inclusive minus the children's inclusive, exactly.
  EXPECT_GE(outer->incl_ns, inner->incl_ns);
  EXPECT_EQ(outer->excl_ns, outer->incl_ns - inner->incl_ns);
  EXPECT_EQ(inner->excl_ns, inner->incl_ns);
}

// Spins until this thread has burned `ns` of CPU time.
void burn_cpu_ns(std::uint64_t ns) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
  };
  const std::uint64_t end = now() + ns;
  while (now() < end) {
  }
}

TEST_F(ProfileTest, PoolWorkerZonesNestUnderTheDispatchingZone) {
  // An op entered on a pool worker merges beneath the caller's open zone,
  // as it would serially, and only the caller's zone is top-level. The
  // workers' CPU time is theirs: it is not subtracted from the caller's
  // zone, whose exclusive time stays the ~5 ms the caller itself burned
  // (subtracting 8 x 2 ms of inner time would clamp it to zero).
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  constexpr std::size_t kIndices = 8;
  ThreadPool pool(4);
  {
    FMS_OP("outer", {});
    burn_cpu_ns(5000000);
    pool.parallel_for(kIndices, [](std::size_t) {
      FMS_OP("inner", {});
      burn_cpu_ns(2000000);
    });
  }
  const obs::ProfileReport report = obs::collect_profile();
  for (const obs::ZoneStats& z : report.zones) {
    if (z.depth == 0) {
      EXPECT_EQ(z.path, "outer");
    }
  }
  EXPECT_EQ(find_zone(report, "inner"), nullptr);
  const obs::ZoneStats* outer = find_zone(report, "outer");
  const obs::ZoneStats* inner = find_zone(report, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 1U);
  EXPECT_EQ(inner->calls, kIndices);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_GE(inner->incl_ns, kIndices * 2000000);
  EXPECT_GE(outer->excl_ns, 4000000U);
  EXPECT_LE(outer->excl_ns, outer->incl_ns);
}

TEST_F(ProfileTest, CollectIsDeterministicAndSelfTimeTableRenders) {
  obs::set_profiling_enabled(true);
  obs::reset_profiler();
  {
    FMS_OP("b_zone", {});
    { FMS_OP("child", {}); }
  }
  { FMS_OP("a_zone", {}); }
  const obs::ProfileReport first = obs::collect_profile();
  const obs::ProfileReport second = obs::collect_profile();
  obs::set_profiling_enabled(false);

  ASSERT_EQ(first.zones.size(), second.zones.size());
  for (std::size_t i = 0; i < first.zones.size(); ++i) {
    EXPECT_EQ(first.zones[i].path, second.zones[i].path);
    EXPECT_EQ(first.zones[i].calls, second.zones[i].calls);
    EXPECT_EQ(first.zones[i].incl_ns, second.zones[i].incl_ns);
  }
  // DFS order with lexicographic siblings: a_zone before b_zone, the
  // child right after its parent.
  std::vector<std::string> paths;
  for (const obs::ZoneStats& z : first.zones) paths.push_back(z.path);
  EXPECT_EQ(paths, (std::vector<std::string>{"a_zone", "b_zone",
                                             "b_zone/child"}));

  const std::string table = obs::self_time_table(first);
  EXPECT_NE(table.find("self_ms"), std::string::npos);
  EXPECT_NE(table.find("b_zone/child"), std::string::npos);
}

TEST_F(ProfileTest, LedgerCountsTensorLifecyclesExactly) {
  obs::set_alloc_tracking_enabled(true);
  obs::reset_alloc_stats();
  {
    Tensor a({64}, 1.0F);            // 256 B
    Tensor b = a;                    // copy: +256 B
    Tensor c = std::move(b);         // move: no new storage
    Tensor d({32}, 0.0F);            // 128 B
    d = a;                           // frees 128 B, allocates 256 B
    (void)c;
  }
  const obs::AllocStats s = obs::alloc_stats();
  obs::set_alloc_tracking_enabled(false);

  EXPECT_EQ(s.allocs, 4U);  // a, copy, d, d=a
  EXPECT_EQ(s.frees, 4U);   // d's old storage + 3 live tensors at scope end
  EXPECT_EQ(s.total_bytes, 256U + 256U + 128U + 256U);
  EXPECT_EQ(s.live_bytes, 0);
  // Peak hits inside d = a: a (256) + c (256, via b) + d's new copy (256).
  EXPECT_EQ(s.peak_live_bytes, 3 * 256);
}

TEST_F(ProfileTest, SearchAllocCountsAreExactReproducibleAndLeakFree) {
  // Two identical searches must produce identical ledgers (the counters
  // are part of the deterministic surface), and once every op's
  // activation cache has been exercised, live bytes after each round
  // must be exactly flat — a per-round leak would grow them. A 1-cell,
  // 1-node space makes cache warm-up finish within the warm phase
  // (layers allocate their caches lazily, on the first round whose
  // sampled mask selects them). The third run trains its participants on
  // 4 threads: every count and every between-round live total must match
  // the serial runs; only the peak, which depends on how the threads
  // interleave, is a serial-schedule fact.
  SearchOptions opts;
  std::vector<obs::AllocStats> per_run;
  std::vector<std::vector<std::int64_t>> per_round_live;
  for (const int threads : {1, 1, 4}) {
    TinyWorld w = make_tiny_world(77);
    w.cfg.supernet.num_cells = 1;
    w.cfg.supernet.num_nodes = 1;
    w.cfg.threads = threads;
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_alloc_tracking_enabled(true);
    obs::reset_alloc_stats();
    search.run_warmup(1);
    search.run_search(25, opts);  // warm phase: saturates every op cache
    std::vector<std::int64_t> live;
    for (int r = 0; r < 5; ++r) {
      search.run_search(1, opts);
      live.push_back(obs::alloc_stats().live_bytes);
    }
    per_run.push_back(obs::alloc_stats());
    per_round_live.push_back(live);
    obs::set_alloc_tracking_enabled(false);
    obs::reset_alloc_stats();
  }

  EXPECT_GT(per_run[0].allocs, 0U);
  EXPECT_EQ(per_run[0].allocs, per_run[1].allocs);
  EXPECT_EQ(per_run[0].frees, per_run[1].frees);
  EXPECT_EQ(per_run[0].total_bytes, per_run[1].total_bytes);
  EXPECT_EQ(per_run[0].peak_live_bytes, per_run[1].peak_live_bytes);
  for (std::size_t r = 1; r < per_round_live[0].size(); ++r) {
    EXPECT_EQ(per_round_live[0][r], per_round_live[0][0])
        << "live bytes drifted at steady-state round " << r;
  }
  EXPECT_EQ(per_round_live[0], per_round_live[1]);

  EXPECT_EQ(per_run[2].allocs, per_run[0].allocs);
  EXPECT_EQ(per_run[2].frees, per_run[0].frees);
  EXPECT_EQ(per_run[2].total_bytes, per_run[0].total_bytes);
  EXPECT_EQ(per_round_live[2], per_round_live[0]);
}

TEST_F(ProfileTest, ResumedSearchMatchesOriginalAllocCounters) {
  // The ledger delta of rounds replayed after a checkpoint restore must
  // equal the original run's delta for the same rounds: restore rebuilds
  // the exact tensor traffic, not an approximation of it. Every search
  // here runs its participants inline, so the peak below is the serial
  // schedule's (the parallel counts are pinned in the test above).
  SearchOptions opts;
  auto make_world = [] {
    TinyWorld w = make_tiny_world(91);
    w.cfg.threads = 1;
    return w;
  };
  TinyWorld w = make_world();
  FederatedSearch original(w.cfg, w.data.train, w.partition);
  original.run_warmup(1);
  original.run_search(1, opts);
  const SearchCheckpoint ckpt = original.checkpoint();

  obs::set_alloc_tracking_enabled(true);
  obs::reset_alloc_stats();
  const std::vector<RoundRecord> tail = original.run_search(2, opts);
  const obs::AllocStats original_delta = obs::alloc_stats();
  obs::set_alloc_tracking_enabled(false);
  obs::reset_alloc_stats();

  TinyWorld w2 = make_world();
  FederatedSearch resumed(w2.cfg, w2.data.train, w2.partition);
  resumed.restore(ckpt);
  obs::set_alloc_tracking_enabled(true);
  obs::reset_alloc_stats();
  const std::vector<RoundRecord> replay = resumed.run_search(2, opts);
  const obs::AllocStats resumed_delta = obs::alloc_stats();
  obs::set_alloc_tracking_enabled(false);
  obs::reset_alloc_stats();

  // Allocation traffic (new tensors, bytes) must match the original
  // exactly. Frees are excluded from the cross-run comparison: the
  // original releases activation caches filled before the measurement
  // window, while the restored search's caches start empty (freeing an
  // empty tensor is a no-op in the ledger).
  EXPECT_EQ(original_delta.allocs, resumed_delta.allocs);
  EXPECT_EQ(original_delta.total_bytes, resumed_delta.total_bytes);

  // A second restore from the same checkpoint must reproduce the first
  // resumed run's ledger bit for bit — frees and peak included.
  TinyWorld w3 = make_world();
  FederatedSearch resumed2(w3.cfg, w3.data.train, w3.partition);
  resumed2.restore(ckpt);
  obs::set_alloc_tracking_enabled(true);
  obs::reset_alloc_stats();
  resumed2.run_search(2, opts);
  const obs::AllocStats resumed2_delta = obs::alloc_stats();
  obs::set_alloc_tracking_enabled(false);
  obs::reset_alloc_stats();
  EXPECT_EQ(resumed_delta.allocs, resumed2_delta.allocs);
  EXPECT_EQ(resumed_delta.frees, resumed2_delta.frees);
  EXPECT_EQ(resumed_delta.total_bytes, resumed2_delta.total_bytes);
  EXPECT_EQ(resumed_delta.peak_live_bytes, resumed2_delta.peak_live_bytes);

  ASSERT_EQ(tail.size(), replay.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].mean_reward, replay[i].mean_reward);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(tail[i].arrived, replay[i].arrived);
  }
}

TEST_F(ProfileTest, ProfilingOnVersusOffIsBitIdentical) {
  // The disabled-path guarantee cuts both ways: turning the profiler and
  // the ledger ON must not perturb a single bit of the search trajectory
  // (they only observe — no RNG draws, no float reordering).
  SearchOptions opts;
  auto run = [&](bool profiled) {
    TinyWorld w = make_tiny_world(55);
    FederatedSearch search(w.cfg, w.data.train, w.partition);
    obs::set_profiling_enabled(profiled);
    obs::set_alloc_tracking_enabled(profiled);
    obs::reset_profiler();
    obs::reset_alloc_stats();
    search.run_warmup(1);
    std::vector<RoundRecord> records = search.run_search(3, opts);
    const Genotype genotype = search.derive();
    obs::set_profiling_enabled(false);
    obs::set_alloc_tracking_enabled(false);
    return std::make_pair(std::move(records), genotype.to_string());
  };
  const auto off = run(false);
  const auto on = run(true);

  ASSERT_EQ(off.first.size(), on.first.size());
  for (std::size_t i = 0; i < off.first.size(); ++i) {
    EXPECT_EQ(off.first[i].mean_reward, on.first[i].mean_reward);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].moving_avg, on.first[i].moving_avg);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].baseline, on.first[i].baseline);  // fms-lint: allow(float-eq) -- bit-identity is the contract
    EXPECT_EQ(off.first[i].arrived, on.first[i].arrived);
    EXPECT_EQ(off.first[i].bytes_down, on.first[i].bytes_down);
  }
  EXPECT_EQ(off.second, on.second);
}

TEST_F(ProfileTest, SearchZonesShowUpInProfileAndTelemetry) {
  const std::string trace = "fms_test_profile_trace.jsonl";
  SearchOptions opts;
  TinyWorld w = make_tiny_world(33);
  w.cfg.telemetry.enabled = true;
  w.cfg.telemetry.profile = true;
  w.cfg.telemetry.trace_jsonl_path = trace;
  obs::Telemetry::instance().configure(w.cfg.telemetry);
  obs::reset_profiler();
  obs::reset_alloc_stats();

  FederatedSearch search(w.cfg, w.data.train, w.partition);
  search.run_warmup(1);
  search.run_search(1, opts);

  const obs::ProfileReport report = obs::collect_profile();
  EXPECT_NE(find_zone(report, "round"), nullptr);
  EXPECT_NE(find_zone(report, "round/local_train/nas.forward/nn.conv_fwd"),
            nullptr);
  EXPECT_NE(find_zone(report, "round/aggregate"), nullptr);
  const obs::ZoneStats* fwd =
      find_zone(report, "round/local_train/nas.forward");
  ASSERT_NE(fwd, nullptr);
  EXPECT_GT(fwd->alloc_bytes, 0U);

  obs::Telemetry::instance().finish();
  obs::Telemetry::instance().clear_sinks();
  obs::set_telemetry_enabled(false);

  std::ifstream in(trace);
  ASSERT_TRUE(in.good());
  bool saw_profile_event = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"profile\"") != std::string::npos &&
        line.find("excl_ns") != std::string::npos) {
      saw_profile_event = true;
    }
  }
  EXPECT_TRUE(saw_profile_event);
  const double prof_gauge = obs::Telemetry::instance()
                                .registry()
                                .gauge("fms.prof.round.calls")
                                .value();
  EXPECT_GT(prof_gauge, 0.0);
  const double alloc_gauge = obs::Telemetry::instance()
                                 .registry()
                                 .gauge("fms.alloc.allocs")
                                 .value();
  EXPECT_GT(alloc_gauge, 0.0);
  std::remove(trace.c_str());
}

TEST_F(ProfileTest, PeakRssGaugeIsPositive) {
  EXPECT_GT(obs::peak_rss_bytes(), 0U);
}

}  // namespace
}  // namespace fms
