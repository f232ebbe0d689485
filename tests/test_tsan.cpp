// Concurrency-contention tests (ctest label: tsan).
//
// These run in every build, but their real job is a -DFMS_SANITIZE=thread
// build: `ctest -L tsan` must come back with zero reported races. They
// hammer exactly the surfaces the repo promises are thread-safe — the
// ThreadPool and its fixed index ownership, concurrent MetricsRegistry
// recording from many threads, and whole FederatedSearch rounds (training
// their participants on one shared pool) running in parallel against the
// shared global Telemetry context.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"
#include "src/obs/telemetry.h"

namespace fms {
namespace {

TEST(TsanThreadPool, ParallelForUnderContention) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 2000;
  std::vector<int> hits(kTasks, 0);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      hits[i] += 1;  // disjoint per index: must be race-free by design
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i], 5);
  EXPECT_EQ(sum.load(), 5ULL * (kTasks * (kTasks - 1) / 2));
}

TEST(TsanThreadPool, ExceptionUnderContentionStillJoins) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 20; ++attempt) {
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                            if (i % 16 == 3) throw CheckError("expected");
                          }),
        CheckError);
  }
}

TEST(TsanThreadPool, FixedOwnershipMakesPerWorkerStateRaceFree) {
  // Each worker bumps a plain, unsynchronized slot of its own — the
  // pattern a participant's replica caches follow across rounds. It is
  // race-free only because index i runs on worker i % size() on every
  // call; TSan reports any index that migrates.
  ThreadPool pool(4);
  std::vector<std::uint64_t> per_worker(pool.size(), 0);
  std::vector<std::thread::id> owner(37);
  for (int call = 0; call < 200; ++call) {
    const std::size_t n = call % 3 == 0 ? owner.size() : 9;
    pool.parallel_for(n, [&](std::size_t i) {
      per_worker[i % 4] += 1;
      if (call == 0) owner[i] = std::this_thread::get_id();
      EXPECT_EQ(owner[i], std::this_thread::get_id());
    });
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : per_worker) total += c;
  EXPECT_EQ(total, 67U * 37U + 133U * 9U);
}

TEST(TsanThreadPool, ConcurrentCallersOfASharedPoolTakeTurns) {
  // Searches on different threads share one process-wide pool of their
  // size; their parallel_for calls must serialize, not interleave.
  // Index 0 runs on each call's own caller thread, so overlapping calls
  // would write slot 0 from two threads at once: TSan reports the race,
  // and the read-back can see the other caller's id.
  ThreadPool& pool = shared_thread_pool(4);
  std::vector<int> slot(8, -1);
  std::atomic<int> clobbered{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < 50; ++call) {
        pool.parallel_for(slot.size(), [&](std::size_t i) {
          slot[i] = c;
          for (int spin = 0; spin < 100; ++spin) {
            if (slot[i] != c) clobbered.fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(clobbered.load(), 0);
}

TEST(TsanMetrics, ConcurrentRecordingIsExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  // Pre-create one shared histogram so every thread contends on the same
  // instrument as well as on registry name lookup.
  obs::Histogram& shared = reg.histogram("tsan.shared", {1.0, 10.0, 100.0});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &shared, t] {
      for (int i = 0; i < kOps; ++i) {
        reg.counter("tsan.counter." + std::to_string(t % 4)).add(1);
        reg.gauge("tsan.gauge").add(1.0);
        shared.observe(static_cast<double>(i % 128));
        reg.histogram("tsan.shared", {}).observe(0.5);
      }
    });
  }
  // Snapshots race against the writers on purpose; values they read are
  // transient but the calls must be safe.
  for (int s = 0; s < 50; ++s) (void)reg.snapshot();
  for (auto& th : threads) th.join();

  std::uint64_t counted = 0;
  for (int c = 0; c < 4; ++c) {
    counted += reg.counter("tsan.counter." + std::to_string(c)).value();
  }
  EXPECT_EQ(counted, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_DOUBLE_EQ(reg.gauge("tsan.gauge").value(),
                   static_cast<double>(kThreads) * kOps);
  EXPECT_EQ(shared.count(), 2ULL * kThreads * kOps);
}

SearchConfig tsan_config(std::uint64_t seed) {
  SearchConfig cfg;
  cfg.supernet.num_cells = 2;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = 3;
  cfg.seed = seed;
  return cfg;
}

struct RunResult {
  std::vector<double> rewards;
  std::vector<std::size_t> bytes_down;
};

RunResult run_rounds(std::uint64_t seed, int threads) {
  Rng rng(seed);
  SynthSpec spec;
  spec.train_size = 96;
  spec.test_size = 24;
  spec.image_size = 8;
  TrainTest tt = make_synth_c10(spec, rng);
  SearchConfig cfg = tsan_config(seed);
  cfg.threads = threads;
  auto parts =
      iid_partition(tt.train.size(), cfg.schedule.num_participants, rng);
  FederatedSearch search(cfg, tt.train, parts);
  search.run_warmup(2);
  SearchOptions opts;
  auto records = search.run_search(4, opts);
  RunResult out;
  for (const auto& r : records) {
    out.rewards.push_back(r.mean_reward);
    out.bytes_down.push_back(r.bytes_down);
  }
  return out;
}

TEST(TsanSearch, ParallelRoundsOnSharedTelemetryStayDeterministic) {
  // Two full searches run simultaneously, taking turns on the shared
  // 3-worker pool to train their participants, all recording spans and
  // metrics into the
  // shared global Telemetry registry. TSan checks the registry/sink
  // locking and the pools; the assertions check that concurrency cannot
  // leak between searches — each trajectory must be bitwise identical to
  // the same search run serially on one thread.
  obs::set_telemetry_enabled(true);
  obs::Telemetry::instance().registry().reset();

  RunResult parallel_a;
  RunResult parallel_b;
  {
    std::thread ta([&] { parallel_a = run_rounds(11, 3); });
    std::thread tb([&] { parallel_b = run_rounds(23, 3); });
    ta.join();
    tb.join();
  }
  const RunResult serial_a = run_rounds(11, 1);
  const RunResult serial_b = run_rounds(23, 1);

  obs::set_telemetry_enabled(false);
  obs::Telemetry::instance().registry().reset();

  EXPECT_EQ(parallel_a.rewards, serial_a.rewards);
  EXPECT_EQ(parallel_a.bytes_down, serial_a.bytes_down);
  EXPECT_EQ(parallel_b.rewards, serial_b.rewards);
  EXPECT_EQ(parallel_b.bytes_down, serial_b.bytes_down);
}

TEST(TsanTrace, JsonlWriterIsLineAtomicUnderThreadPool) {
  // N pool workers blast interleaved span events at one JsonlTraceWriter.
  // The sink's contract is line atomicity: the file must hold exactly one
  // complete, parseable JSON object per line no matter how writes race.
  const std::string path = "fms_tsan_trace.jsonl";
  constexpr std::size_t kEvents = 2000;
  constexpr int kWorkers = 8;
  {
    obs::JsonlTraceWriter writer(path);
    ThreadPool pool(kWorkers);
    pool.parallel_for(kEvents, [&](std::size_t i) {
      obs::TraceEvent ev;
      ev.type = "span";
      ev.name = "tsan.zone." + std::to_string(i % 5);
      ev.round = static_cast<int>(i);
      ev.label = "tsan";
      ev.fields.emplace_back("dur_s", 1e-6 * static_cast<double>(i));
      ev.fields.emplace_back("worker", static_cast<double>(i % kWorkers));
      writer.write(ev);
    });
    writer.flush();
    EXPECT_EQ(writer.events_written(), kEvents);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line " << lines;
    // One balanced JSON object per line — a torn write would break the
    // brace balance or leave an unterminated string.
    ASSERT_EQ(line.front(), '{') << "line " << lines;
    ASSERT_EQ(line.back(), '}') << "line " << lines;
    ASSERT_NE(line.find("\"type\":\"span\""), std::string::npos)
        << "line " << lines;
    ASSERT_NE(line.find("\"dur_s\":"), std::string::npos) << "line " << lines;
    ++lines;
  }
  EXPECT_EQ(lines, kEvents);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fms
