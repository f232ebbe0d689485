// Tests for the common runtime: RNG determinism, statistics helpers,
// tables, thread pool, config scaling.
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/config.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"

namespace fms {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng a(1);
  Rng fork1 = a.fork();
  Rng fork2 = a.fork();
  // Forks differ from each other.
  EXPECT_NE(fork1.next_u64(), fork2.next_u64());
}

TEST(Rng, RandintBounds) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.randint(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
  EXPECT_THROW(rng.randint(5, 3), CheckError);
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(3);
  for (double alpha : {0.1, 0.5, 1.0, 10.0}) {
    auto p = rng.dirichlet(alpha, 8);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(4);
  std::vector<float> w{0.0F, 1.0F, 0.0F};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.categorical(w), 1);
}

TEST(Stats, ExpMovingAverageMatchesEq9) {
  // b_{t+1} = beta * x + (1-beta) * b_t after initialization.
  ExpMovingAverage ema(0.2);
  EXPECT_FALSE(ema.initialized());
  EXPECT_DOUBLE_EQ(ema.update(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ema.update(0.0), 0.8);
  EXPECT_NEAR(ema.update(0.5), 0.2 * 0.5 + 0.8 * 0.8, 1e-12);
}

TEST(Stats, WindowAverage) {
  WindowAverage w(3);
  w.update(1.0);
  w.update(2.0);
  EXPECT_DOUBLE_EQ(w.value(), 1.5);
  w.update(3.0);
  w.update(4.0);  // 1.0 falls out of the window
  EXPECT_DOUBLE_EQ(w.value(), 3.0);
}

TEST(Stats, WindowAverageResistsFloatingPointDrift) {
  // Regression: the rolling sum used to accumulate cancellation error when
  // a huge value passed through the window — subtracting it back out loses
  // the low-order bits of its small neighbors. The window recomputes its
  // sum from the stored values once per window turnover, so after the
  // poison value has aged out the average must be *exact* again.
  WindowAverage w(4);
  w.update(1e16);  // swamps the mantissa of subsequent small values
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}) w.update(x);
  // Window now holds exactly {5, 6, 7, 8}.
  EXPECT_DOUBLE_EQ(w.value(), 6.5);
}

TEST(Stats, WindowAverageLongRunStaysExact) {
  // Repeated large/small churn over many windows; periodic rebuilds keep
  // the sum anchored to the stored values instead of drifting.
  WindowAverage w(8);
  const double big = 1099511627776.0;  // 2^40: sums with 0.25 stay exact
  for (int i = 0; i < 10000; ++i) {
    w.update(i % 2 == 0 ? big : 0.25);
  }
  EXPECT_DOUBLE_EQ(w.value(), (4.0 * big + 4.0 * 0.25) / 8.0);
}

TEST(Stats, OnlineMeanVar) {
  OnlineMeanVar mv;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) mv.update(x);
  EXPECT_NEAR(mv.mean(), 5.0, 1e-12);
  EXPECT_NEAR(mv.variance(), 32.0 / 7.0, 1e-9);  // sample variance
}

TEST(Stats, VectorHelpers) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.0);
  EXPECT_NEAR(stddev_of(v), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
}

TEST(Table, PrintsAlignedRowsAndCsv) {
  Table t("demo");
  t.columns({"a", "bb"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_THROW(t.row({"only-one"}), CheckError);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Series, StoresPointsAndEnforcesWidth) {
  Series s("curve");
  s.axes("x", {"y1", "y2"});
  s.point(0.0, {1.0, 2.0});
  s.point(1.0, {3.0, 4.0});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_THROW(s.point(2.0, {1.0}), CheckError);
}

TEST(ThreadPool, ParallelForRunsAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          // fms-lint: allow(bare-throw) -- tests that a
                          // non-CheckError exception still propagates
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SingleWorkerDegradesToSerial) {
  ThreadPool pool(1);
  int counter = 0;
  pool.parallel_for(10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter, 10);
}

TEST(ThreadPool, IndexRunsOnTheSameWorkerEveryCall) {
  // Index i is owned by worker i % size(), and the caller is worker 0 —
  // the same thread for the same index on every call.
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4U);
  constexpr std::size_t kIndices = 10;
  std::vector<std::thread::id> first(kIndices);
  pool.parallel_for(kIndices,
                    [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], std::this_thread::get_id());
  EXPECT_EQ(std::set<std::thread::id>(first.begin(), first.end()).size(), 4U);
  for (std::size_t i = 0; i < kIndices; ++i) EXPECT_EQ(first[i], first[i % 4]);
  for (const std::size_t n : {kIndices, std::size_t{3}, kIndices}) {
    std::vector<std::thread::id> again(n);
    pool.parallel_for(n, [&](std::size_t i) {
      again[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(again[i], first[i]) << i;
  }
}

TEST(ThreadPool, RethrowsTheLowestIndexOnlyAfterEveryIndexRan) {
  ThreadPool pool(4);
  constexpr std::size_t kIndices = 16;
  std::vector<int> ran(kIndices, 0);
  try {
    pool.parallel_for(kIndices, [&](std::size_t i) {
      ran[i] = 1;
      // One failing index per worker (8 is the caller's); the lowest must
      // win whichever finishes first.
      if (i == 5 || i == 8 || i == 11 || i == 14) {
        throw CheckError("index " + std::to_string(i));
      }
    });
    ADD_FAILURE() << "parallel_for swallowed the exceptions";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.what(), "index 5");
  }
  for (std::size_t i = 0; i < kIndices; ++i) EXPECT_EQ(ran[i], 1) << i;
  // The failure does not stick to the pool.
  int after = 0;
  pool.parallel_for(4, [&](std::size_t i) {
    if (i == 0) after = 1;
  });
  EXPECT_EQ(after, 1);
}

TEST(ThreadPool, IdlePoolDestructsWithoutHanging) {
  { ThreadPool never_used(4); }
  auto pool = std::make_unique<ThreadPool>(4);
  pool->parallel_for(2, [](std::size_t) {});  // workers 2, 3 own no index
  pool->parallel_for(8, [](std::size_t) {});
  pool.reset();  // every worker is parked in its wait; must join promptly
  SUCCEED();
}

TEST(ThreadPool, NestedCallIntoTheSamePoolThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4, [&](std::size_t) { pool.parallel_for(1, [](std::size_t) {}); }),
               CheckError);
  ThreadPool other(2);  // a different pool may be called from inside
  int inner = 0;
  pool.parallel_for(1, [&](std::size_t) {
    other.parallel_for(3, [&](std::size_t i) {
      if (i == 0) inner = 1;
    });
  });
  EXPECT_EQ(inner, 1);
}

TEST(ThreadPool, SharedPoolIsOnePerSizeForTheProcess) {
  ThreadPool& a = shared_thread_pool(3);
  EXPECT_EQ(&a, &shared_thread_pool(3));
  EXPECT_EQ(a.size(), 3U);
  EXPECT_NE(&a, &shared_thread_pool(2));
  EXPECT_EQ(shared_thread_pool(0).size(), 1U);
}

std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ThreadPool, OneWorkerPoolStartsNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  // A first pool lets runtimes that start a helper thread alongside the
  // process's first spawned thread (TSan's) do so before counting.
  { ThreadPool warm_up(2); }
  const std::size_t before = process_threads();
  {
    ThreadPool inline_pool(1);
    EXPECT_EQ(process_threads(), before);
    std::vector<std::thread::id> ids(5);
    inline_pool.parallel_for(ids.size(), [&](std::size_t i) {
      ids[i] = std::this_thread::get_id();
    });
    for (const std::thread::id id : ids) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
  {
    ThreadPool pool(3);  // the caller is worker 0: two threads started
    EXPECT_EQ(process_threads(), before + 2);
  }
}

// Sanitizer runtimes replace malloc, so glibc's arena settings mean
// nothing there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FMS_OWN_MALLOC 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FMS_OWN_MALLOC 1
#endif
#endif

TEST(ThreadPool, MultiWorkerPoolKeepsFreedArenaMemory) {
#if defined(__GLIBC__) && !defined(FMS_OWN_MALLOC)
#if __GLIBC_PREREQ(2, 33)
  { ThreadPool pool(2); }
  // Two megabytes in blocks below the mmap threshold, freed: they
  // coalesce into the top of this thread's (the main) arena. With glibc's
  // default 128 KiB trim threshold free() would hand them back to the
  // kernel at once.
  std::vector<std::unique_ptr<char[]>> blocks;
  blocks.reserve(64);
  for (int i = 0; i < 64; ++i) {
    blocks.push_back(std::make_unique<char[]>(32 << 10));
  }
  blocks.clear();
  EXPECT_GE(mallinfo2().keepcost, std::size_t{1} << 20);
#else
  GTEST_SKIP() << "mallinfo2 needs glibc 2.33";
#endif
#else
  GTEST_SKIP() << "needs glibc's own malloc";
#endif
}

TEST(Config, DefaultsMatchPaperTable1) {
  SearchConfig cfg;  // unscaled defaults
  EXPECT_FLOAT_EQ(cfg.theta.learning_rate, 0.025F);
  EXPECT_FLOAT_EQ(cfg.theta.momentum, 0.9F);
  EXPECT_FLOAT_EQ(cfg.theta.weight_decay, 0.0003F);
  EXPECT_FLOAT_EQ(cfg.alpha.learning_rate, 0.003F);
  EXPECT_FLOAT_EQ(cfg.alpha.baseline_decay, 0.99F);
  EXPECT_EQ(cfg.schedule.num_participants, 10);
  EXPECT_FLOAT_EQ(cfg.retrain.lr_federated, 0.1F);
  EXPECT_FLOAT_EQ(cfg.retrain.momentum_federated, 0.5F);
}

TEST(Config, EnvScaleLengthensSchedules) {
  setenv("FMS_SCALE", "2", 1);
  SearchConfig scaled = default_config();
  unsetenv("FMS_SCALE");
  SearchConfig base = default_config();
  EXPECT_EQ(scaled.schedule.search_steps, 2 * base.schedule.search_steps);
  EXPECT_EQ(scaled.schedule.warmup_steps, 2 * base.schedule.warmup_steps);
}

TEST(Config, BadEnvScaleFallsBackToOne) {
  setenv("FMS_SCALE", "not-a-number", 1);
  SearchConfig cfg = default_config();
  unsetenv("FMS_SCALE");
  SearchConfig base = default_config();
  EXPECT_EQ(cfg.schedule.search_steps, base.schedule.search_steps);
}

}  // namespace
}  // namespace fms
