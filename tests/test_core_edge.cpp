// Edge cases and failure injection for the core orchestrator: total
// update loss, staleness beyond the memory-pool threshold, single
// participant, empty rounds, and retraining corner cases.
#include "gtest/gtest.h"
#include "src/core/retrain.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/nas/discrete_net.h"

namespace fms {
namespace {

SearchConfig tiny_config() {
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.seed = 99;
  return cfg;
}

TrainTest tiny_data(Rng& rng) {
  SynthSpec spec;
  spec.train_size = 120;
  spec.test_size = 30;
  spec.image_size = 8;
  return make_synth_c10(spec, rng);
}

TEST(CoreEdge, AllUpdatesLostStillRuns) {
  // A staleness distribution with zero mass anywhere: every update
  // exceeds the threshold. The search must survive rounds with no
  // arrivals and leave alpha untouched.
  Rng rng(1);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), 3, rng);
  FederatedSearch search(cfg, tt.train, parts);
  const float alpha_before = search.policy().alpha().l2_norm();
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  opts.staleness = StalenessDistribution(std::vector<double>{});
  auto records = search.run_search(5, opts);
  for (const auto& r : records) {
    EXPECT_EQ(r.arrived, 0);
    EXPECT_EQ(r.dropped, 3);
  }
  EXPECT_FLOAT_EQ(search.policy().alpha().l2_norm(), alpha_before);
}

TEST(CoreEdge, StalenessBeyondPoolThresholdIsDropped) {
  // Delays of 7 rounds exceed the pool threshold (5): those updates must
  // be counted as dropped, not applied.
  Rng rng(2);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), 3, rng);
  FederatedSearch search(cfg, tt.train, parts);
  SearchOptions opts;
  opts.stale_policy = StalePolicy::kCompensate;
  std::vector<double> p(8, 0.0);
  p[0] = 0.5;
  p[7] = 0.5;  // half fresh, half 7 rounds late
  opts.staleness = StalenessDistribution(p);
  auto records = search.run_search(10, opts);
  int dropped = 0, arrived = 0;
  for (const auto& r : records) {
    dropped += r.dropped;
    arrived += r.arrived;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(arrived, 0);
}

TEST(CoreEdge, SingleParticipantSearchWorks) {
  Rng rng(3);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  std::vector<std::vector<int>> parts(1);
  for (int i = 0; i < tt.train.size(); ++i) parts[0].push_back(i);
  FederatedSearch search(cfg, tt.train, parts);
  auto records = search.run_search(4, SearchOptions{});
  for (const auto& r : records) EXPECT_EQ(r.arrived, 1);
  EXPECT_EQ(search.derive().normal.size(), 4u);
}

TEST(CoreEdge, EmptyPartitionThrows) {
  Rng rng(4);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  std::vector<std::vector<int>> parts;
  EXPECT_THROW(FederatedSearch(cfg, tt.train, parts), CheckError);
}

TEST(CoreEdge, CompensatedSearchMatchesHardSyncWhenAllFresh) {
  // With a 100%-fresh distribution, the soft-sync path must follow the
  // exact same update trajectory as hard sync.
  Rng rng(5);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), 3, rng);
  auto run = [&](StalePolicy policy) {
    FederatedSearch search(cfg, tt.train, parts);
    SearchOptions opts;
    opts.stale_policy = policy;
    opts.staleness = StalenessDistribution::none();
    search.run_search(5, opts);
    return search.policy().alpha().flatten();
  };
  EXPECT_EQ(run(StalePolicy::kHardSync), run(StalePolicy::kCompensate));
}

TEST(CoreEdge, EvaluateHandlesPartialLastBatch) {
  Rng rng(6);
  TrainTest tt = tiny_data(rng);  // 30 test samples
  SupernetConfig scfg = tiny_config().supernet;
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a) row.fill(0.0F);
  Genotype g = discretize(a, a, 2);
  Rng net_rng(7);
  DiscreteNet net(g, scfg, net_rng);
  const double acc = evaluate(net, tt.test, 16);  // 16 + 14 split
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(CoreEdge, CentralizedTrainEvalEveryLargerThanEpochs) {
  Rng rng(8);
  TrainTest tt = tiny_data(rng);
  SupernetConfig scfg = tiny_config().supernet;
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a) row.fill(0.0F);
  Genotype g = discretize(a, a, 2);
  Rng net_rng(9);
  DiscreteNet net(g, scfg, net_rng);
  Rng train_rng(10);
  RetrainResult res = centralized_train(net, tt.train, tt.test, 2, 16,
                                        SGD::Options{}, nullptr, train_rng,
                                        /*eval_every=*/100);
  // The final epoch always evaluates; best/final must be populated.
  EXPECT_GT(res.final_test_accuracy, 0.0);
  EXPECT_GE(res.best_test_accuracy, res.final_test_accuracy - 1e-9);
}

TEST(CoreEdge, DiscreteNetDeterministicGivenSeed) {
  SupernetConfig scfg = tiny_config().supernet;
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a) row.fill(0.25F);
  Genotype g = discretize(a, a, 2);
  Rng r1(11), r2(11);
  DiscreteNet n1(g, scfg, r1), n2(g, scfg, r2);
  ASSERT_EQ(n1.params().size(), n2.params().size());
  for (std::size_t i = 0; i < n1.params().size(); ++i) {
    EXPECT_EQ(n1.params()[i]->value.vec(), n2.params()[i]->value.vec());
  }
}

TEST(CoreEdge, GenotypeToStringNamesOps) {
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a) {
    row.fill(0.0F);
    row[static_cast<std::size_t>(OpType::kMaxPool3)] = 5.0F;
  }
  Genotype g = discretize(a, a, 2);
  const std::string s = g.to_string();
  EXPECT_NE(s.find("max_pool_3x3"), std::string::npos);
  EXPECT_NE(s.find("normal"), std::string::npos);
  EXPECT_NE(s.find("reduce"), std::string::npos);
}

// Fixed-logits stub to test the evaluation loop in isolation.
class StubNet : public TrainableNet {
 public:
  explicit StubNet(int predicted_class) : predicted_(predicted_class) {}

  Tensor forward(const Tensor& x, bool /*train*/) override {
    Tensor logits({x.dim(0), 10});
    for (int i = 0; i < x.dim(0); ++i) logits.at2(i, predicted_) = 10.0F;
    return logits;
  }
  void backward(const Tensor&) override {}
  const std::vector<Param*>& params() override { return params_; }
  void zero_grad() override {}
  std::size_t param_count() const override { return 0; }

 private:
  int predicted_;
  std::vector<Param*> params_;
};

TEST(CoreEdge, EvaluateCountsExactly) {
  // A stub that always predicts class 3 must score exactly the fraction
  // of class-3 samples, independent of batch boundaries.
  Dataset data(10, 1, 2, 2);
  for (int i = 0; i < 23; ++i) {
    data.add(std::vector<float>(4, 0.0F), i % 10);
  }
  StubNet net(3);
  // 23 samples: labels 0..9,0..9,0,1,2 -> class 3 appears twice.
  const double acc = evaluate(net, data, 7);  // uneven batches on purpose
  EXPECT_NEAR(acc, 2.0 / 23.0, 1e-9);
}

// A stub whose prediction moves with training (class = backward calls mod
// 10) and that counts its eval-mode forwards, one per test batch.
class CountingNet : public TrainableNet {
 public:
  Tensor forward(const Tensor& x, bool train) override {
    if (!train) ++eval_forwards;
    Tensor logits({x.dim(0), 10});
    for (int i = 0; i < x.dim(0); ++i) logits.at2(i, backwards % 10) = 10.0F;
    return logits;
  }
  void backward(const Tensor&) override { ++backwards; }
  const std::vector<Param*>& params() override { return params_; }
  void zero_grad() override {}
  std::size_t param_count() const override { return 0; }

  int backwards = 0;
  int eval_forwards = 0;

 private:
  std::vector<Param*> params_;
};

TEST(CoreEdge, TrainersEvaluateTheFinalWeightsOnce) {
  Dataset train(10, 1, 2, 2);
  Dataset test(10, 1, 2, 2);
  for (int i = 0; i < 20; ++i) train.add(std::vector<float>(4, 0.0F), i % 10);
  for (int i = 0; i < 23; ++i) test.add(std::vector<float>(4, 0.0F), i % 7);
  const int batch = 7;  // 4 test batches per evaluation
  const std::vector<std::vector<int>> parts = {{0, 2, 4, 6, 8, 10, 12},
                                               {1, 3, 5, 7, 9, 11, 13}};
  // Test evaluations: every eval_every steps and on the last one; with no
  // steps, the untrained weights once.
  struct Case {
    bool federated;
    int steps;
    int eval_every;
    int evaluations;
  };
  for (const Case c : {Case{true, 7, 3, 3}, Case{true, 6, 3, 2},
                       Case{false, 4, 2, 2}, Case{false, 5, 1, 5},
                       Case{true, 0, 3, 1}, Case{false, 0, 1, 1}}) {
    SCOPED_TRACE(std::string(c.federated ? "federated" : "centralized") +
                 " steps=" + std::to_string(c.steps));
    CountingNet net;
    Rng rng(31);
    const RetrainResult res =
        c.federated
            ? federated_train(net, train, parts, test, c.steps, batch,
                              SGD::Options{}, nullptr, rng, c.eval_every)
            : centralized_train(net, train, test, c.steps, batch,
                                SGD::Options{}, nullptr, rng, c.eval_every);
    EXPECT_EQ(net.eval_forwards, 4 * c.evaluations);
    ASSERT_EQ(res.curve.size(), static_cast<std::size_t>(c.steps));
    // The results are those of evaluating the trained weights afresh.
    EXPECT_EQ(res.final_test_accuracy, evaluate(net, test, batch));
    double best = res.final_test_accuracy;
    for (const TrainPoint& pt : res.curve) best = std::max(best, pt.val_acc);
    EXPECT_EQ(res.best_test_accuracy, best);
  }
}

TEST(CoreEdge, SynthDatasetsDeterministicGivenSeed) {
  SynthSpec spec;
  spec.train_size = 30;
  spec.test_size = 10;
  spec.image_size = 8;
  Rng a(77), b(77);
  TrainTest ta = make_synth_c10(spec, a);
  TrainTest tb = make_synth_c10(spec, b);
  ASSERT_EQ(ta.train.size(), tb.train.size());
  for (int i = 0; i < ta.train.size(); ++i) {
    EXPECT_EQ(ta.train.label(i), tb.train.label(i));
    auto ia = ta.train.image(i);
    auto ib = tb.train.image(i);
    for (std::size_t p = 0; p < ia.size(); ++p) {
      ASSERT_FLOAT_EQ(ia[p], ib[p]);
    }
  }
}

TEST(CoreEdge, FederatedTrainCurveStructure) {
  Rng rng(21);
  TrainTest tt = tiny_data(rng);
  SupernetConfig scfg = tiny_config().supernet;
  AlphaTable a(static_cast<std::size_t>(Cell::num_edges(2)));
  for (auto& row : a) row.fill(0.0F);
  Genotype g = discretize(a, a, 2);
  Rng net_rng(22);
  DiscreteNet net(g, scfg, net_rng);
  auto parts = iid_partition(tt.train.size(), 3, rng);
  Rng train_rng(23);
  RetrainResult res = federated_train(net, tt.train, parts, tt.test, 7, 8,
                                      SGD::Options{}, nullptr, train_rng,
                                      /*eval_every=*/3);
  ASSERT_EQ(res.curve.size(), 7u);
  // Evaluations land on rounds 2, 5 (1-indexed 3, 6) and the final round.
  EXPECT_GT(res.curve[2].val_acc, 0.0);
  EXPECT_GT(res.curve[5].val_acc, 0.0);
  EXPECT_GT(res.curve[6].val_acc, 0.0);
  EXPECT_DOUBLE_EQ(res.curve[0].val_acc, 0.0);  // not an eval round
}

TEST(CoreEdge, SearchBytesAccountingIsMonotonic) {
  Rng rng(12);
  TrainTest tt = tiny_data(rng);
  SearchConfig cfg = tiny_config();
  auto parts = iid_partition(tt.train.size(), 2, rng);
  FederatedSearch search(cfg, tt.train, parts);
  search.run_search(2, SearchOptions{});
  const std::size_t down1 = search.total_bytes_down();
  const std::size_t up1 = search.total_bytes_up();
  EXPECT_GT(down1, 0u);
  EXPECT_GT(up1, 0u);
  search.run_search(2, SearchOptions{});
  EXPECT_GT(search.total_bytes_down(), down1);
  EXPECT_GT(search.total_bytes_up(), up1);
}

}  // namespace
}  // namespace fms
