// The benchmark suite. Every benchmark is seeded and sized so that one
// repetition finishes in well under a second on a laptop core while
// still exercising the production code path (no toy stand-ins): micro
// kernels (conv/BN/ReLU/pooling/linear, tensor axpy), the supernet's
// mask/gather/scatter plumbing, every aggregation estimator at m in {10, 50},
// checkpoint serialize/restore, message codecs, transmission scheduling,
// and whole warm-up / search rounds (K=4 and K=16) as macro benches.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/agg/aggregator.h"
#include "src/core/checkpoint.h"
#include "src/core/journal.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/fed/messages.h"
#include "src/nas/cell.h"
#include "src/nas/supernet.h"
#include "src/net/transmission.h"
#include "src/nn/layers.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "tools/fms_bench/bench.h"

namespace fms::bench {
namespace {

SearchConfig bench_search_config(int participants = 4) {
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 4;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 8;
  cfg.schedule.num_participants = participants;
  cfg.seed = 1234;
  return cfg;
}

struct SearchState {
  TrainTest data;
  std::unique_ptr<FederatedSearch> search;
};

// K participants with 40 training images each.
std::shared_ptr<SearchState> make_search_state(std::uint64_t seed,
                                               int participants = 4) {
  Rng rng(seed);
  SynthSpec spec;
  spec.train_size = 40 * participants;
  spec.test_size = 40;
  spec.image_size = 8;
  TrainTest data = make_synth_c10(spec, rng);
  SearchConfig cfg = bench_search_config(participants);
  auto parts =
      iid_partition(data.train.size(), cfg.schedule.num_participants, rng);
  // The dataset must land at its final heap address before the search is
  // built: participants keep pointers into it.
  auto state =
      std::make_shared<SearchState>(SearchState{std::move(data), nullptr});
  state->search =
      std::make_unique<FederatedSearch>(cfg, state->data.train, parts);
  return state;
}

// m updates of dimension d, deterministic content.
std::vector<std::vector<float>> make_updates(std::size_t m, std::size_t d,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> u(m);
  for (auto& v : u) {
    v.resize(d);
    for (auto& x : v) x = rng.normal(0.0F, 0.1F);
  }
  return u;
}

Benchmark agg_bench(const std::string& name, const std::string& spec,
                    std::size_t m, std::size_t d, int iters) {
  return Benchmark{
      name, iters, [spec, m, d]() -> std::function<void()> {
        auto updates =
            std::make_shared<std::vector<std::vector<float>>>(
                make_updates(m, d, 0xA66 + m));
        agg::AggregatorConfig cfg = agg::AggregatorConfig::parse(spec);
        return [updates, cfg] {
          agg::AggregationOutcome out = agg::aggregate(cfg, *updates);
          (void)out;
        };
      }};
}

}  // namespace

std::vector<Benchmark> default_benchmarks() {
  std::vector<Benchmark> list;

  // --- micro: per-op kernels ---
  list.push_back({"nn.conv3x3_fwd", 40, []() -> std::function<void()> {
                    Rng rng(1);
                    auto conv = std::make_shared<Conv2d>(
                        8, 8, 3, Conv2dSpec{1, 1, 1, 1}, rng);
                    auto x = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    return [conv, x] { conv->forward(*x, /*train=*/false); };
                  }});
  list.push_back({"nn.conv3x3_fwd_bwd", 20, []() -> std::function<void()> {
                    Rng rng(2);
                    auto conv = std::make_shared<Conv2d>(
                        8, 8, 3, Conv2dSpec{1, 1, 1, 1}, rng);
                    auto x = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    auto g = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    return [conv, x, g] {
                      conv->forward(*x, /*train=*/true);
                      conv->backward(*g);
                    };
                  }});
  list.push_back({"nn.dwconv3x3_fwd_bwd", 40, []() -> std::function<void()> {
                    Rng rng(12);
                    auto conv = std::make_shared<Conv2d>(
                        8, 8, 3, Conv2dSpec{1, 1, 1, 8}, rng);
                    auto x = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    auto g = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    return [conv, x, g] {
                      conv->forward(*x, /*train=*/true);
                      conv->backward(*g);
                    };
                  }});
  // The depthwise convs of a batch-16 search at their in-situ shapes: C=6
  // on 8x8 planes (3x3 and 5x5), C=12 at stride 2 from 8x8 to 4x4, and
  // C=24 on 2x2 planes (3x3, plain and at dilation 2).
  list.push_back({"nn.dwconv_insitu_fwd_bwd", 40, []() -> std::function<void()> {
                    Rng rng(15);
                    struct Layer {
                      Conv2d conv;
                      Tensor x;
                      Tensor g;
                    };
                    struct Shape {
                      int c, hw, k, stride, dilation;
                    };
                    auto layers = std::make_shared<std::vector<Layer>>();
                    for (const Shape& s : {Shape{6, 8, 3, 1, 1},
                                           Shape{6, 8, 5, 1, 1},
                                           Shape{12, 8, 3, 2, 1},
                                           Shape{24, 2, 3, 1, 1},
                                           Shape{24, 2, 3, 1, 2}}) {
                      const Conv2dSpec spec{s.stride, s.dilation * (s.k / 2),
                                            s.dilation, s.c};
                      Conv2d conv(s.c, s.c, s.k, spec, rng);
                      const int out = conv_out_size(s.hw, s.k, s.stride,
                                                    spec.padding, s.dilation);
                      Tensor x = Tensor::randn({16, s.c, s.hw, s.hw}, rng);
                      Tensor g = Tensor::randn({16, s.c, out, out}, rng);
                      layers->push_back(
                          {std::move(conv), std::move(x), std::move(g)});
                    }
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.conv.forward(l.x, /*train=*/true);
                        l.conv.backward(l.g);
                      }
                    };
                  }});
  // Batch 1 on the 2x2 (C=12) and 1x1 (C=24) planes a 4x4-image search
  // runs after its reduction cells: a depthwise 3x3 then a pointwise conv
  // on each. Per-tap and per-call overheads dominate at these sizes.
  list.push_back({"nn.conv_tiny_fwd_bwd", 200, []() -> std::function<void()> {
                    Rng rng(13);
                    struct Layer {
                      Conv2d conv;
                      Tensor x;
                      Tensor g;
                    };
                    auto layers = std::make_shared<std::vector<Layer>>();
                    for (const auto& [c, hw] : {std::pair{12, 2},
                                               std::pair{24, 1}}) {
                      for (const int groups : {c, 1}) {
                        const int k = groups == 1 ? 1 : 3;
                        Conv2d conv(c, c, k,
                                    Conv2dSpec{1, k / 2, 1, groups}, rng);
                        Tensor x = Tensor::randn({1, c, hw, hw}, rng);
                        Tensor g = Tensor::randn({1, c, hw, hw}, rng);
                        layers->push_back(
                            {std::move(conv), std::move(x), std::move(g)});
                      }
                    }
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.conv.forward(l.x, /*train=*/true);
                        l.conv.backward(l.g);
                      }
                    };
                  }});
  // The pointwise convs of a batch-16 search at their in-situ shapes:
  // C=12 on 4x4 planes and C=24 on 2x2 planes, each one GEMM per output.
  list.push_back({"nn.conv1x1_fwd_bwd", 40, []() -> std::function<void()> {
                    Rng rng(14);
                    struct Layer {
                      Conv2d conv;
                      Tensor x;
                      Tensor g;
                    };
                    auto layers = std::make_shared<std::vector<Layer>>();
                    for (const auto& [c, hw] : {std::pair{12, 4},
                                               std::pair{24, 2}}) {
                      Conv2d conv(c, c, 1, Conv2dSpec{1, 0, 1, 1}, rng);
                      Tensor x = Tensor::randn({16, c, hw, hw}, rng);
                      Tensor g = Tensor::randn({16, c, hw, hw}, rng);
                      layers->push_back(
                          {std::move(conv), std::move(x), std::move(g)});
                    }
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.conv.forward(l.x, /*train=*/true);
                        l.conv.backward(l.g);
                      }
                    };
                  }});
  // The 3x3 stem conv at the benchmark workloads' shapes: batch 16, 3->6
  // on 8x8 (search_iid, hostile), batch 32, 3->8 on 8x8 (retrain_fixed)
  // and batch 1, 3->6 on 4x4 (server_k50).
  list.push_back({"nn.conv_stem_fwd_bwd", 10, []() -> std::function<void()> {
                    Rng rng(16);
                    struct Layer {
                      Conv2d conv;
                      Tensor x;
                      Tensor g;
                    };
                    struct Shape {
                      int n, cout, hw;
                    };
                    auto layers = std::make_shared<std::vector<Layer>>();
                    for (const Shape& s : {Shape{16, 6, 8}, Shape{32, 8, 8},
                                           Shape{1, 6, 4}}) {
                      Conv2d conv(3, s.cout, 3, Conv2dSpec{1, 1, 1, 1}, rng);
                      Tensor x = Tensor::randn({s.n, 3, s.hw, s.hw}, rng);
                      Tensor g = Tensor::randn({s.n, s.cout, s.hw, s.hw}, rng);
                      layers->push_back(
                          {std::move(conv), std::move(x), std::move(g)});
                    }
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.conv.forward(l.x, /*train=*/true);
                        l.conv.backward(l.g);
                      }
                    };
                  }});
  list.push_back({"nn.bn_fwd", 60, []() -> std::function<void()> {
                    Rng rng(3);
                    auto bn = std::make_shared<BatchNorm2d>(8);
                    auto x = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    return [bn, x] { bn->forward(*x, /*train=*/false); };
                  }});
  list.push_back({"nn.bn_fwd_bwd", 30, []() -> std::function<void()> {
                    Rng rng(4);
                    auto bn = std::make_shared<BatchNorm2d>(8);
                    auto x = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    auto g = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    return [bn, x, g] {
                      bn->forward(*x, /*train=*/true);
                      bn->backward(*g);
                    };
                  }});
  // ReLU, then the pools, at the shapes a search_iid round trains (batch
  // 16, 8x8 images, 6 stem channels): the three stages' activations, the
  // cells' 3x3 pools at stride 1 and, in reduction cells, stride 2, and
  // the GAP ahead of the classifier.
  list.push_back({"nn.relu_fwd_bwd", 40, []() -> std::function<void()> {
                    Rng rng(14);
                    struct Layer {
                      ReLU relu;
                      Tensor x;
                      Tensor g;
                    };
                    auto layers = std::make_shared<std::vector<Layer>>();
                    for (const auto& [c, hw] :
                         {std::pair{6, 8}, std::pair{12, 4},
                          std::pair{24, 2}}) {
                      layers->push_back(
                          {ReLU(), Tensor::randn({16, c, hw, hw}, rng),
                           Tensor::randn({16, c, hw, hw}, rng)});
                    }
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.relu.forward(l.x, /*train=*/true);
                        l.relu.backward(l.g);
                      }
                    };
                  }});
  list.push_back({"nn.pool_fwd_bwd", 20, []() -> std::function<void()> {
                    Rng rng(15);
                    struct Layer {
                      std::unique_ptr<Module> pool;
                      Tensor x;
                      Tensor g;
                    };
                    auto layers = std::make_shared<std::vector<Layer>>();
                    for (const auto& [c, stride] :
                         {std::pair{6, 1}, std::pair{12, 2}}) {
                      const int out = 8 / stride;
                      for (const bool max : {true, false}) {
                        std::unique_ptr<Module> pool;
                        if (max) {
                          pool = std::make_unique<MaxPool2d>(3, stride, 1);
                        } else {
                          pool = std::make_unique<AvgPool2d>(3, stride, 1);
                        }
                        layers->push_back(
                            {std::move(pool), Tensor::randn({16, c, 8, 8}, rng),
                             Tensor::randn({16, c, out, out}, rng)});
                      }
                    }
                    layers->push_back({std::make_unique<GlobalAvgPool>(),
                                       Tensor::randn({16, 48, 2, 2}, rng),
                                       Tensor::randn({16, 48}, rng)});
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.pool->forward(l.x, /*train=*/true);
                        l.pool->backward(l.g);
                      }
                    };
                  }});
  // The batch-1 3x3 pools of a 4x4-image search (server_k50: 3 cells, 2
  // nodes, 6 stem channels) at the channels cell_specs gives each cell:
  // stride 1 on the normal cell's 4x4 planes; in each reduction cell,
  // stride 2 from the cell's inputs and stride 1 on the halved planes
  // (2x2 at C=12, 1x1 at C=24).
  list.push_back({"nn.pool_tiny_fwd_bwd", 200, []() -> std::function<void()> {
                    Rng rng(17);
                    struct Layer {
                      std::unique_ptr<Module> pool;
                      Tensor x;
                      Tensor g;
                    };
                    SupernetConfig cfg;
                    cfg.num_cells = 3;
                    cfg.num_nodes = 2;
                    cfg.stem_channels = 6;
                    auto layers = std::make_shared<std::vector<Layer>>();
                    int hw = 4;
                    for (const CellSpec& spec : cell_specs(cfg)) {
                      std::vector<std::pair<int, int>> runs{{hw, 1}};
                      if (spec.reduction) {
                        runs = {{hw, 2}, {hw / 2, 1}};
                        hw /= 2;
                      }
                      for (const auto& [side, stride] : runs) {
                        const int out = side / stride;
                        for (const bool max : {true, false}) {
                          std::unique_ptr<Module> pool;
                          if (max) {
                            pool = std::make_unique<MaxPool2d>(3, stride, 1);
                          } else {
                            pool = std::make_unique<AvgPool2d>(3, stride, 1);
                          }
                          layers->push_back(
                              {std::move(pool),
                               Tensor::randn({1, spec.c, side, side}, rng),
                               Tensor::randn({1, spec.c, out, out}, rng)});
                        }
                      }
                    }
                    return [layers] {
                      for (Layer& l : *layers) {
                        l.pool->forward(l.x, /*train=*/true);
                        l.pool->backward(l.g);
                      }
                    };
                  }});
  list.push_back({"nn.sep_conv_fwd", 10, []() -> std::function<void()> {
                    Rng rng(5);
                    auto op = std::shared_ptr<Module>(
                        make_sep_conv(8, 3, 1, rng));
                    auto x = std::make_shared<Tensor>(
                        Tensor::randn({4, 8, 8, 8}, rng));
                    return [op, x] { op->forward(*x, /*train=*/false); };
                  }});
  list.push_back({"tensor.axpy_64k", 200, []() -> std::function<void()> {
                    Rng rng(6);
                    auto a = std::make_shared<Tensor>(
                        Tensor::randn({65536}, rng));
                    auto b = std::make_shared<Tensor>(
                        Tensor::randn({65536}, rng));
                    return [a, b] { *a += *b; };
                  }});

  // --- micro: supernet parameter plumbing ---
  list.push_back({"nas.mask_ids", 20, []() -> std::function<void()> {
                    Rng rng(7);
                    SearchConfig cfg = bench_search_config();
                    auto net =
                        std::make_shared<Supernet>(cfg.supernet, rng);
                    auto mask = std::make_shared<Mask>(
                        random_mask(net->num_edges(), rng));
                    return [net, mask] { net->masked_param_ids(*mask); };
                  }});
  list.push_back({"nas.gather_scatter", 15, []() -> std::function<void()> {
                    Rng rng(8);
                    SearchConfig cfg = bench_search_config();
                    auto net =
                        std::make_shared<Supernet>(cfg.supernet, rng);
                    const Mask mask = random_mask(net->num_edges(), rng);
                    auto ids = std::make_shared<std::vector<std::size_t>>(
                        net->masked_param_ids(mask));
                    return [net, ids] {
                      std::vector<float> flat = net->gather_values(*ids);
                      net->scatter_add_grads(*ids, flat);
                    };
                  }});
  list.push_back({"nas.densify_presence", 10, []() -> std::function<void()> {
                    Rng rng(9);
                    SearchConfig cfg = bench_search_config();
                    auto net =
                        std::make_shared<Supernet>(cfg.supernet, rng);
                    const Mask mask = random_mask(net->num_edges(), rng);
                    auto ids = std::make_shared<std::vector<std::size_t>>(
                        net->masked_param_ids(mask));
                    auto flat = std::make_shared<std::vector<float>>(
                        net->gather_values(*ids));
                    return [net, ids, flat] {
                      net->dense_from_masked(*ids, *flat);
                      net->presence_from_masked(*ids);
                    };
                  }});

  // --- micro: aggregation estimators at m in {10, 50} ---
  list.push_back(agg_bench("agg.mean_m10", "mean", 10, 20000, 20));
  list.push_back(agg_bench("agg.clipped_mean_m50", "clipped_mean:3", 50,
                           4000, 10));
  list.push_back(
      agg_bench("agg.coordinate_median_m10", "coordinate_median", 10, 20000,
                5));
  list.push_back(
      agg_bench("agg.trimmed_mean_m50", "trimmed_mean:5", 50, 4000, 5));
  list.push_back(agg_bench("agg.krum_m10", "krum:2", 10, 4000, 5));

  // --- micro: serialization + transport ---
  list.push_back({"fed.msg_roundtrip", 20, []() -> std::function<void()> {
                    Rng rng(10);
                    auto msg = std::make_shared<UpdateMsg>();
                    msg->round = 5;
                    msg->participant = 2;
                    msg->reward = 0.4F;
                    msg->loss = 1.2F;
                    msg->grads.resize(20000);
                    for (auto& g : msg->grads) g = rng.normal(0.0F, 0.1F);
                    return [msg] {
                      UpdateMsg::deserialize(msg->serialize());
                    };
                  }});
  list.push_back({"net.transmission_m50", 50, []() -> std::function<void()> {
                    auto rng = std::make_shared<Rng>(11);
                    auto bytes =
                        std::make_shared<std::vector<std::size_t>>();
                    auto bw = std::make_shared<std::vector<double>>();
                    for (int p = 0; p < 50; ++p) {
                      bytes->push_back(
                          static_cast<std::size_t>(100000 + 997 * p));
                      bw->push_back(1e6 + 3.7e4 * p);
                    }
                    return [rng, bytes, bw] {
                      const std::vector<int> assignment = assign_models(
                          *bytes, *bw, AssignStrategy::kAdaptive, *rng);
                      transmission_latency(*bytes, *bw, assignment,
                                           /*average_size=*/false);
                    };
                  }});

  // --- macro: checkpoint serialize / restore ---
  list.push_back({"ckpt.serialize", 4, []() -> std::function<void()> {
                    auto state = make_search_state(0xC4B1);
                    state->search->run_warmup(1);
                    return [state] {
                      state->search->checkpoint().serialize();
                    };
                  }});
  list.push_back({"ckpt.restore", 4, []() -> std::function<void()> {
                    auto state = make_search_state(0xC4B2);
                    state->search->run_warmup(1);
                    auto bytes =
                        std::make_shared<std::vector<std::uint8_t>>(
                            state->search->checkpoint().serialize());
                    return [state, bytes] {
                      state->search->restore(
                          SearchCheckpoint::deserialize(*bytes));
                    };
                  }});

  list.push_back({"ckpt.journal_append", 4, []() -> std::function<void()> {
                    auto state = make_search_state(0xC4B3);
                    state->search->run_warmup(1);
                    // One representative frame, re-appended each rep; a
                    // fresh temp journal per setup keeps file growth off
                    // the cross-run comparison.
                    auto frame = std::make_shared<JournalFrame>();
                    frame->phase = 0;
                    frame->round = 0;
                    frame->rng_cursor = std::string(32, 'r');
                    frame->staleness_cursor = std::string(32, 's');
                    const std::string path =
                        (std::filesystem::temp_directory_path() /
                         "fms_bench_journal_append.wal")
                            .string();
                    std::filesystem::remove(path);
                    auto wal =
                        std::make_shared<RoundJournal>(path, FaultPlan{});
                    return [frame, wal] { wal->append(*frame); };
                  }});

  // --- macro: full federated rounds ---
  list.push_back({"fed.round_warmup", 1, []() -> std::function<void()> {
                    auto state = make_search_state(0xF00D);
                    return [state] { state->search->run_warmup(1); };
                  }});
  list.push_back({"fed.round_search", 1, []() -> std::function<void()> {
                    auto state = make_search_state(0xF00E);
                    state->search->run_warmup(2);
                    auto opts = std::make_shared<SearchOptions>();
                    opts->stale_policy = StalePolicy::kCompensate;
                    opts->staleness = StalenessDistribution::severe();
                    return [state, opts] {
                      state->search->run_search(1, *opts);
                    };
                  }});
  // The same round at K=16, where participant training (run on up to
  // min(cores, K) threads) dominates: shows how a round scales past the
  // K=4 bench.
  list.push_back({"fed.round_search_k16", 1, []() -> std::function<void()> {
                    auto state = make_search_state(0xF016, 16);
                    state->search->run_warmup(2);
                    auto opts = std::make_shared<SearchOptions>();
                    opts->stale_policy = StalePolicy::kCompensate;
                    opts->staleness = StalenessDistribution::severe();
                    return [state, opts] {
                      state->search->run_search(1, *opts);
                    };
                  }});

  return list;
}

}  // namespace fms::bench
