#include "src/core/retrain.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/tensor/ops.h"

namespace fms {

double evaluate(TrainableNet& net, const Dataset& data, int batch_size) {
  FMS_CHECK(!data.empty());
  int correct_total = 0;
  for (int start = 0; start < data.size(); start += batch_size) {
    const int end = std::min(data.size(), start + batch_size);
    std::vector<int> idx(static_cast<std::size_t>(end - start));
    std::iota(idx.begin(), idx.end(), start);
    Dataset::Batch batch = data.make_batch(idx, nullptr, nullptr);
    Tensor logits = net.forward(batch.x, /*train=*/false);
    CrossEntropyResult ce = cross_entropy(logits, batch.y);
    correct_total += static_cast<int>(
        ce.accuracy * static_cast<float>(end - start) + 0.5F);
  }
  return static_cast<double>(correct_total) / data.size();
}

namespace {

// The bookkeeping both trainers share: one curve point per step, a test
// evaluation every `eval_every` steps and on the last one, and the final
// and best test accuracy. The final accuracy is the last step's
// evaluation of the same weights, so it is not evaluated again.
struct Curve {
  TrainableNet& net;
  const Dataset& test;
  int batch_size;
  int steps;
  int eval_every;
  RetrainResult result;

  void record(int step, double train_acc) {
    TrainPoint pt;
    pt.step = step;
    pt.train_acc = train_acc;
    if ((step + 1) % eval_every == 0 || step + 1 == steps) {
      pt.val_acc = evaluate(net, test, batch_size);
      result.best_test_accuracy =
          std::max(result.best_test_accuracy, pt.val_acc);
    }
    result.curve.push_back(pt);
  }

  RetrainResult finish() {
    result.final_test_accuracy = result.curve.empty()
                                     ? evaluate(net, test, batch_size)
                                     : result.curve.back().val_acc;
    result.best_test_accuracy =
        std::max(result.best_test_accuracy, result.final_test_accuracy);
    return std::move(result);
  }
};

}  // namespace

RetrainResult centralized_train(TrainableNet& net, const Dataset& train,
                                const Dataset& test, int epochs,
                                int batch_size, const SGD::Options& opts,
                                const AugmentConfig* augment, Rng& rng,
                                int eval_every, const LrSchedule* schedule) {
  SGD optimizer(opts);
  Curve curve{net, test, batch_size, epochs, eval_every, {}};
  std::vector<int> order(static_cast<std::size_t>(train.size()));
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (schedule != nullptr) {
      optimizer.set_lr(schedule->lr_at(epoch, epochs));
    }
    rng.shuffle(order);
    double acc_sum = 0.0;
    int batches = 0;
    for (int start = 0; start + batch_size <= train.size();
         start += batch_size) {
      std::span<const int> idx(order.data() + start,
                               static_cast<std::size_t>(batch_size));
      Dataset::Batch batch = train.make_batch(idx, augment, &rng);
      net.zero_grad();
      Tensor logits = net.forward(batch.x, /*train=*/true);
      CrossEntropyResult ce = cross_entropy(logits, batch.y);
      net.backward(ce.grad_logits);
      optimizer.step(net.params());
      acc_sum += ce.accuracy;
      ++batches;
    }
    curve.record(epoch, batches > 0 ? acc_sum / batches : 0.0);
  }
  return curve.finish();
}

RetrainResult federated_train(TrainableNet& net, const Dataset& train,
                              const std::vector<std::vector<int>>& partition,
                              const Dataset& test, int rounds, int batch_size,
                              const SGD::Options& opts,
                              const AugmentConfig* augment, Rng& rng,
                              int eval_every, const LrSchedule* schedule) {
  SGD optimizer(opts);
  Curve curve{net, test, batch_size, rounds, eval_every, {}};
  const int k = static_cast<int>(partition.size());
  FMS_CHECK(k > 0);
  std::vector<Shard> shards;
  shards.reserve(partition.size());
  for (const auto& p : partition) shards.emplace_back(&train, p);

  const auto& params = net.params();
  for (int round = 0; round < rounds; ++round) {
    if (schedule != nullptr) {
      optimizer.set_lr(schedule->lr_at(round, rounds));
    }
    // Accumulate per-participant batch gradients into a flat average.
    std::vector<float> grad_sum;
    double acc_sum = 0.0;
    for (int p = 0; p < k; ++p) {
      Dataset::Batch batch =
          shards[static_cast<std::size_t>(p)].next_batch(batch_size, augment,
                                                         rng);
      net.zero_grad();
      Tensor logits = net.forward(batch.x, /*train=*/true);
      CrossEntropyResult ce = cross_entropy(logits, batch.y);
      net.backward(ce.grad_logits);
      acc_sum += ce.accuracy;
      std::vector<float> g = flatten_grads(params);
      if (grad_sum.empty()) {
        grad_sum = std::move(g);
      } else {
        for (std::size_t i = 0; i < grad_sum.size(); ++i) grad_sum[i] += g[i];
      }
    }
    for (float& g : grad_sum) g /= static_cast<float>(k);
    net.zero_grad();
    accumulate_grads(grad_sum, params);
    optimizer.step(params);

    curve.record(round, acc_sum / k);
  }
  return curve.finish();
}

}  // namespace fms
