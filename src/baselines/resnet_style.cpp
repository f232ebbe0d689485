#include "src/baselines/resnet_style.h"

#include "src/tensor/ops.h"

namespace fms {

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride,
                             Rng& rng) {
  auto main = std::make_unique<Sequential>();
  main->add(std::make_unique<Conv2d>(in_channels, out_channels, 3,
                                     Conv2dSpec{stride, 1, 1, 1}, rng));
  main->add(std::make_unique<BatchNorm2d>(out_channels));
  main->add(std::make_unique<ReLU>());
  main->add(std::make_unique<Conv2d>(out_channels, out_channels, 3,
                                     Conv2dSpec{1, 1, 1, 1}, rng));
  main->add(std::make_unique<BatchNorm2d>(out_channels));
  main_ = std::move(main);
  if (stride != 1 || in_channels != out_channels) {
    auto skip = std::make_unique<Sequential>();
    skip->add(std::make_unique<Conv2d>(in_channels, out_channels, 1,
                                       Conv2dSpec{stride, 0, 1, 1}, rng));
    skip->add(std::make_unique<BatchNorm2d>(out_channels));
    skip_ = std::move(skip);
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor main_out = main_->forward(x, train);
  Tensor skip_out = skip_ ? skip_->forward(x, train) : x;
  Tensor sum = main_out + skip_out;
  if (train) {
    cached_sum_ = sum;
    has_cache_ = true;
  } else {
    has_cache_ = false;
  }
  return relu_forward(sum);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  FMS_CHECK_MSG(has_cache_, "ResidualBlock::backward without train forward");
  Tensor g = relu_backward(cached_sum_, grad_out);
  Tensor gx = main_->backward(g);
  if (skip_) {
    gx += skip_->backward(g);
  } else {
    gx += g;
  }
  has_cache_ = false;
  return gx;
}

void ResidualBlock::collect_params(std::vector<Param*>& out) {
  main_->collect_params(out);
  if (skip_) skip_->collect_params(out);
}

ResNetStyle::ResNetStyle(const ResNetStyleConfig& cfg, Rng& rng) {
  auto body = std::make_unique<Sequential>();
  body->add(std::make_unique<Conv2d>(cfg.image_channels, cfg.base_channels, 3,
                                     Conv2dSpec{1, 1, 1, 1}, rng));
  body->add(std::make_unique<BatchNorm2d>(cfg.base_channels));
  body->add(std::make_unique<ReLU>());
  int channels = cfg.base_channels;
  for (std::size_t stage = 0; stage < cfg.stage_blocks.size(); ++stage) {
    const int out_channels = stage == 0 ? channels : channels * 2;
    for (int b = 0; b < cfg.stage_blocks[stage]; ++b) {
      const int stride = (stage > 0 && b == 0) ? 2 : 1;
      body->add(std::make_unique<ResidualBlock>(
          b == 0 ? channels : out_channels, out_channels, stride, rng));
    }
    channels = out_channels;
  }
  body_ = std::move(body);
  gap_ = std::make_unique<GlobalAvgPool>();
  classifier_ = std::make_unique<Linear>(channels, cfg.num_classes, rng);

  body_->collect_params(params_);
  classifier_->collect_params(params_);
  for (Param* p : params_) param_count_ += p->numel();
}

Tensor ResNetStyle::forward(const Tensor& x, bool train) {
  Tensor h = body_->forward(x, train);
  h = gap_->forward(h, train);
  has_cache_ = train;
  return classifier_->forward(h, train);
}

void ResNetStyle::backward(const Tensor& grad_logits) {
  FMS_CHECK_MSG(has_cache_, "ResNetStyle::backward without train forward");
  Tensor g = classifier_->backward(grad_logits);
  g = gap_->backward(g);
  body_->backward(g);
  has_cache_ = false;
}

void ResNetStyle::zero_grad() {
  for (Param* p : params_) p->grad.zero();
}

}  // namespace fms
