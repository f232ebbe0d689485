#include "src/fault/fault.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/spec.h"
#include "src/obs/trace_ctx.h"

namespace fms {
namespace {

// Decision-stream salts: each fault family draws from its own hash stream
// so tuning one probability never reshuffles another family's schedule.
constexpr std::uint64_t kSaltCrashSelect = 0xC1;
constexpr std::uint64_t kSaltCrashRound = 0xC2;
constexpr std::uint64_t kSaltDropout = 0xD0;
constexpr std::uint64_t kSaltLink = 0x11;
constexpr std::uint64_t kSaltUplink = 0x12;
constexpr std::uint64_t kSaltUplinkJitter = 0x13;
constexpr std::uint64_t kSaltCollapse = 0xB0;
constexpr std::uint64_t kSaltCorrupt = 0xC0;
constexpr std::uint64_t kSaltCorruptBits = 0xCB;
constexpr std::uint64_t kSaltDivergentSelect = 0xF0;
constexpr std::uint64_t kSaltDivergent = 0xF1;
constexpr std::uint64_t kSaltPoisonMode = 0xF2;
constexpr std::uint64_t kSaltSignFlip = 0xA1;
constexpr std::uint64_t kSaltGradScale = 0xA2;
constexpr std::uint64_t kSaltCollude = 0xA3;
constexpr std::uint64_t kSaltColludeStream = 0xA4;
constexpr std::uint64_t kSaltRewardAttack = 0xA5;
// Disk faults (durability path): keyed by (op, op_id = round), not by
// participant — durable writes happen on the coordinator.
constexpr std::uint64_t kSaltDiskEio = 0xE0;
constexpr std::uint64_t kSaltDiskShort = 0xE1;
constexpr std::uint64_t kSaltDiskTear = 0xE2;
constexpr std::uint64_t kSaltDiskCorrupt = 0xE3;

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kDropout: return "dropout";
    case FaultKind::kLinkFailure: return "link_failure";
    case FaultKind::kBandwidthCollapse: return "bandwidth_collapse";
    case FaultKind::kCorruptPayload: return "corrupt_payload";
    case FaultKind::kDivergent: return "divergent";
    case FaultKind::kSignFlip: return "sign_flip";
    case FaultKind::kGradScale: return "grad_scale";
    case FaultKind::kCollude: return "collude";
    case FaultKind::kRewardAttack: return "reward_attack";
  }
  return "unknown";
}

bool FaultPlan::empty() const {
  return crash_fraction <= 0.0 && dropout_p <= 0.0 && link_failure_p <= 0.0 &&
         uplink_failure_p <= 0.0 && collapse_p <= 0.0 && corrupt_p <= 0.0 &&
         divergent_fraction <= 0.0 && !has_byzantine();
}

bool FaultPlan::has_byzantine() const {
  return sign_flip_fraction > 0.0 || grad_scale_fraction > 0.0 ||
         collude_fraction > 0.0 || reward_attack_fraction > 0.0;
}

bool FaultPlan::has_disk() const {
  return disk_eio_p > 0.0 || disk_short_p > 0.0 || disk_corrupt_p > 0.0;
}

FaultPlan FaultPlan::severe(std::uint64_t seed) {
  FaultPlan plan;
  plan.crash_fraction = 0.3;
  plan.crash_round = 0;
  plan.crash_spread = 10;
  plan.corrupt_p = 0.1;
  plan.divergent_fraction = 0.2;
  plan.divergent_p = 0.5;
  plan.link_failure_p = 0.1;
  plan.seed = seed;
  return plan;
}

template <class Io, class Self>
void FaultPlan::keys(Io& io, Self& p) {
  io("crash", p.crash_fraction, kUnit);
  io("crash_round", p.crash_round);
  io("crash_spread", p.crash_spread, Bound{0});
  io("dropout", p.dropout_p, kUnit);
  io("dropout_rounds", p.dropout_rounds, Bound{1});
  io("link", p.link_failure_p, kUnit);
  io("uplink", p.uplink_failure_p, kUnit);
  io("backoff_jitter", p.backoff_jitter, kUnit);
  io("collapse", p.collapse_p, kUnit);
  io("collapse_factor", p.collapse_factor, Bound{0, 1, true});
  io("corrupt", p.corrupt_p, kUnit);
  io("corrupt_bits", p.corrupt_bits, Bound{1});
  io("divergent", p.divergent_fraction, kUnit);
  io("divergent_p", p.divergent_p, kUnit);
  io("sign_flip", p.sign_flip_fraction, kUnit);
  io("sign_flip_lambda", p.sign_flip_lambda, kPositive);
  io("grad_scale", p.grad_scale_fraction, kUnit);
  io("grad_scale_lambda", p.grad_scale_lambda, kPositive);
  io("collude", p.collude_fraction, kUnit);
  io("collude_scale", p.collude_scale, kPositive);
  io("reward_attack", p.reward_attack_fraction, kUnit);
  io("reward_attack_delta", p.reward_attack_delta, Bound{-1, 1});
  io("disk_eio", p.disk_eio_p, kUnit);
  io("disk_short", p.disk_short_p, kUnit);
  io("disk_corrupt", p.disk_corrupt_p, kUnit);
  io("disk_corrupt_bits", p.disk_corrupt_bits, Bound{1});
  io("seed", p.seed);
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  return parse_spec<FaultPlan>("fault-plan", spec);
}

std::string FaultPlan::to_string() const { return spec_string(*this); }

FaultInjector::FaultInjector(const FaultPlan& plan, int num_participants)
    : plan_(plan) {
  FMS_CHECK_MSG(num_participants > 0, "injector needs participants");
}

double FaultInjector::u01(std::uint64_t salt, std::uint64_t a,
                          std::uint64_t b) const {
  return keyed_u01(plan_.seed, salt, a, b);
}

bool FaultInjector::is_crashed(int participant, int round) const {
  if (plan_.crash_fraction <= 0.0) return false;
  const auto p = static_cast<std::uint64_t>(participant);
  if (u01(kSaltCrashSelect, p, 0) >= plan_.crash_fraction) return false;
  const int at = plan_.crash_round +
                 static_cast<int>(u01(kSaltCrashRound, p, 0) *
                                  (plan_.crash_spread + 1));
  return round >= at;
}

bool FaultInjector::is_dropped_out(int participant, int round) const {
  if (plan_.dropout_p <= 0.0) return false;
  const auto p = static_cast<std::uint64_t>(participant);
  for (int r = round - plan_.dropout_rounds + 1; r <= round; ++r) {
    if (r < 0) continue;
    if (u01(kSaltDropout, p, static_cast<std::uint64_t>(r)) < plan_.dropout_p) {
      return true;
    }
  }
  return false;
}

LinkOutcome FaultInjector::link_outcome(int participant, int round,
                                        int max_retransmits,
                                        double backoff_s) const {
  LinkOutcome out;
  if (plan_.link_failure_p <= 0.0 && plan_.collapse_p <= 0.0) return out;
  const auto p = static_cast<std::uint64_t>(participant);
  const auto r = static_cast<std::uint64_t>(round);
  double backoff = backoff_s;
  for (int attempt = 0; attempt <= max_retransmits; ++attempt) {
    const std::uint64_t word = r * 64 + static_cast<std::uint64_t>(attempt);
    if (u01(kSaltLink, p, word) < plan_.link_failure_p) {
      if (attempt == max_retransmits) {
        out.delivered = false;
        return out;
      }
      ++out.retransmits;
      out.extra_seconds += backoff;
      backoff *= 2.0;  // exponential backoff between retries
      continue;
    }
    break;
  }
  if (plan_.collapse_p > 0.0 && u01(kSaltCollapse, p, r) < plan_.collapse_p) {
    out.bandwidth_scale = plan_.collapse_factor;
  }
  return out;
}

LinkOutcome FaultInjector::upload_outcome(int participant, int round,
                                          int max_retransmits,
                                          double backoff_s) const {
  LinkOutcome out;
  if (plan_.uplink_failure_p <= 0.0) return out;
  const auto p = static_cast<std::uint64_t>(participant);
  const auto r = static_cast<std::uint64_t>(round);
  double backoff = backoff_s;
  for (int attempt = 0; attempt <= max_retransmits; ++attempt) {
    const std::uint64_t word = r * 64 + static_cast<std::uint64_t>(attempt);
    if (u01(kSaltUplink, p, word) < plan_.uplink_failure_p) {
      if (attempt == max_retransmits) {
        out.delivered = false;
        return out;
      }
      ++out.retransmits;
      // Exponential backoff with deterministic seeded jitter: hashing
      // (participant, round, attempt) spreads colliding retries without
      // consuming any RNG stream the checkpoint would have to carry.
      const double jitter =
          plan_.backoff_jitter > 0.0
              ? 1.0 + plan_.backoff_jitter * u01(kSaltUplinkJitter, p, word)
              : 1.0;
      out.extra_seconds += backoff * jitter;
      backoff *= 2.0;
      continue;
    }
    break;
  }
  return out;
}

std::optional<FaultKind> FaultInjector::payload_fault(int participant,
                                                      int round) const {
  const auto p = static_cast<std::uint64_t>(participant);
  const auto r = static_cast<std::uint64_t>(round);
  if (plan_.divergent_fraction > 0.0 &&
      u01(kSaltDivergentSelect, p, 0) < plan_.divergent_fraction &&
      u01(kSaltDivergent, p, r) < plan_.divergent_p) {
    return FaultKind::kDivergent;
  }
  if (plan_.corrupt_p > 0.0 && u01(kSaltCorrupt, p, r) < plan_.corrupt_p) {
    return FaultKind::kCorruptPayload;
  }
  return std::nullopt;
}

std::optional<FaultKind> FaultInjector::byzantine_kind(
    int participant, int /*round*/) const {
  // Selection is persistent: a Byzantine client lies on every update it
  // sends (the round argument stays in the API so schedules could become
  // time-varying without touching call sites).
  const auto p = static_cast<std::uint64_t>(participant);
  if (plan_.sign_flip_fraction > 0.0 &&
      u01(kSaltSignFlip, p, 0) < plan_.sign_flip_fraction) {
    return FaultKind::kSignFlip;
  }
  if (plan_.grad_scale_fraction > 0.0 &&
      u01(kSaltGradScale, p, 0) < plan_.grad_scale_fraction) {
    return FaultKind::kGradScale;
  }
  if (plan_.collude_fraction > 0.0 &&
      u01(kSaltCollude, p, 0) < plan_.collude_fraction) {
    return FaultKind::kCollude;
  }
  if (plan_.reward_attack_fraction > 0.0 &&
      u01(kSaltRewardAttack, p, 0) < plan_.reward_attack_fraction) {
    return FaultKind::kRewardAttack;
  }
  return std::nullopt;
}

std::optional<FaultKind> FaultInjector::update_fault(int participant,
                                                     int round) const {
  if (!active()) return std::nullopt;
  const std::optional<FaultKind> pf = payload_fault(participant, round);
  return pf.has_value() ? pf : byzantine_kind(participant, round);
}

void FaultInjector::attack(UpdateMsg& upd, FaultKind kind, int /*participant*/,
                           int round) const {
  auto clamp01 = [](double r) {
    return static_cast<float>(std::min(1.0, std::max(0.0, r)));
  };
  switch (kind) {
    case FaultKind::kSignFlip:
      // Reverse-direction attack: honest reward, inverted (and optionally
      // amplified) gradient — turns the averaged step into ascent.
      for (float& g : upd.grads) {
        g = static_cast<float>(-plan_.sign_flip_lambda * g);
      }
      break;
    case FaultKind::kGradScale:
      for (float& g : upd.grads) {
        g = static_cast<float>(plan_.grad_scale_lambda * g);
      }
      break;
    case FaultKind::kCollude: {
      // Every colluder in a round replays the same pseudo-gradient stream
      // (keyed by round only), so the clones sit arbitrarily close to one
      // another — the schedule that stresses distance-based defenses.
      Rng rng(keyed_hash(plan_.seed, kSaltColludeStream,
                         static_cast<std::uint64_t>(round), 0));
      const auto scale = static_cast<float>(plan_.collude_scale);
      for (float& g : upd.grads) g = scale * rng.uniform(-1.0F, 1.0F);
      break;
    }
    case FaultKind::kRewardAttack:
      // Stays inside [0, 1] by design: this lie is invisible to update
      // screening and must be absorbed by reward winsorization or the
      // median baseline.
      upd.reward = clamp01(static_cast<double>(upd.reward) +
                           plan_.reward_attack_delta);
      break;
    default:
      break;
  }
}

void FaultInjector::corrupt(std::vector<float>& values, int participant,
                            int round) const {
  if (values.empty()) return;
  Rng rng(keyed_hash(plan_.seed, kSaltCorruptBits,
                     static_cast<std::uint64_t>(participant),
                     static_cast<std::uint64_t>(round)));
  for (int i = 0; i < plan_.corrupt_bits; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.randint(0, static_cast<int>(values.size()) - 1));
    const int bit = rng.randint(0, 31);
    std::uint32_t word;
    std::memcpy(&word, &values[idx], sizeof(word));
    word ^= (1U << bit);
    std::memcpy(&values[idx], &word, sizeof(word));
  }
}

DiskOutcome FaultInjector::disk_outcome(DiskOp op, std::uint64_t op_id) const {
  DiskOutcome out;
  if (!plan_.has_disk()) return out;
  const auto o = static_cast<std::uint64_t>(op);
  if (plan_.disk_eio_p > 0.0 && u01(kSaltDiskEio, o, op_id) < plan_.disk_eio_p) {
    out.eio = true;
  }
  if (plan_.disk_short_p > 0.0 &&
      u01(kSaltDiskShort, o, op_id) < plan_.disk_short_p) {
    out.short_write = true;
    out.keep_fraction = u01(kSaltDiskTear, o, op_id);
  }
  if (plan_.disk_corrupt_p > 0.0 &&
      u01(kSaltDiskCorrupt, o, op_id) < plan_.disk_corrupt_p) {
    out.corrupt = true;
  }
  return out;
}

void FaultInjector::corrupt_bytes(std::vector<std::uint8_t>& bytes,
                                  std::uint64_t op_id) const {
  if (bytes.empty()) return;
  Rng rng(keyed_hash(plan_.seed, kSaltDiskCorrupt, op_id, 1));
  for (int i = 0; i < plan_.disk_corrupt_bits; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng.randint(0, static_cast<int>(bytes.size()) - 1));
    bytes[idx] ^= static_cast<std::uint8_t>(1U << rng.randint(0, 7));
  }
}

void FaultInjector::poison(UpdateMsg& upd, int participant, int round) const {
  const std::uint64_t mode =
      keyed_hash(plan_.seed, kSaltPoisonMode,
                 static_cast<std::uint64_t>(participant),
                 static_cast<std::uint64_t>(round)) %
      3;
  switch (mode) {
    case 0:  // NaN gradients, NaN reward
      for (std::size_t i = 0; i < upd.grads.size(); i += 3) {
        upd.grads[i] = std::numeric_limits<float>::quiet_NaN();
      }
      upd.reward = std::numeric_limits<float>::quiet_NaN();
      break;
    case 1:  // Inf gradients, Inf loss
      for (std::size_t i = 0; i < upd.grads.size(); i += 3) {
        upd.grads[i] = std::numeric_limits<float>::infinity();
      }
      upd.loss = std::numeric_limits<float>::infinity();
      break;
    default:  // exploding but finite gradients, out-of-range reward
      for (float& g : upd.grads) g = g * 1e12F + 1e8F;
      upd.reward = 1e6F;
      break;
  }
}

namespace {

// Screening body; the public wrapper adds the trace hook so every early
// return records its verdict exactly once.
const char* screen_update_impl(const UpdateMsg& upd, float max_grad_norm) {
  if (!std::isfinite(upd.reward) || upd.reward < 0.0F || upd.reward > 1.0F) {
    return "reward_out_of_range";
  }
  if (!std::isfinite(upd.loss)) return "loss_not_finite";
  double sq = 0.0;
  for (const float g : upd.grads) {
    if (!std::isfinite(g)) return "grad_not_finite";
    sq += static_cast<double>(g) * g;
  }
  if (max_grad_norm > 0.0F &&
      sq > static_cast<double>(max_grad_norm) * max_grad_norm) {
    return "grad_norm_outlier";
  }
  return nullptr;
}

}  // namespace

const char* screen_update(const UpdateMsg& upd, float max_grad_norm) {
  const char* violation = screen_update_impl(upd, max_grad_norm);
  if (violation != nullptr && obs::tracing_enabled()) {
    // Causal screen event, keyed to the update's dispatch round so the
    // rejection joins the cohort's trace even when the update was stale.
    obs::TraceContext::instance().record(
        upd.participant, obs::Stage::kScreen, 0.0, 0.0, 0.0,
        std::string("rejected:") + violation, upd.round);
  }
  return violation;
}

}  // namespace fms
