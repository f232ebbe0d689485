#include "src/fault/degrade.h"

#include <algorithm>

#include "src/common/serialize.h"

namespace fms {

const char* degrade_mode_name(DegradeMode m) {
  switch (m) {
    case DegradeMode::kNormal: return "normal";
    case DegradeMode::kRelaxDeadline: return "relax_deadline";
    case DegradeMode::kShrinkCohort: return "shrink_cohort";
    case DegradeMode::kPartialQuorum: return "partial_quorum";
  }
  return "unknown";
}

DegradationController::Transition DegradationController::observe(
    bool bad_round, const DegradeConfig& cfg) {
  Transition tr;
  tr.from = mode_;
  tr.to = mode_;
  const int max_mode = std::min(3, std::max(0, cfg.max_mode));
  const int trip = std::max(1, cfg.trip_rounds);
  const int recover = std::max(1, cfg.recover_rounds);
  if (bad_round) {
    ++bad_streak_;
    good_streak_ = 0;
    if (bad_streak_ >= trip && static_cast<int>(mode_) < max_mode) {
      mode_ = static_cast<DegradeMode>(static_cast<int>(mode_) + 1);
      bad_streak_ = 0;  // re-arm: the next step needs a fresh streak
      ++entered_[static_cast<std::size_t>(mode_)];
    }
  } else {
    ++good_streak_;
    bad_streak_ = 0;
    if (good_streak_ >= recover && mode_ != DegradeMode::kNormal) {
      mode_ = static_cast<DegradeMode>(static_cast<int>(mode_) - 1);
      good_streak_ = 0;
    }
  }
  // A lowered max_mode (e.g. on resume with a different flag) pulls the
  // controller back inside the allowed ladder immediately.
  if (static_cast<int>(mode_) > max_mode) {
    mode_ = static_cast<DegradeMode>(max_mode);
  }
  tr.to = mode_;
  tr.changed = tr.to != tr.from;
  if (tr.changed) ++transitions_;
  return tr;
}

template <class Io, class Self>
void DegradationController::walk(Io& io, Self& d) {
  io(as<std::int32_t>(d.mode_), d.bad_streak_, d.good_streak_,
     d.transitions_, d.entered_);
  if constexpr (Io::kReading) {
    d.mode_ = static_cast<DegradeMode>(
        std::clamp(static_cast<int>(d.mode_), 0, 3));
  }
}

void DegradationController::serialize(ByteWriter& w) const { walk(w, *this); }
void DegradationController::restore(ByteReader& r) { walk(r, *this); }

}  // namespace fms
