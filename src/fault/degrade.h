// Graceful-degradation controller: a hysteresis ladder the round loop
// steps down when rounds keep failing to commit cleanly, and back up when
// conditions recover.
//
// Mode ladder (each mode includes the measures of the ones before it):
//   0 normal          — configured deadline and quorum apply unchanged.
//   1 relax_deadline  — the timeout cap is stretched by relax_factor, so
//                       slow-but-present clients make the commit.
//   2 shrink_cohort   — only the fastest cohort_fraction of the live
//                       fleet is dispatched to (ties by id), shedding
//                       load and shortening the commit tail.
//   3 partial_quorum  — the quorum requirement itself is relieved by
//                       quorum_relief: the round commits with what
//                       arrived and stragglers fold into the soft-sync /
//                       delay-compensation path.
//
// Transitions are driven by *committed round outcomes only* (partial
// quorum, deadline blow-through), so the controller is causal: the mode
// for round t is fully determined by rounds < t, which makes it trivially
// checkpointable and bit-identical on resume. Hysteresis: stepping down
// takes trip_rounds consecutive bad rounds, stepping up takes
// recover_rounds consecutive good ones — recover_rounds > trip_rounds
// damps oscillation at a mode boundary.
#pragma once

#include <cstdint>

namespace fms {

class ByteReader;  // src/common/serialize.h
class ByteWriter;

enum class DegradeMode : int {
  kNormal = 0,
  kRelaxDeadline = 1,
  kShrinkCohort = 2,
  kPartialQuorum = 3,
};

const char* degrade_mode_name(DegradeMode m);

struct DegradeConfig {
  // Deepest mode the controller may enter; 0 disables it entirely (the
  // search then behaves exactly as before this layer existed).
  int max_mode = 0;
  int trip_rounds = 3;     // consecutive bad rounds before stepping down
  int recover_rounds = 6;  // consecutive good rounds before stepping up
  double relax_factor = 2.0;    // timeout multiplier at mode >= 1
  double cohort_fraction = 0.7; // live fraction dispatched at mode >= 2
  int min_cohort = 2;           // never shrink below this many clients
  double quorum_relief = 0.5;   // quorum multiplier at mode >= 3
};

class DegradationController {
 public:
  DegradeMode mode() const { return mode_; }

  struct Transition {
    bool changed = false;
    DegradeMode from = DegradeMode::kNormal;
    DegradeMode to = DegradeMode::kNormal;
  };

  // Feeds one committed round's outcome; may move one step along the
  // ladder and resets the streak that caused the move.
  Transition observe(bool bad_round, const DegradeConfig& cfg);

  int transitions() const { return transitions_; }
  int entries(DegradeMode m) const {
    return entered_[static_cast<std::size_t>(m)];
  }

  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& d);

  DegradeMode mode_ = DegradeMode::kNormal;
  int bad_streak_ = 0;
  int good_streak_ = 0;
  int transitions_ = 0;
  int entered_[4] = {0, 0, 0, 0};  // times each mode was stepped into
};

}  // namespace fms
