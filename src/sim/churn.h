// Deterministic client-churn model for the federated search substrate.
//
// The paper's protocol assumes a fixed participant set; a real fleet does
// not hold still: clients leave and rejoin at a steady background rate,
// whole cohorts vanish in bursts (network partitions, app updates), and
// load follows diurnal phases. This module *schedules* that membership —
// the server loop (src/core/search.cpp) reacts to it via the persistent
// ClientRegistry (src/fed/registry.h) and the degradation controller
// (src/fault/degrade.h).
//
// Like the fault injector, every membership decision is a pure function of
// (plan seed, participant, round): the model carries no evolving RNG
// state, so churn schedules are reproducible byte-for-byte, independent of
// query order, and a resumed search re-derives the exact same membership
// without checkpointing model state.
#pragma once

#include <cstdint>
#include <string>

namespace fms {

// Declarative churn schedule. An all-zero plan keeps every client live
// every round and the search takes its churn-free fast path.
struct ChurnPlan {
  // Steady-state churn: each live round a client starts an away period
  // with probability leave_p; the away duration is drawn uniformly from
  // [away_min, away_max] rounds. In equilibrium the absent fraction is
  // roughly leave_p * mean_away / (1 + leave_p * mean_away).
  double leave_p = 0.0;
  int away_min = 2;
  int away_max = 6;
  // Late joiners: this fraction of the fleet is absent from round 0 and
  // first appears at a round drawn from [1, join_spread].
  double late_join_fraction = 0.0;
  int join_spread = 10;
  // Burst mass-leave: this fraction of the fleet leaves together at
  // burst_round and stays away for burst_away rounds.
  double burst_fraction = 0.0;
  int burst_round = 0;
  int burst_away = 8;
  // Diurnal load phases: the steady leave rate is modulated by a triangle
  // wave of this amplitude over diurnal_period rounds (peak churn mid-
  // period, trough at the boundaries). Deterministic simulated phases —
  // no wall clock anywhere.
  double diurnal_amplitude = 0.0;
  int diurnal_period = 48;
  std::uint64_t seed = 0xC4DA;

  bool empty() const;

  // Parses "key=value" pairs separated by commas, e.g.
  //   "leave=0.06,away_min=2,away_max=6,burst=0.5,burst_round=20"
  // Keys: leave, away_min, away_max, late_join, join_spread, burst,
  // burst_round, burst_away, diurnal, diurnal_period, seed. Integer keys
  // take integer literals, every value must lie in its key's bound and
  // away_max >= away_min; throws CheckError otherwise or on an unknown key.
  // to_string() is exact: parse(to_string()) == *this.
  static ChurnPlan parse(const std::string& spec);
  std::string to_string() const;
  template <class Io, class Self>  // each key once (src/common/spec.h)
  static void keys(Io& io, Self& plan);
};

class ChurnModel {
 public:
  ChurnModel(const ChurnPlan& plan, int num_participants);

  const ChurnPlan& plan() const { return plan_; }
  bool active() const { return !plan_.empty(); }

  // First round this client exists (0 unless selected as a late joiner).
  int join_round(int participant) const;
  // Membership at `round`: false while absent (not yet joined, in a burst
  // away window, or inside a steady-state away period). Pure function of
  // (seed, participant, round) — overlapping away periods simply merge.
  bool is_live(int participant, int round) const;
  // Diurnally-modulated steady leave rate in effect at `round`.
  double leave_rate(int round) const;

 private:
  bool in_burst(int participant, int round) const;
  double u01(std::uint64_t salt, std::uint64_t a, std::uint64_t b) const;

  ChurnPlan plan_;
};

}  // namespace fms
