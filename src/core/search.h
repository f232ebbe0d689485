// FederatedSearch — the paper's primary contribution, end to end.
//
// Implements Algorithm 1 (Delay-Compensated Federated Model Search): the
// server holds the supernet theta and the RL controller alpha; each round
// it samples one-hot masks per participant, ships pruned sub-models
// (adaptively matched to transmission conditions), retrieves rewards and
// weight gradients, repairs stale updates per the configured policy, and
// updates alpha by REINFORCE and theta by averaged SGD.
//
// Phases (paper §VI-A): warm-up (P1) trains theta under a fixed uniform
// policy; search (P2) optimizes alpha and theta jointly; derive() then
// discretizes alpha into the final Genotype for retraining (P3).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "src/agg/aggregator.h"
#include "src/common/config.h"
#include "src/common/stats.h"
#include "src/common/thread_pool.h"
#include "src/core/checkpoint.h"
#include "src/core/deadline.h"
#include "src/core/journal.h"
#include "src/core/round_record.h"
#include "src/data/dataset.h"
#include "src/dc/compensation.h"
#include "src/fault/degrade.h"
#include "src/fault/fault.h"
#include "src/fed/compression.h"
#include "src/fed/participant.h"
#include "src/fed/registry.h"
#include "src/net/trace.h"
#include "src/net/transmission.h"
#include "src/nn/optim.h"
#include "src/sim/churn.h"
#include "src/sim/staleness.h"

namespace fms {

namespace obs {
class HealthMonitor;  // src/obs/health.h
}

struct SearchOptions {
  StalePolicy stale_policy = StalePolicy::kHardSync;
  StalenessDistribution staleness = StalenessDistribution::none();
  float dc_lambda = 0.5F;  // lambda of Eq. 13 / Eq. 15
  AssignStrategy assign = AssignStrategy::kAdaptive;
  bool update_theta = true;  // false reproduces the Fig. 5 ablation
  bool update_alpha = true;  // false during warm-up
  // Lossy payload compression applied to sub-model downloads and gradient
  // uploads; the quantization noise flows through training.
  Codec codec = Codec::kFloat32;

  // --- fault injection + server-side defenses ---
  // Deterministic fault schedule; an empty plan injects nothing.
  FaultPlan fault_plan;
  // Quorum-based round commit: the round closes once ceil(quorum * K)
  // updates have arrived, or — when round_timeout_s > 0 — at the timeout,
  // whichever is earlier. Stragglers past the deadline fold into the
  // soft-sync/DC path with staleness >= 1 (or are dropped under hard
  // sync). quorum = 1 with no timeout reproduces classic full-sync rounds.
  double quorum = 1.0;
  double round_timeout_s = 0.0;  // 0 disables the timeout
  // Bounded retransmit-with-backoff for failed downloads: up to
  // max_retransmits retries, the n-th delayed by retransmit_backoff_s*2^n.
  int max_retransmits = 2;
  double retransmit_backoff_s = 0.5;
  // Update screening: reject non-finite rewards/losses/gradients and
  // gradient norms above screen_max_grad_norm before they can poison
  // theta, alpha, or the REINFORCE baseline. The default bound is far
  // above anything benign training produces, so screening is on by
  // default without perturbing fault-free runs.
  bool screen_updates = true;
  float screen_max_grad_norm = 1e4F;  // <= 0 disables the norm bound
  // Adaptive screening bound: when enabled and at least adaptive_screen_min
  // updates arrived this round, the norm cutoff tightens to
  // median + k*MAD over the round's update norms (never looser than
  // screen_max_grad_norm); with fewer arrivals the fixed cap applies
  // unchanged — robust statistics need a quorum of their own.
  bool adaptive_screen = false;
  double adaptive_screen_k = 6.0;
  int adaptive_screen_min = 4;
  // --- Byzantine-robust aggregation (src/agg) ---
  // Gradient estimator for the theta update. kMean reproduces Eq. 13
  // exactly (bit-identical to the pre-robustness code path); the robust
  // estimators bound the influence any f lying participants can exert.
  // Screening is the pre-filter (rejects individually implausible
  // updates); the aggregator is the estimator (bounds coordinated,
  // in-range lies that screening cannot see).
  agg::AggregatorConfig aggregator;
  // Robust reward channel for the alpha REINFORCE update: k > 0 clamps
  // each arrived reward into [Q1 - k*IQR, Q3 + k*IQR] of the round's
  // arrivals before it can reach the moving average, the baseline, or its
  // own advantage (1.5 is the classic Tukey fence). 0 disables.
  double winsorize_rewards_k = 0.0;
  // Statistic feeding the REINFORCE baseline EMA (Eq. 9); the median
  // variant is immune to any lying minority.
  BaselineMode baseline_mode = BaselineMode::kMeanReward;
  // --- churn + graceful degradation (PR 7) ---
  // Deterministic membership schedule; an empty plan keeps every client
  // live every round. Churned-away clients are *not* faults: nothing is
  // dispatched to them and nothing enters the fault ledger.
  ChurnPlan churn_plan;
  // Adaptive round deadline: when enabled and warm, a windowed-quantile
  // estimate of recent committed per-participant round times replaces the
  // static round_timeout_s as the commit cap.
  AdaptiveTimeoutConfig adaptive_timeout;
  // Graceful-degradation ladder (relax deadline -> shrink cohort ->
  // partial-quorum commit); degrade.max_mode = 0 disables the controller.
  DegradeConfig degrade;
  // Auto-checkpoint cadence (crash-recovery): every checkpoint_every
  // rounds the full search state is written to checkpoint_path.
  int checkpoint_every = 0;  // 0 disables
  std::string checkpoint_path;
};

// Cumulative robustness ledger across all rounds (CLI summary): how much
// influence the robust estimators and the winsorized reward channel
// actually removed.
struct RobustStats {
  std::uint64_t clipped_updates = 0;
  double clipped_mass = 0.0;
  std::uint64_t trimmed_values = 0;
  std::uint64_t rejected_updates = 0;
  std::uint64_t winsorized_rewards = 0;
};

class FederatedSearch {
 public:
  // `partition[k]` holds the training-set indices of participant k.
  // When cfg.telemetry.enabled the constructor installs the configured
  // sinks on the global obs::Telemetry context; the destructor then
  // flushes them and writes the metrics CSV snapshot.
  FederatedSearch(const SearchConfig& cfg, const Dataset& train_data,
                  const std::vector<std::vector<int>>& partition);
  ~FederatedSearch();

  // P1: fixed (uniform) alpha, theta-only updates.
  std::vector<RoundRecord> run_warmup(int steps);
  // P2: the search itself.
  std::vector<RoundRecord> run_search(int steps, const SearchOptions& opts);

  Genotype derive() const;

  Supernet& supernet() { return *supernet_; }
  ArchPolicy& policy() { return policy_; }
  int num_participants() const { return static_cast<int>(participants_.size()); }

  // Payload statistics accumulated over all rounds so far.
  double avg_submodel_bytes() const;
  std::size_t supernet_bytes() const { return supernet_->supernet_bytes(); }
  std::size_t total_bytes_down() const { return total_bytes_down_; }
  std::size_t total_bytes_up() const { return total_bytes_up_; }

  // Crash-recovery. checkpoint() captures the complete search state —
  // weights, alpha, baseline, optimizer momentum, moving-average window,
  // DC memory pool, in-flight arrivals, and every RNG stream — so that a
  // restore()d search replays the exact RoundRecord stream an
  // uninterrupted run would have produced (bit-identical, same seeds).
  SearchCheckpoint checkpoint();
  // Accepts v1 (weights-only) checkpoints too; those resume the weights
  // and round counter but not the runtime streams.
  void restore(const SearchCheckpoint& ckpt);

  // --- write-ahead round journal + kill-anywhere recovery ---
  // Opens the journal at `path`; from then on every committed round
  // appends one frame. `disk_plan` seeds the disk-fault channel (pass the
  // run's fault plan; a plan without disk_* keys journals fault-free).
  // Journaling is purely observational: the search trajectory is
  // bit-identical with it on or off.
  void enable_journal(const std::string& path, const FaultPlan& disk_plan);
  const RoundJournal* journal() const { return journal_.get(); }

  struct RecoverConfig {
    std::string checkpoint_path;  // primary; `.prev` is the fallback
    std::string journal_path;     // live journal; `.prev` covers the
                                  // previous checkpoint generation
    int warmup_rounds = 0;        // phase boundary for replay
    SearchOptions search;         // options the crashed run used
  };

  struct RecoveryReport {
    bool checkpoint_loaded = false;   // false: no checkpoint, fresh start
    bool used_prev_checkpoint = false;
    int start_round = 0;        // round counter restored from the checkpoint
    int replayed_rounds = 0;    // rounds re-executed past the checkpoint
    std::uint64_t frames_loaded = 0;
    std::size_t torn_bytes = 0;  // truncated off the live journal tail
    double recovery_ms = 0.0;
  };

  // Kill-anywhere recovery: loads the newest valid checkpoint (falling
  // back to `.prev`), truncates any torn journal tail, deterministically
  // re-executes every round past the checkpoint, and verifies each
  // re-executed round against its journal frame (record bytes, RNG
  // cursors, ladder position) when one survived. Leaves the search ready
  // to continue — and journaling to `journal_path`.
  RecoveryReport recover(const RecoverConfig& rc);

  // Cumulative fault ledger across all rounds run so far. Invariant:
  // injected_total() == rejected + dropped + recovered.
  const FaultStats& fault_stats() const { return fault_stats_; }
  // Cumulative robust-aggregation ledger across all rounds run so far.
  const RobustStats& robust_stats() const { return robust_stats_; }
  // Persistent per-client registry (membership history, device profiles,
  // latency momentum, staleness history).
  const ClientRegistry& registry() const { return registry_; }
  // Degradation ladder mode after the last committed round.
  DegradeMode degrade_mode() const { return degrade_.mode(); }
  int degrade_transitions() const { return degrade_.transitions(); }

  // Online search-health monitor (nullptr unless cfg.telemetry.health or
  // a health_report_path was configured). The destructor writes the
  // health.json report when a path was configured.
  const obs::HealthMonitor* health() const { return health_.get(); }

  // Optional per-round observer (progress logging in examples/benches).
  std::function<void(const RoundRecord&)> on_round;

 private:
  // Round phase types, defined in search.cpp.
  struct RoundPlan;
  struct ExecutedUpdate;
  struct AppliedUpdate;

  // One round as Algorithm 1's three phases (DESIGN.md §5.7): plan draws
  // and decides, execute trains (const: no server state), commit books.
  RoundRecord run_round(int t, const SearchOptions& opts);
  RoundPlan plan_round(int t, const SearchOptions& opts,
                       const FaultInjector& injector, RoundRecord& rec);
  std::vector<ExecutedUpdate> execute_round(const RoundPlan& plan,
                                            const SearchOptions& opts,
                                            const FaultInjector& injector) const;
  void commit_round(const RoundPlan& plan, std::vector<ExecutedUpdate> done,
                    const SearchOptions& opts, const FaultInjector& injector,
                    RoundRecord& rec);
  // Commit's sub-phases, in call order.
  void commit_dispatches(const RoundPlan& plan, std::vector<ExecutedUpdate> done,
                         const SearchOptions& opts,
                         const FaultInjector& injector, RoundRecord& rec);
  std::vector<AppliedUpdate> collect_arrivals(int t, const SearchOptions& opts,
                                              const FaultInjector& injector,
                                              RoundRecord& rec);
  void aggregate_round(const std::vector<AppliedUpdate>& applied,
                       const SearchOptions& opts, RoundRecord& rec);
  // An update lost after dispatch: a round drop, a fault-ledger drop when
  // a fault rode on it, and a kDrop lifecycle event.
  void drop_update(RoundRecord& rec, int participant, int origin_round,
                   bool faulted, double offset_s, double value,
                   std::string_view reason);
  void record_round_telemetry(const RoundRecord& rec, const SearchOptions& opts,
                              const FaultStats& before);
  // The runtime blob a v2 checkpoint carries, written and read by walk().
  std::vector<std::uint8_t> serialize_runtime_state() const;
  void restore_runtime_state(const std::vector<std::uint8_t>& bytes);
  template <class Io, class Self>
  static void walk(Io& io, Self& s);
  // The fixed warm-up options (P1): uniform alpha, theta-only updates.
  // Shared between run_warmup and recovery replay so both phases execute
  // the identical configuration.
  static SearchOptions warmup_options();
  // Appends one frame for a committed round (no-op when no journal).
  void journal_round(std::uint8_t phase, const RoundRecord& rec);

  SearchConfig cfg_;
  Rng rng_;
  // Dedicated stream so soft-sync staleness draws do not perturb the main
  // stream: an all-fresh soft-sync run follows the hard-sync trajectory
  // exactly (verified by test).
  Rng staleness_rng_;
  std::unique_ptr<Supernet> supernet_;
  ArchPolicy policy_;
  SGD theta_opt_;
  std::vector<std::unique_ptr<SearchParticipant>> participants_;
  std::vector<BandwidthTrace> traces_;
  bool owns_telemetry_ = false;  // true when the ctor configured the sinks
  std::unique_ptr<obs::HealthMonitor> health_;
  MemoryPool pool_;
  std::map<int, std::vector<UpdateMsg>> arrivals_;
  WindowAverage moving_;
  FaultStats fault_stats_;
  RobustStats robust_stats_;
  ClientRegistry registry_;
  DeadlineEstimator deadline_est_;
  DegradationController degrade_;
  std::unique_ptr<RoundJournal> journal_;
  // Disk-fault channel for checkpoint/genotype writes (shares the plan
  // seed with the journal's own injector, distinct DiskOp streams).
  std::unique_ptr<FaultInjector> disk_faults_;
  int round_counter_ = 0;
  std::size_t total_bytes_down_ = 0;
  std::size_t total_bytes_up_ = 0;
  std::size_t submodel_bytes_sum_ = 0;
  std::size_t submodel_count_ = 0;
  // Trains a round's participants (execute_round): the process-wide pool
  // of SearchConfig::threads workers (shared_thread_pool).
  ThreadPool& workers_;
};

}  // namespace fms
