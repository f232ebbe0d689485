#include "src/core/search.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "src/common/serialize.h"
#include "src/common/stopwatch.h"
#include "src/nn/optim.h"
#include "src/obs/alloc.h"
#include "src/obs/health.h"
#include "src/obs/profile.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace_ctx.h"
#include "src/tensor/ops.h"

namespace fms {
namespace {

// Header of the opaque runtime-state blob inside v2 checkpoints. Bumped to
// "FMS4" when the churn layer appended the client registry, the deadline-
// estimator window, and the degradation-controller state (and the fault
// ledger grew the uplink counter): older blobs fail the magic check
// instead of misparsing a shifted layout.
constexpr std::uint32_t kRuntimeMagic = 0x464d5334;  // "FMS4"

// One participant's fate in a round, as plan_round decides it.
enum class Slot : std::uint8_t {
  kAbsent,     // churned away: nothing dispatched, nothing booked
  kShed,       // live, but outside the degraded cohort
  kOffline,    // crashed or dropped out (fault = kCrash / kDropout)
  kLinkDead,   // download never landed (faulted link or dead trace)
  kDispatched  // trains on masks[mask] this round
};

// Pool size for SearchConfig::threads (0 = auto), capped at the K
// participants a round can train at once.
std::size_t pool_size(int threads, std::size_t participants) {
  FMS_CHECK_MSG(threads >= 0, "threads must be >= 0, got " << threads);
  const std::size_t want =
      threads > 0 ? static_cast<std::size_t>(threads)
                  : std::max(1U, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(want, 1, std::max<std::size_t>(participants, 1));
}

struct ParticipantPlan {
  Slot slot = Slot::kAbsent;
  int mask = -1;         // index into RoundPlan::masks
  double latency = 0.0;  // download latency after link faults
  LinkOutcome link;      // download-link outcome (fault plans only)
  std::optional<FaultKind> fault;  // attached for exactly-once accounting
};

}  // namespace

FederatedSearch::FederatedSearch(const SearchConfig& cfg,
                                 const Dataset& train_data,
                                 const std::vector<std::vector<int>>& partition)
    : cfg_(cfg),
      rng_(cfg.seed),
      policy_(Cell::num_edges(cfg.supernet.num_nodes), cfg.alpha),
      theta_opt_(SGD::Options{cfg.theta.learning_rate, cfg.theta.momentum,
                              cfg.theta.weight_decay, cfg.theta.gradient_clip}),
      pool_(/*staleness_threshold=*/5),
      moving_(50),
      workers_(shared_thread_pool(pool_size(cfg.threads, partition.size()))) {
  if (cfg.telemetry.enabled) {
    obs::Telemetry::instance().configure(cfg.telemetry, cfg.seed);
    owns_telemetry_ = true;
  }
  if (cfg.telemetry.enabled &&
      (cfg.telemetry.health || !cfg.telemetry.health_report_path.empty())) {
    health_ = std::make_unique<obs::HealthMonitor>();
  }
  staleness_rng_ = rng_.fork();
  Rng net_rng = rng_.fork();
  supernet_ = std::make_unique<Supernet>(cfg.supernet, net_rng);
  FMS_CHECK_MSG(!partition.empty(), "need at least one participant");
  for (std::size_t k = 0; k < partition.size(); ++k) {
    participants_.push_back(std::make_unique<SearchParticipant>(
        static_cast<int>(k), Shard(&train_data, partition[k]), cfg.supernet,
        cfg.augment, cfg.schedule.batch_size, rng_.fork()));
    // Default environment mix: participants cycle through the six mobility
    // settings; Fig. 7 benches construct their own traces explicitly.
    traces_.emplace_back(
        static_cast<NetEnvironment>(k % kNumNetEnvironments), rng_.fork());
  }
  registry_ = ClientRegistry(static_cast<int>(partition.size()));
}

FederatedSearch::~FederatedSearch() {
  if (health_ && !cfg_.telemetry.health_report_path.empty()) {
    health_->write_report(cfg_.telemetry.health_report_path);
  }
  if (owns_telemetry_) obs::Telemetry::instance().finish();
}

SearchOptions FederatedSearch::warmup_options() {
  SearchOptions opts;
  opts.update_alpha = false;
  opts.update_theta = true;
  opts.stale_policy = StalePolicy::kHardSync;
  return opts;
}

std::vector<RoundRecord> FederatedSearch::run_warmup(int steps) {
  const SearchOptions opts = warmup_options();
  std::vector<RoundRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    records.push_back(run_round(round_counter_++, opts));
    journal_round(0, records.back());
    if (on_round) on_round(records.back());
  }
  return records;
}

std::vector<RoundRecord> FederatedSearch::run_search(
    int steps, const SearchOptions& opts) {
  const bool auto_ckpt =
      opts.checkpoint_every > 0 && !opts.checkpoint_path.empty();
  std::vector<RoundRecord> records;
  records.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    records.push_back(run_round(round_counter_++, opts));
    journal_round(1, records.back());
    if (on_round) on_round(records.back());
    if (auto_ckpt && round_counter_ % opts.checkpoint_every == 0) {
      FMS_SPAN("checkpoint");
      write_checkpoint_file(opts.checkpoint_path, checkpoint(),
                            disk_faults_.get(),
                            static_cast<std::uint64_t>(round_counter_));
      if (obs::telemetry_enabled()) {
        obs::Telemetry::instance().registry().counter("fms.checkpoints.written")
            .add(1);
      }
      // Rotate the journal at the instant the checkpoint commits: the
      // retained `.prev` checkpoint generation stays covered by the
      // `.prev` journal frames, so recovery can replay forward from
      // either generation. (A kill between the two renames is safe —
      // recovery filters frames to rounds past the restored checkpoint.)
      if (journal_) {
        journal_->rotate();
        if (obs::telemetry_enabled()) {
          obs::Telemetry::instance().registry().counter("fms.journal.rotations")
              .add(1);
        }
      }
    }
  }
  return records;
}

void FederatedSearch::enable_journal(const std::string& path,
                                     const FaultPlan& disk_plan) {
  journal_ = std::make_unique<RoundJournal>(path, disk_plan);
  disk_faults_ = std::make_unique<FaultInjector>(disk_plan, 1);
}

void FederatedSearch::journal_round(std::uint8_t phase,
                                    const RoundRecord& rec) {
  if (!journal_) return;
  // Purely observational: save_state() is const on every stream touched
  // here, so the trajectory is bit-identical with journaling on or off.
  JournalFrame f;
  f.phase = phase;
  f.round = rec.round;
  f.record = rec.canonical();
  f.rng_cursor = rng_.save_state();
  f.staleness_cursor = staleness_rng_.save_state();
  f.degrade_mode = static_cast<int>(degrade_.mode());
  f.degrade_transitions = degrade_.transitions();
  const JournalStats before = journal_->stats();
  journal_->append(f);
  if (obs::telemetry_enabled()) {
    const JournalStats& after = journal_->stats();
    for (const auto& [name, field] :
         {std::pair{"fms.journal.frames_written", &JournalStats::frames_written},
          std::pair{"fms.journal.eio_retries", &JournalStats::eio_retries},
          std::pair{"fms.journal.short_writes", &JournalStats::short_writes}}) {
      if (after.*field > before.*field) {
        obs::Telemetry::instance().registry().counter(name).add(1);
      }
    }
  }
}

// Every serial decision of a round (Alg. 1 lines 4-11), in draw order.
struct FederatedSearch::RoundPlan {
  int round = 0;
  bool soft_sync = false;
  ClientRegistry::RoundMembership membership;
  std::vector<Mask> masks;
  std::vector<ParticipantPlan> participants;
  double deadline = 0.0;  // quorum commit tick
};

// What one dispatched participant sends back (Alg. 1 lines 37-42).
struct FederatedSearch::ExecutedUpdate {
  UpdateMsg upd;
  std::size_t shipped = 0;  // values in the SubmodelMsg it trained on
  float reward = 0.0F;      // training accuracy before any injected lie
};

// An arrival that survived screening and the stale policy.
struct FederatedSearch::AppliedUpdate {
  int participant = 0;
  int origin_round = 0;
  std::vector<std::size_t> ids;
  std::vector<float> grads;
  float reward = 0.0F;
  AlphaPair dlogp;
};

RoundRecord FederatedSearch::run_round(int t, const SearchOptions& opts) {
  const bool telemetry = obs::telemetry_enabled();
  // The round tag of spans and of causal tracing (src/obs/trace_ctx):
  // every hook in the round is purely observational — no RNG draw, no
  // float op — so the search trajectory is bit-identical with tracing on
  // or off (pinned by test).
  obs::Telemetry::instance().set_round(t);
  FMS_SPAN("round");
  RoundRecord rec;
  rec.round = t;
  const FaultStats stats_before = fault_stats_;
  const FaultInjector injector(opts.fault_plan, num_participants());
  const RoundPlan plan = plan_round(t, opts, injector, rec);
  commit_round(plan, execute_round(plan, opts, injector), opts, injector, rec);
  if (telemetry) record_round_telemetry(rec, opts, stats_before);
  return rec;
}

// Plan (Alg. 1 lines 4-11): every serial decision of the round, in the
// order the main RNG stream has always been drawn.
FederatedSearch::RoundPlan FederatedSearch::plan_round(
    int t, const SearchOptions& opts, const FaultInjector& injector,
    RoundRecord& rec) {
  const int k = num_participants();
  const bool faults = injector.active();
  RoundPlan plan;
  plan.round = t;
  plan.soft_sync = opts.stale_policy != StalePolicy::kHardSync;
  plan.participants.resize(static_cast<std::size_t>(k));

  // --- churn membership + degradation mode for the round ---
  // The churn model is a pure function of (seed, client, round); the
  // registry persists each client's history across membership changes.
  // Both are observational with an empty plan: live == k, joined == left
  // == 0, and the round proceeds exactly as before the churn layer.
  const ChurnModel churn(opts.churn_plan, k);
  plan.membership = registry_.begin_round(churn, t);
  const ClientRegistry::RoundMembership& mem = plan.membership;
  rec.live = mem.live;
  rec.joined = mem.joined;
  rec.left = mem.left;
  // The ladder mode was decided by previous rounds' outcomes (causal, so
  // checkpoint/resume replays it exactly); this round runs under it.
  const DegradeMode mode =
      opts.degrade.max_mode > 0 ? degrade_.mode() : DegradeMode::kNormal;
  rec.degrade_mode = static_cast<int>(mode);

  // --- sample masks and snapshot state (Alg. 1 lines 4-9) ---
  {
    FMS_SPAN("sample");
    plan.masks.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) plan.masks.push_back(policy_.sample(rng_));
    if (plan.soft_sync) {
      RoundSnapshot snap;
      snap.theta = supernet_->flat_values();
      snap.alpha = policy_.alpha();
      snap.masks = plan.masks;
      pool_.save(t, std::move(snap));
    }
  }

  // --- adaptive transmission (Alg. 1 lines 10-11, Fig. 7) ---
  // Effective download latency per participant after link faults and the
  // retransmit-with-backoff defense.
  LatencyStats lat;  // raw modeled latencies; cohort selection reads them
  {
    FMS_SPAN("transmit");
    std::vector<std::size_t> model_bytes;
    std::vector<double> bandwidths;
    model_bytes.reserve(static_cast<std::size_t>(k));
    bandwidths.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      model_bytes.push_back(
          supernet_->submodel_bytes(plan.masks[static_cast<std::size_t>(i)]));
      // Traces advance for every participant — offline or not — so a faulty
      // run stays on the fault-free run's bandwidth trajectory.
      bandwidths.push_back(traces_[static_cast<std::size_t>(i)].next_bps());
    }
    const std::vector<int> assignment =
        assign_models(model_bytes, bandwidths, opts.assign, rng_);
    lat = transmission_latency(
        model_bytes, bandwidths, assignment,
        opts.assign == AssignStrategy::kAverageSize);
    rec.max_latency_s = lat.max_seconds;
    rec.mean_latency_s = lat.mean_seconds;
    for (int i = 0; i < k; ++i) {
      ParticipantPlan& p = plan.participants[static_cast<std::size_t>(i)];
      p.mask = assignment[static_cast<std::size_t>(i)];
      if (faults && injector.is_offline(i, t)) {
        p.slot = Slot::kOffline;
        p.fault = injector.is_crashed(i, t) ? FaultKind::kCrash
                                            : FaultKind::kDropout;
        continue;
      }
      double li = lat.per_participant[static_cast<std::size_t>(i)];
      if (faults) {
        p.link = injector.link_outcome(i, t, opts.max_retransmits,
                                       opts.retransmit_backoff_s);
        li = li / p.link.bandwidth_scale + p.link.extra_seconds;
      }
      // A dead link — every attempt failed, or the trace itself has zero
      // bandwidth — never delivers the download.
      if (!p.link.delivered || !std::isfinite(li)) {
        p.slot = Slot::kLinkDead;
        continue;
      }
      p.slot = Slot::kDispatched;
      p.latency = li;
      p.fault = injector.update_fault(i, t);
    }
  }

  // --- cohort selection (degradation mode >= shrink_cohort): dispatch
  // only to the fastest cohort_fraction of the live fleet, ranked by the
  // raw modeled download latency (the bandwidth the server just measured),
  // ties broken by id — deterministic, no RNG draw.
  std::vector<std::pair<double, int>> order;  // the live fleet
  for (int i = 0; i < k; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    if (mem.live_mask[ui] == 0) {
      plan.participants[ui].slot = Slot::kAbsent;
    } else {
      order.emplace_back(lat.per_participant[ui], i);
    }
  }
  int shed = 0;
  if (mode >= DegradeMode::kShrinkCohort && mem.live > 0) {
    std::sort(order.begin(), order.end());
    int keep = static_cast<int>(std::ceil(opts.degrade.cohort_fraction *
                                          static_cast<double>(mem.live)));
    keep = std::max(keep, std::min(opts.degrade.min_cohort, mem.live));
    keep = std::min(keep, mem.live);
    for (std::size_t o = static_cast<std::size_t>(keep); o < order.size();
         ++o, ++shed) {
      plan.participants[static_cast<std::size_t>(order[o].second)].slot =
          Slot::kShed;
    }
  }
  rec.cohort = static_cast<int>(order.size()) - shed;
  rec.shed = mem.live - rec.cohort;

  // --- quorum commit (defense): close the round at the ceil(q*K)-th
  // arrival or the timeout cap, whichever comes first. Updates expected
  // after the deadline are "late" and fold into the soft-sync/DC path.
  // The quorum count stays anchored to the full registry population K:
  // committing with less coverage than ceil(q*K) is a partial quorum even
  // when churn shrank the live set — that erosion is exactly the signal
  // the degradation controller keys on. Mode >= partial_quorum relieves
  // the requirement itself so rounds commit with what arrived.
  {
    FMS_SPAN("quorum");
    std::vector<double> cands;
    cands.reserve(static_cast<std::size_t>(k));
    for (const ParticipantPlan& p : plan.participants) {
      if (p.slot == Slot::kDispatched) cands.push_back(p.latency);
    }
    // Timeout cap: the adaptive windowed-quantile deadline replaces the
    // static round_timeout_s once warm; degradation mode >= relax_deadline
    // stretches whichever cap is in effect.
    double timeout = opts.round_timeout_s;
    if (opts.adaptive_timeout.enabled) {
      const double est = deadline_est_.deadline(opts.adaptive_timeout);
      if (std::isfinite(est)) timeout = est;
    }
    if (mode >= DegradeMode::kRelaxDeadline && timeout > 0.0) {
      timeout *= opts.degrade.relax_factor;
    }
    rec.deadline_s = timeout;
    double q = opts.quorum;
    if (mode >= DegradeMode::kPartialQuorum) q *= opts.degrade.quorum_relief;
    const QuorumOutcome qo = quorum_commit(cands, q, k, timeout);
    plan.deadline = qo.deadline;
    rec.partial_quorum = qo.partial;
    rec.commit_latency_s = qo.commit_latency_s;
    // Server-track commit event at the deadline tick.
    obs::TraceContext::instance().record(
        -1, obs::Stage::kQuorum, rec.commit_latency_s, 0.0,
        rec.commit_latency_s, rec.partial_quorum ? "partial" : "full");
  }
  return plan;
}

// Execute (Alg. 1 lines 37-42): each dispatched participant's own work —
// build its SubmodelMsg, flip the downlink bits, train, run the uplink
// codec and the injected update transform — on the worker pool,
// participant i always on worker i % size(). const, the server supernet is
// reached only through a const reference, and the injector is stateless:
// a participant writes only its own replica, shard, RNG and done[i], so
// every result is the same at any thread count.
std::vector<FederatedSearch::ExecutedUpdate> FederatedSearch::execute_round(
    const RoundPlan& plan, const SearchOptions& opts,
    const FaultInjector& injector) const {
  const int t = plan.round;
  const Supernet& server = *supernet_;
  std::vector<ExecutedUpdate> done(plan.participants.size());
  // Span events a participant emits (none with telemetry off), replayed
  // in index order after the join so the trace reads as a serial round's.
  std::vector<std::vector<obs::TraceEvent>> events(done.size());
  workers_.parallel_for(done.size(), [&](std::size_t ui) {
    const ParticipantPlan& p = plan.participants[ui];
    if (p.slot != Slot::kDispatched) return;
    const obs::EventCapture capture(events[ui]);
    const int i = static_cast<int>(ui);
    // Explicit engaged check, not optional==value: GCC -O3 false-fires
    // -Wmaybe-uninitialized on that operator== (a break under FMS_WERROR).
    const bool corrupt =
        p.fault.has_value() && *p.fault == FaultKind::kCorruptPayload;
    SubmodelMsg msg;
    msg.round = t;
    msg.mask = plan.masks[static_cast<std::size_t>(p.mask)];
    {
      FMS_SPAN("prune");
      msg.values = server.gather_values(server.masked_param_ids(msg.mask));
      if (opts.codec != Codec::kFloat32) {
        msg.values = codec_round_trip(msg.values, opts.codec);
      }
    }
    // One corruption event flips bits on the wire in both directions:
    // the SubmodelMsg the client trains on and the UpdateMsg it returns.
    if (corrupt) injector.corrupt(msg.values, i, t);
    done[ui].shipped = msg.values.size();
    UpdateMsg& upd = done[ui].upd;
    upd = participants_[ui]->train_step(msg);
    done[ui].reward = upd.reward;
    if (opts.codec != Codec::kFloat32) {
      upd.grads = codec_round_trip(upd.grads, opts.codec);
    }
    if (!p.fault.has_value()) return;
    if (*p.fault == FaultKind::kDivergent) {
      injector.poison(upd, i, t);
    } else if (corrupt) {
      injector.corrupt(upd.grads, i, t);
    } else {
      injector.attack(upd, *p.fault, i, t);
    }
  });
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  for (std::vector<obs::TraceEvent>& buffer : events) {
    for (obs::TraceEvent& event : buffer) telemetry.emit(std::move(event));
  }
  return done;
}

// Commit (Alg. 1 lines 12-31): everything that writes server state,
// serially and in participant-index order.
void FederatedSearch::commit_round(const RoundPlan& plan,
                                   std::vector<ExecutedUpdate> done,
                                   const SearchOptions& opts,
                                   const FaultInjector& injector,
                                   RoundRecord& rec) {
  commit_dispatches(plan, std::move(done), opts, injector, rec);
  total_bytes_down_ += rec.bytes_down;
  total_bytes_up_ += rec.bytes_up;
  supernet_->zero_grad();
  aggregate_round(collect_arrivals(plan.round, opts, injector, rec), opts,
                  rec);
  if (plan.soft_sync) pool_.evict(plan.round);

  // --- degradation controller (hysteresis over committed outcomes) ---
  obs::TraceContext& trace = obs::TraceContext::instance();
  if (opts.degrade.max_mode > 0) {
    // Bad round: the quorum was not met on time, or the timeout cap
    // itself closed the round while stragglers were still inbound
    // (deadline blow-through).
    const bool cap_bound = rec.deadline_s > 0.0 &&
                           std::isfinite(plan.deadline) &&
                           plan.deadline >= rec.deadline_s - 1e-12 &&
                           rec.late > 0;
    const DegradationController::Transition dtr =
        degrade_.observe(rec.partial_quorum || cap_bound, opts.degrade);
    if (dtr.changed) {
      rec.degrade_transition = std::string(degrade_mode_name(dtr.from)) +
                               "->" + degrade_mode_name(dtr.to);
      if (static_cast<int>(dtr.to) > static_cast<int>(dtr.from)) {
        // Stepping deeper into degradation is an incident: snapshot the
        // per-participant lifecycle ring for the post-mortem.
        trace.dump_flight(std::string("degrade_enter:") +
                          degrade_mode_name(dtr.to));
      }
    }
  }

  // --- search-health monitor + flight-recorder triggers ---
  if (health_) {
    obs::HealthSignal sig;
    sig.participants = num_participants();
    sig.live = rec.live;
    sig.joined = rec.joined;
    sig.left = rec.left;
    if (obs::profiling_enabled()) {
      sig.live_alloc_bytes = obs::alloc_stats().live_bytes;
    }
    rec.health = static_cast<int>(health_->observe(rec, sig));
    for (const obs::DetectorStatus& d : health_->detectors()) {
      if (d.state >= obs::HealthState::kWarn) {
        if (!rec.health_trips.empty()) rec.health_trips += ",";
        rec.health_trips += d.name;
      }
    }
    if (health_->crit_transition()) {
      trace.dump_flight("health_crit:" + health_->last_crit_detectors()[0]);
    }
  }
  if (rec.partial_quorum) trace.dump_flight("quorum_failure");
  // Advance the sim clock past this round so the next round's events
  // render after it (the committed deadline bounds everything recorded at
  // a latency offset; stragglers surface as kArrive next rounds).
  trace.end_round(std::max(rec.commit_latency_s, rec.max_latency_s));
}

void FederatedSearch::drop_update(RoundRecord& rec, int participant,
                                  int origin_round, bool faulted,
                                  double offset_s, double value,
                                  std::string_view reason) {
  ++rec.dropped;
  if (faulted) ++fault_stats_.dropped;
  obs::TraceContext::instance().record(participant, obs::Stage::kDrop,
                                       offset_s, 0.0, value, reason,
                                       origin_round);
}

// Dispatch, delayed arrival (Alg. 1 lines 12-15): books each participant's
// planned fate and executed update — fault ledger, bytes, lifecycle
// events, uplink outcome, deadline — and queues the survivors by arrival
// round.
void FederatedSearch::commit_dispatches(const RoundPlan& plan,
                                        std::vector<ExecutedUpdate> done,
                                        const SearchOptions& opts,
                                        const FaultInjector& injector,
                                        RoundRecord& rec) {
  const int t = plan.round;
  obs::TraceContext& trace = obs::TraceContext::instance();
  // Serialized mask/header overhead of a message whose values travel
  // through the configured codec.
  auto payload_bytes = [&](const Mask& m, std::size_t num_values) {
    return 4 + (8 + m.normal.size()) + (8 + m.reduce.size()) +
           codec_encoded_bytes(num_values, opts.codec);
  };
  obs::Histogram* down_hist = nullptr;
  obs::Histogram* up_hist = nullptr;
  if (obs::telemetry_enabled()) {
    auto& reg = obs::Telemetry::instance().registry();
    // Per-participant payload distribution, in bytes (linear-ish coverage
    // from 1KB to 100MB via the default log-spaced buckets scaled by 1e9).
    std::vector<double> byte_bounds;
    for (double b : obs::default_time_buckets()) byte_bounds.push_back(b * 1e9);
    down_hist = &reg.histogram("fms.participant.bytes_down", byte_bounds);
    up_hist = &reg.histogram("fms.participant.bytes_up", byte_bounds);
  }
  // A faulted download or upload: one injection, its retries, a kFault
  // event, and whether the retries absorbed it (recovered) or not.
  auto book_link = [&](int i, std::uint64_t& injected, const LinkOutcome& l,
                       double offset_s, bool lost, std::string_view tag) {
    ++injected;
    fault_stats_.retransmits += static_cast<std::uint64_t>(l.retransmits);
    rec.retransmits += l.retransmits;
    trace.record(i, obs::Stage::kFault, offset_s, l.extra_seconds,
                 static_cast<double>(l.retransmits), tag);
    ++(lost ? fault_stats_.dropped : fault_stats_.recovered);
  };
  for (std::size_t ui = 0; ui < done.size(); ++ui) {
    const int i = static_cast<int>(ui);
    const ParticipantPlan& p = plan.participants[ui];
    // Staleness draws happen for every participant — even offline or
    // churned-away ones — so faulty/churny and clean runs consume the
    // same staleness stream.
    const int tau_draw =
        plan.soft_sync ? opts.staleness.sample_traced(staleness_rng_, i) : 0;
    if (p.slot == Slot::kAbsent || p.slot == Slot::kShed) {
      // Churned away, or shed by cohort shrink (degradation mode >= 2):
      // not a fault. The server never dispatches, charges no bytes, and
      // books nothing in the fault ledger.
      trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0,
                   p.slot == Slot::kAbsent ? "churn_absent" : "cohort_shed");
      continue;
    }
    if (p.slot == Slot::kOffline) {
      ++rec.offline;
      const bool crashed =
          p.fault.has_value() && *p.fault == FaultKind::kCrash;
      ++(crashed ? fault_stats_.injected_crash
                 : fault_stats_.injected_dropout);
      trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0,
                   crashed ? "crash" : "dropout");
      ++fault_stats_.dropped;  // no reply ever arrives
      continue;
    }
    const bool link_dead = p.slot == Slot::kLinkDead;
    if (p.link.faulted()) {
      book_link(i, fault_stats_.injected_link, p.link, 0.0, link_dead,
                link_dead ? "link:dead" : "link:recovered");
    }
    if (link_dead) {
      // Dead link: the download never lands, so no payload is built and no
      // bytes are charged — the server simply skips this participant.
      ++rec.dropped;
      trace.record(i, obs::Stage::kDrop, 0.0, 0.0, 0.0, "link_dead");
      continue;
    }

    UpdateMsg& upd = done[ui].upd;
    const bool faulted = p.fault.has_value();
    const std::size_t down =
        payload_bytes(plan.masks[static_cast<std::size_t>(p.mask)],
                      done[ui].shipped);
    rec.bytes_down += down;
    submodel_bytes_sum_ += down;
    ++submodel_count_;
    if (down_hist != nullptr) down_hist->observe(static_cast<double>(down));
    trace.record(i, obs::Stage::kDispatch, 0.0, 0.0, static_cast<double>(down));
    registry_.note_dispatch(i, p.latency);
    // Local training lands at the end of the modeled download window;
    // value carries the reported training accuracy.
    trace.record(i, obs::Stage::kLocalTrain, p.latency, 0.0,
                 static_cast<double>(done[ui].reward));
    if (p.fault.has_value()) {
      switch (*p.fault) {
        case FaultKind::kCorruptPayload: ++fault_stats_.injected_corrupt; break;
        case FaultKind::kDivergent: ++fault_stats_.injected_divergent; break;
        case FaultKind::kSignFlip: ++fault_stats_.injected_sign_flip; break;
        case FaultKind::kGradScale: ++fault_stats_.injected_grad_scale; break;
        case FaultKind::kCollude: ++fault_stats_.injected_collude; break;
        default: ++fault_stats_.injected_reward; break;
      }
      trace.record(i, obs::Stage::kFault, p.latency, 0.0, 0.0,
                   fault_kind_name(*p.fault));
    }
    const std::size_t up = payload_bytes(upd.mask, upd.grads.size()) + 8;
    rec.bytes_up += up;
    if (up_hist != nullptr) up_hist->observe(static_cast<double>(up));

    // Upload-link faults with bounded retransmit + seeded backoff jitter:
    // a dead uplink drops the update after the client's bytes were spent;
    // recovered retries push its arrival later (possibly past the
    // deadline, where the soft-sync path absorbs it as stale).
    double up_extra = 0.0;
    if (injector.active()) {
      const LinkOutcome up_link = injector.upload_outcome(
          i, t, opts.max_retransmits, opts.retransmit_backoff_s);
      if (up_link.faulted()) {
        book_link(i, fault_stats_.injected_uplink, up_link, p.latency,
                  !up_link.delivered,
                  up_link.delivered ? "uplink:recovered" : "uplink:dead");
        if (!up_link.delivered) {  // the reply never reaches the server
          drop_update(rec, i, t, faulted, p.latency, 0.0, "uplink_dead");
          continue;
        }
        up_extra = up_link.extra_seconds;
      }
    }
    const double arrive_s = p.latency + up_extra;
    // Feed the adaptive-deadline window with committed on-time round
    // times (always, so checkpoints carry a warm window whether or not
    // adaptive deadlines are enabled yet). Pure bookkeeping: no RNG, no
    // effect on the trajectory unless adaptive_timeout.enabled.
    if (arrive_s <= plan.deadline + 1e-12) {
      deadline_est_.add_sample(arrive_s, opts.adaptive_timeout.window);
    }

    int tau = tau_draw;
    if (plan.soft_sync && plan.membership.rejoined[ui] != 0 &&
        tau != kExceedsThreshold) {
      // A rejoining client trained against the state it last saw: its
      // first update back flows through the staleness/DC path rather
      // than being applied as fresh.
      tau = std::max(tau, 1);
    }
    if (arrive_s > plan.deadline + 1e-12) {
      // Missed the quorum commit: fold into the soft-sync path one round
      // late at minimum; hard sync has no stale path, so the update drops.
      ++rec.late;
      if (!plan.soft_sync) {
        drop_update(rec, i, t, faulted, arrive_s, 0.0, "late");
        continue;
      }
      if (tau != kExceedsThreshold) tau = std::max(tau, 1);
    }
    if (tau == kExceedsThreshold || tau > pool_.threshold()) {
      // Beyond the staleness threshold: never applied.
      drop_update(rec, i, t, faulted, p.latency, static_cast<double>(tau),
                  "stale_overflow");
      continue;
    }
    arrivals_[t + tau].push_back(std::move(upd));
  }
}

// Delay compensation (Alg. 1 lines 16-24): screens this round's arrivals,
// applies the stale policy (DC by Eq. 13 + Eq. 15 under kCompensate) and
// returns the updates that survive, in arrival order.
std::vector<FederatedSearch::AppliedUpdate> FederatedSearch::collect_arrivals(
    int t, const SearchOptions& opts, const FaultInjector& injector,
    RoundRecord& rec) {
  std::vector<AppliedUpdate> applied;
  double tau_sum = 0.0;
  {
    FMS_SPAN("compensate");
    const bool telemetry = obs::telemetry_enabled();
    obs::Histogram* tau_hist =
        telemetry ? &obs::Telemetry::instance().registry().histogram(
                        "fms.staleness.tau",
                        obs::linear_buckets(pool_.threshold()))
                  : nullptr;
    auto due = arrivals_.find(t);
    if (due != arrivals_.end()) {
      // Adaptive screening: tighten the norm cutoff to median + k*MAD of
      // this round's arrivals (robust location/scale, so up to half the
      // fleet lying cannot widen the bound) when enough updates arrived;
      // otherwise the fixed cap applies. The bound never exceeds the cap.
      float screen_bound = opts.screen_max_grad_norm;
      if (opts.screen_updates && opts.adaptive_screen) {
        std::vector<double> norms;
        norms.reserve(due->second.size());
        for (const UpdateMsg& u : due->second) {
          double sq = 0.0;
          for (float g : u.grads) sq += static_cast<double>(g) * g;
          const double norm = std::sqrt(sq);
          if (std::isfinite(norm)) norms.push_back(norm);
        }
        screen_bound = static_cast<float>(agg::adaptive_norm_bound(
            norms, opts.adaptive_screen_k, opts.adaptive_screen_min,
            static_cast<double>(opts.screen_max_grad_norm)));
      }
      if (opts.screen_updates) rec.screen_bound = screen_bound;
      obs::TraceContext& trace = obs::TraceContext::instance();
      for (UpdateMsg& upd : due->second) {
        const int tau = t - upd.round;
        if (tau_hist != nullptr) tau_hist->observe(static_cast<double>(tau));
        trace.record(upd.participant, obs::Stage::kArrive, 0.0, 0.0,
                     static_cast<double>(tau), tau > 0 ? "stale" : "fresh",
                     upd.round);
        // The injector is stateless, so the fault attached to this update
        // (possibly from an earlier round) is re-derived, not stored.
        const bool faulted =
            injector.update_fault(upd.participant, upd.round).has_value();
        if (opts.screen_updates) {
          // Defense: reject poisoned/corrupted updates before they can
          // reach theta, alpha, or the REINFORCE baseline.
          const char* violation = screen_update(upd, screen_bound);
          if (violation != nullptr) {
            ++rec.rejected;
            if (faulted) ++fault_stats_.rejected;
            if (telemetry) {
              obs::Telemetry::instance().registry()
                  .counter(std::string("fms.updates.rejected.") + violation)
                  .add(1);
            }
            continue;
          }
        }
        AppliedUpdate a;
        a.participant = upd.participant;
        a.origin_round = upd.round;
        a.reward = upd.reward;
        a.ids = supernet_->masked_param_ids(upd.mask);
        if (tau == 0) {
          a.grads = std::move(upd.grads);
          a.dlogp = policy_.log_prob_grad(upd.mask);
        } else {
          // kDrop discards every stale update; the other policies need the
          // snapshot it was trained against, which may have been evicted.
          const bool policy_drop = opts.stale_policy == StalePolicy::kDrop;
          const RoundSnapshot* snap =
              policy_drop ? nullptr : pool_.find(upd.round);
          if (snap == nullptr) {
            drop_update(rec, upd.participant, upd.round, faulted, 0.0,
                        static_cast<double>(tau),
                        policy_drop ? "stale_policy" : "snapshot_evicted");
            continue;
          }
          if (opts.stale_policy == StalePolicy::kUseStale) {
            a.grads = std::move(upd.grads);
            a.dlogp = ArchPolicy::log_prob_grad_at(snap->alpha, upd.mask);
          } else {  // kCompensate: Eq. 13 + Eq. 15
            std::vector<float> fresh_w = supernet_->gather_values(a.ids);
            std::vector<float> stale_w =
                supernet_->gather_from_flat(snap->theta, a.ids);
            a.grads = compensate_weight_gradient(upd.grads, fresh_w, stale_w,
                                                 opts.dc_lambda);
            AlphaPair stale_dlogp =
                ArchPolicy::log_prob_grad_at(snap->alpha, upd.mask);
            a.dlogp = compensate_alpha_gradient(stale_dlogp, policy_.alpha(),
                                                snap->alpha, opts.dc_lambda);
            ++rec.compensated;
          }
          ++rec.stale_arrived;
        }
        tau_sum += tau;
        rec.max_tau = std::max(rec.max_tau, tau);
        applied.push_back(std::move(a));
        registry_.note_applied(upd.participant, tau);
        // A faulted payload that survived screening and got applied was
        // absorbed by training — the third and final outcome.
        if (faulted) ++fault_stats_.recovered;
      }
      arrivals_.erase(due);
    }
  }
  rec.arrived = static_cast<int>(applied.size());
  rec.mean_tau = rec.arrived > 0 ? tau_sum / rec.arrived : 0.0;
  return applied;
}

// REINFORCE on alpha (Eq. 8-10) and the theta estimator (Eq. 13 or a
// robust one) over the round's applied updates (Alg. 1 lines 25-31).
void FederatedSearch::aggregate_round(
    const std::vector<AppliedUpdate>& applied, const SearchOptions& opts,
    RoundRecord& rec) {
  const int m = rec.arrived;
  {
    FMS_SPAN("aggregate");
    if (m > 0) {
      std::vector<double> rewards;
      rewards.reserve(applied.size());
      double reward_sum = 0.0;
      for (const AppliedUpdate& a : applied) {
        rewards.push_back(a.reward);
        reward_sum += rewards.back();
      }
      rec.mean_reward = reward_sum / m;
      // Robust reward channel (defense): winsorize the round's rewards into
      // the Tukey band before they can reach the moving average, the
      // baseline, or their own advantage — a lying client's influence is
      // then bounded by the band width, not by trust. The defended mean is
      // what the curves and the EMA see.
      if (opts.winsorize_rewards_k > 0.0) {
        const agg::WinsorBounds wb =
            agg::winsor_bounds(rewards, opts.winsorize_rewards_k);
        double wsum = 0.0;
        for (double& reward : rewards) {
          if (reward < wb.lo) {
            reward = wb.lo;
            ++rec.winsorized;
          } else if (reward > wb.hi) {
            reward = wb.hi;
            ++rec.winsorized;
          }
          wsum += reward;
        }
        rec.mean_reward = wsum / m;
      }
      rec.moving_avg = moving_.update(rec.mean_reward);

      // REINFORCE with moving-average baseline (Eq. 8-10). The median
      // baseline mode feeds the EMA a statistic a lying minority cannot
      // move at all (mean mode reproduces Eq. 9 exactly).
      const double round_stat =
          opts.baseline_mode == BaselineMode::kMedianReward
              ? ArchPolicy::round_statistic(rewards,
                                            BaselineMode::kMedianReward)
              : rec.mean_reward;
      const double b = policy_.update_baseline(round_stat);
      AlphaPair grad_j = AlphaPair::zeros(policy_.num_edges());
      for (std::size_t u = 0; u < applied.size(); ++u) {
        grad_j.add_scaled(applied[u].dlogp, static_cast<float>(rewards[u] - b) /
                                                static_cast<float>(m));
      }
      if (opts.update_alpha) policy_.apply_gradient(grad_j);

      // Estimator verdict per update, for the causal traces.
      std::vector<char> kept(applied.size(), 1);
      if (opts.aggregator.kind == agg::AggregatorKind::kMean) {
        // Eq. 13 exactly, preserving the pre-robustness float-op order:
        // scatter each accepted gradient in arrival order, then scale by
        // 1/m — bit-identical to the legacy in-loop scatter.
        // The masked scatter is this path's mean estimator, so it is the
        // agg.mean op: one add per scattered element plus one scale per
        // theta coordinate.
        {
          FMS_OP("agg.mean", [&] {
            std::uint64_t scattered = 0;
            for (const AppliedUpdate& a : applied) scattered += a.grads.size();
            std::uint64_t dim = 0;
            for (const Param* p : supernet_->params()) {
              dim += p->grad.vec().size();
            }
            obs::OpCost cost;
            cost.flops = scattered + dim;
            cost.bytes_read = 4 * scattered;
            cost.bytes_written = 4 * dim;
            cost.elements = dim;
            return cost;
          }());
          for (const AppliedUpdate& a : applied) {
            supernet_->scatter_add_grads(a.ids, a.grads);
          }
        }
        if (opts.update_theta) {
          const float inv_m = 1.0F / static_cast<float>(m);
          for (Param* p : supernet_->params()) {
            for (float& g : p->grad.vec()) g *= inv_m;
          }
          theta_opt_.step(supernet_->params());
        }
      } else {
        // Robust estimator: densify each masked update into the whole-net
        // coordinate space (unsampled ops contribute zero gradient, the
        // same semantics the legacy scatter gives the mean) and aggregate.
        // The presence masks let the per-coordinate estimators tell a
        // real zero gradient from an op the update never sampled — see
        // the participation-aware notes in src/agg/aggregator.h.
        std::vector<std::vector<float>> dense;
        std::vector<std::vector<std::uint8_t>> presence;
        dense.reserve(applied.size());
        presence.reserve(applied.size());
        for (const AppliedUpdate& a : applied) {
          dense.push_back(supernet_->dense_from_masked(a.ids, a.grads));
          presence.push_back(supernet_->presence_from_masked(a.ids));
        }
        const agg::AggregationOutcome out =
            agg::aggregate(opts.aggregator, dense, presence);
        rec.agg_clipped = out.clipped_updates;
        rec.agg_clipped_mass = out.clipped_mass;
        rec.agg_trimmed = out.trimmed_values;
        rec.agg_rejected = out.rejected_updates;
        // The krum family reports its survivor set; everything else
        // folds every update into the estimate.
        if (!out.selected.empty()) {
          std::fill(kept.begin(), kept.end(), 0);
          for (const int s : out.selected) {
            if (s >= 0 && static_cast<std::size_t>(s) < kept.size()) {
              kept[static_cast<std::size_t>(s)] = 1;
            }
          }
        }
        if (opts.update_theta) {
          supernet_->add_flat_grads(out.grad);
          theta_opt_.step(supernet_->params());
        }
      }
      obs::TraceContext& trace = obs::TraceContext::instance();
      for (std::size_t u = 0; u < applied.size(); ++u) {
        trace.record(applied[u].participant, obs::Stage::kAggregate, 0.0, 0.0,
                     0.0, kept[u] != 0 ? "applied" : "rejected:estimator",
                     applied[u].origin_round);
      }
    } else {
      rec.moving_avg = moving_.value();
    }
  }
  robust_stats_.clipped_updates += static_cast<std::uint64_t>(rec.agg_clipped);
  robust_stats_.clipped_mass += rec.agg_clipped_mass;
  robust_stats_.trimmed_values += static_cast<std::uint64_t>(rec.agg_trimmed);
  robust_stats_.rejected_updates +=
      static_cast<std::uint64_t>(rec.agg_rejected);
  robust_stats_.winsorized_rewards +=
      static_cast<std::uint64_t>(rec.winsorized);
  rec.alpha_entropy = policy_.mean_entropy();
  rec.baseline = policy_.baseline();
}

// Feeds the round's outcome into the metrics registry and emits the
// structured "round" trace event — everything the paper's systems curves
// (Figs. 7-8, Table V) are plotted from.
void FederatedSearch::record_round_telemetry(const RoundRecord& rec,
                                             const SearchOptions& opts,
                                             const FaultStats& before) {
  obs::Telemetry& telemetry = obs::Telemetry::instance();
  obs::MetricsRegistry& reg = telemetry.registry();

  reg.counter("fms.updates.arrived").add(static_cast<std::uint64_t>(rec.arrived));
  reg.counter("fms.updates.dropped").add(static_cast<std::uint64_t>(rec.dropped));
  reg.counter("fms.updates.stale").add(static_cast<std::uint64_t>(rec.stale_arrived));
  reg.counter("fms.updates.compensated")
      .add(static_cast<std::uint64_t>(rec.compensated));
  reg.counter("fms.bytes.down").add(rec.bytes_down);
  reg.counter("fms.bytes.up").add(rec.bytes_up);
  reg.counter("fms.rounds").add(1);

  // Fault-tolerance counters: this round's deltas of the cumulative ledger.
  static constexpr std::pair<const char*, std::uint64_t FaultStats::*>
      kLedger[] = {
          {"fms.fault.injected.crash", &FaultStats::injected_crash},
          {"fms.fault.injected.dropout", &FaultStats::injected_dropout},
          {"fms.fault.injected.link", &FaultStats::injected_link},
          {"fms.fault.injected.corrupt", &FaultStats::injected_corrupt},
          {"fms.fault.injected.divergent", &FaultStats::injected_divergent},
          {"fms.fault.injected.sign_flip", &FaultStats::injected_sign_flip},
          {"fms.fault.injected.grad_scale", &FaultStats::injected_grad_scale},
          {"fms.fault.injected.collude", &FaultStats::injected_collude},
          {"fms.fault.injected.reward_attack", &FaultStats::injected_reward},
          {"fms.fault.rejected", &FaultStats::rejected},
          {"fms.fault.dropped", &FaultStats::dropped},
          {"fms.fault.recovered", &FaultStats::recovered},
          {"fms.fault.injected.uplink", &FaultStats::injected_uplink},
      };
  for (const auto& [name, field] : kLedger) {
    const std::uint64_t now = fault_stats_.*field;
    if (now > before.*field) reg.counter(name).add(now - before.*field);
  }
  // Per-round event counts, registered only once they first occur.
  const std::pair<const char*, long> events[] = {
      {"fms.updates.rejected", rec.rejected},
      {"fms.updates.late", rec.late},
      {"fms.participants.offline", rec.offline},
      {"fms.retransmits", rec.retransmits},
      {"fms.rounds.partial_quorum", rec.partial_quorum ? 1 : 0},
      {"fms.churn.joined", rec.joined},
      {"fms.churn.left", rec.left},
      {"fms.churn.shed", rec.shed},
      {"fms.degrade.transitions", rec.degrade_transition.empty() ? 0 : 1},
      // Robust aggregation: how much influence the estimator removed.
      {"fms.agg.clipped", rec.agg_clipped},
      {"fms.agg.trimmed", rec.agg_trimmed},
      {"fms.agg.rejected", rec.agg_rejected},
      {"fms.rewards.winsorized", rec.winsorized},
  };
  for (const auto& [name, n] : events) {
    if (n > 0) reg.counter(name).add(static_cast<std::uint64_t>(n));
  }
  reg.histogram("fms.round.commit_latency_s").observe(rec.commit_latency_s);
  reg.gauge("fms.churn.live").set(static_cast<double>(rec.live));
  reg.gauge("fms.degrade.mode").set(static_cast<double>(rec.degrade_mode));
  reg.gauge("fms.policy.baseline").set(rec.baseline);
  reg.gauge("fms.alpha.entropy.mean").set(rec.alpha_entropy);
  reg.gauge("fms.round.moving_avg").set(rec.moving_avg);

  reg.histogram("fms.round.max_latency_s").observe(rec.max_latency_s);
  reg.histogram("fms.round.mean_latency_s").observe(rec.mean_latency_s);

  // Per-edge alpha entropy gauges (the paper's policy-sharpening signal).
  const std::vector<double> entropies = policy_.edge_entropies();
  const std::size_t half = entropies.size() / 2;
  obs::Histogram& ent_hist =
      reg.histogram("fms.alpha.edge_entropy", obs::linear_buckets(3));
  for (std::size_t e = 0; e < entropies.size(); ++e) {
    const bool normal = e < half;
    const std::size_t edge = normal ? e : e - half;
    reg.gauge(std::string("fms.alpha.entropy.") +
              (normal ? "normal." : "reduce.") + std::to_string(edge))
        .set(entropies[e]);
    ent_hist.observe(entropies[e]);
  }

  obs::TraceEvent event;
  event.type = "round";
  event.name = "round";
  event.round = rec.round;
  event.fields = {
      {"mean_reward", rec.mean_reward},
      {"moving_avg", rec.moving_avg},
      {"arrived", static_cast<double>(rec.arrived)},
      {"dropped", static_cast<double>(rec.dropped)},
      {"stale_arrived", static_cast<double>(rec.stale_arrived)},
      {"compensated", static_cast<double>(rec.compensated)},
      {"mean_tau", rec.mean_tau},
      {"max_tau", static_cast<double>(rec.max_tau)},
      {"bytes_down", static_cast<double>(rec.bytes_down)},
      {"bytes_up", static_cast<double>(rec.bytes_up)},
      {"max_latency_s", rec.max_latency_s},
      {"mean_latency_s", rec.mean_latency_s},
      {"alpha_entropy", rec.alpha_entropy},
      {"baseline", rec.baseline},
      {"dc_lambda", static_cast<double>(opts.dc_lambda)},
      {"offline", static_cast<double>(rec.offline)},
      {"rejected", static_cast<double>(rec.rejected)},
      {"late", static_cast<double>(rec.late)},
      {"retransmits", static_cast<double>(rec.retransmits)},
      {"partial_quorum", rec.partial_quorum ? 1.0 : 0.0},
      {"commit_latency_s", rec.commit_latency_s},
      {"agg_clipped", static_cast<double>(rec.agg_clipped)},
      {"agg_clipped_mass", rec.agg_clipped_mass},
      {"agg_trimmed", static_cast<double>(rec.agg_trimmed)},
      {"agg_rejected", static_cast<double>(rec.agg_rejected)},
      {"winsorized", static_cast<double>(rec.winsorized)},
      {"screen_bound", rec.screen_bound},
      {"health", static_cast<double>(rec.health)},
      {"live", static_cast<double>(rec.live)},
      {"joined", static_cast<double>(rec.joined)},
      {"left", static_cast<double>(rec.left)},
      {"cohort", static_cast<double>(rec.cohort)},
      {"shed", static_cast<double>(rec.shed)},
      {"deadline_s", rec.deadline_s},
      {"degrade_mode", static_cast<double>(rec.degrade_mode)},
  };
  telemetry.emit(std::move(event));

  // With --profile on, flush the op tree into the sinks each round: one
  // "profile" trace event per zone, costs included, plus the fms.alloc.*
  // gauges (cumulative since the last reset_profiler()).
  if (obs::profiling_enabled()) {
    obs::emit_profile_telemetry(obs::collect_profile());
  }
}

SearchCheckpoint FederatedSearch::checkpoint() {
  SearchCheckpoint ckpt =
      make_checkpoint(*supernet_, policy_, cfg_.supernet.num_nodes,
                      round_counter_);
  ckpt.baseline_initialized = policy_.baseline_initialized();
  ckpt.runtime_state = serialize_runtime_state();
  return ckpt;
}

void FederatedSearch::restore(const SearchCheckpoint& ckpt) {
  FMS_CHECK_MSG(ckpt.num_nodes == cfg_.supernet.num_nodes,
                "checkpoint node count " << ckpt.num_nodes
                                         << " != configured "
                                         << cfg_.supernet.num_nodes);
  restore_checkpoint(ckpt, *supernet_, policy_);
  policy_.restore_baseline(ckpt.baseline, ckpt.baseline_initialized);
  round_counter_ = ckpt.round;
  if (ckpt.has_runtime_state()) restore_runtime_state(ckpt.runtime_state);
}

FederatedSearch::RecoveryReport FederatedSearch::recover(
    const RecoverConfig& rc) {
  Stopwatch timer;
  RecoveryReport report;
  const bool telemetry = obs::telemetry_enabled();

  // 1. Newest valid checkpoint, falling back to the retained `.prev`
  // generation when the primary fails CRC or parse. No checkpoint at all
  // means the crash happened before the first auto-checkpoint: recovery
  // replays from round 0 (the constructor state is the round-0 state).
  std::error_code ec;
  if (std::filesystem::exists(rc.checkpoint_path, ec) ||
      std::filesystem::exists(rc.checkpoint_path + ".prev", ec)) {
    const CheckpointLoad load =
        read_checkpoint_file_with_fallback(rc.checkpoint_path);
    restore(load.ckpt);
    report.checkpoint_loaded = true;
    report.used_prev_checkpoint = load.used_prev;
    if (load.used_prev) {
      if (telemetry) {
        obs::Telemetry::instance().registry()
            .counter("fms.checkpoints.prev_fallback").add(1);
      }
      obs::TraceContext::instance().dump_flight("checkpoint_prev_fallback");
    }
  }
  report.start_round = round_counter_;

  // 2. Journal frames from both generations: `.prev` covers the previous
  // checkpoint generation, the live file covers the current one. Frames
  // at rounds the checkpoint already contains are stale — drop them.
  const RoundJournal::LoadResult prev =
      RoundJournal::load(rc.journal_path + ".prev");
  const RoundJournal::LoadResult live = RoundJournal::load(rc.journal_path);
  FMS_CHECK_MSG(live.header_valid,
                "journal header is corrupt: " << rc.journal_path);
  std::map<int, JournalFrame> frames;
  for (const auto* lr : {&prev, &live}) {
    for (const JournalFrame& f : lr->frames) {
      if (f.round >= round_counter_) frames[f.round] = f;
    }
  }
  report.frames_loaded = frames.size();

  // 3. Torn-tail rule: a frame that is short or fails CRC — and anything
  // after it — never happened. Truncate it off so the resumed journal
  // appends after the last good frame.
  if (live.torn_bytes > 0) {
    RoundJournal::truncate_to(rc.journal_path, live.valid_bytes);
    report.torn_bytes = live.torn_bytes;
    if (telemetry) {
      auto& reg = obs::Telemetry::instance().registry();
      reg.counter("fms.journal.frames_truncated").add(1);
      reg.counter("fms.journal.torn_bytes")
          .add(static_cast<std::uint64_t>(live.torn_bytes));
    }
    obs::TraceContext::instance().dump_flight("journal_torn_tail");
  }

  // 4. Deterministic replay: re-execute every round past the checkpoint
  // up to the newest journaled round, verifying each re-executed round
  // against its frame when one survived. Replay is gap-tolerant — a
  // round whose frame was lost to a short write is re-executed all the
  // same (determinism comes from the restored state, not the frames); it
  // just cannot be cross-checked. The phase boundary comes from the
  // caller's warmup_rounds, not the frames, so a journal losing its
  // warmup frames still replays correctly.
  if (!frames.empty()) {
    const int last = frames.rbegin()->first;
    const SearchOptions warmup = warmup_options();
    while (round_counter_ <= last) {
      const int t = round_counter_;
      const std::uint8_t phase = t < rc.warmup_rounds ? 0 : 1;
      const RoundRecord rec =
          run_round(round_counter_++, phase == 0 ? warmup : rc.search);
      ++report.replayed_rounds;
      const auto it = frames.find(t);
      if (it == frames.end()) continue;
      const JournalFrame& f = it->second;
      FMS_CHECK_MSG(f.phase == phase, "journal replay diverged at round "
                                          << t << ": phase mismatch");
      ByteWriter replayed;
      ByteWriter journaled;
      rec.canonical().serialize(replayed);
      f.record.serialize(journaled);
      FMS_CHECK_MSG(replayed.bytes() == journaled.bytes(),
                    "journal replay diverged at round "
                        << t << ": round record mismatch");
      FMS_CHECK_MSG(rng_.save_state() == f.rng_cursor,
                    "journal replay diverged at round " << t
                                                        << ": rng cursor");
      FMS_CHECK_MSG(staleness_rng_.save_state() == f.staleness_cursor,
                    "journal replay diverged at round "
                        << t << ": staleness cursor");
      FMS_CHECK_MSG(static_cast<int>(degrade_.mode()) == f.degrade_mode &&
                        degrade_.transitions() == f.degrade_transitions,
                    "journal replay diverged at round "
                        << t << ": degradation ladder");
    }
  }

  report.recovery_ms = timer.elapsed_seconds() * 1000.0;
  if (telemetry) {
    auto& reg = obs::Telemetry::instance().registry();
    if (report.replayed_rounds > 0) {
      reg.counter("fms.journal.frames_replayed")
          .add(static_cast<std::uint64_t>(report.replayed_rounds));
    }
    reg.gauge("fms.journal.recovery_ms").set(report.recovery_ms);
  }

  // Resume journaling where the crashed run left off: new frames append
  // after the (possibly truncated) tail.
  enable_journal(rc.journal_path, rc.search.fault_plan);
  return report;
}

std::vector<std::uint8_t> FederatedSearch::serialize_runtime_state() const {
  ByteWriter w;
  w.write(kRuntimeMagic);
  w.write(round_counter_);
  w.write(static_cast<std::uint64_t>(total_bytes_down_));
  w.write(static_cast<std::uint64_t>(total_bytes_up_));
  w.write(static_cast<std::uint64_t>(submodel_bytes_sum_));
  w.write(static_cast<std::uint64_t>(submodel_count_));
  // Fault ledger, so resumed campaigns keep the accounting invariant exact.
  w.write(fault_stats_);
  // Robustness ledger, so a resumed run's CLI summary matches an
  // uninterrupted one.
  w.write(robust_stats_);
  // Every RNG stream: the server's two, each participant's, each trace's.
  w.write_string(rng_.save_state());
  w.write_string(staleness_rng_.save_state());
  w.write(static_cast<std::uint32_t>(participants_.size()));
  for (const auto& p : participants_) {
    w.write_string(p->rng_state());
    // Mid-epoch batch iteration state.
    w.write_vector(p->shard().epoch_order());
    w.write(static_cast<std::uint64_t>(p->shard().epoch_cursor()));
  }
  w.write(static_cast<std::uint32_t>(traces_.size()));
  for (const auto& tr : traces_) {
    w.write_string(tr.rng_state());
    w.write(tr.state_mbps());  // AR(1) filter state
  }
  // Optimizer momentum (empty means no step has been taken yet).
  const auto& vel = theta_opt_.velocity();
  w.write(static_cast<std::uint32_t>(vel.size()));
  for (const auto& v : vel) w.write_vector(v);
  // Moving-average window. The rolling sum and rebuild phase carry
  // float-rounding state, so they are persisted verbatim rather than
  // recomputed — recomputation would diverge from an uninterrupted run.
  const std::deque<double>& mv = moving_.values();
  w.write_vector(std::vector<double>(mv.begin(), mv.end()));
  w.write(moving_.raw_sum());
  w.write(static_cast<std::uint64_t>(moving_.rebuild_counter()));
  // Delay-compensation memory pool snapshots.
  w.write(static_cast<std::uint32_t>(pool_.snapshots().size()));
  for (const auto& [round, snap] : pool_.snapshots()) {
    w.write(round);
    w.write_vector(snap.theta);
    w.write_vector(snap.alpha.flatten());
    w.write(static_cast<std::uint32_t>(snap.masks.size()));
    for (const Mask& m : snap.masks) {
      w.write_vector(m.normal);
      w.write_vector(m.reduce);
    }
  }
  // In-flight (not yet arrived) updates.
  w.write(static_cast<std::uint32_t>(arrivals_.size()));
  for (const auto& [round, updates] : arrivals_) {
    w.write(round);
    w.write(static_cast<std::uint32_t>(updates.size()));
    for (const UpdateMsg& u : updates) w.write_vector(u.serialize());
  }
  // Churn layer (FMS4): membership history, the adaptive-deadline window,
  // and the degradation ladder — so a resumed search replays the exact
  // membership deltas, deadlines, and mode transitions.
  registry_.serialize(w);
  deadline_est_.serialize(w);
  degrade_.serialize(w);
  return w.take();
}

void FederatedSearch::restore_runtime_state(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  FMS_CHECK_MSG(r.read<std::uint32_t>() == kRuntimeMagic,
                "corrupt runtime state (bad magic)");
  round_counter_ = r.read<int>();
  total_bytes_down_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  total_bytes_up_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  submodel_bytes_sum_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  submodel_count_ = static_cast<std::size_t>(r.read<std::uint64_t>());
  fault_stats_ = r.read<FaultStats>();
  robust_stats_ = r.read<RobustStats>();
  rng_.load_state(r.read_string());
  staleness_rng_.load_state(r.read_string());
  const auto np = r.read<std::uint32_t>();
  FMS_CHECK_MSG(np == participants_.size(),
                "checkpoint has " << np << " participants, search has "
                                  << participants_.size());
  for (auto& p : participants_) {
    p->set_rng_state(r.read_string());
    std::vector<int> order = r.read_vector<int>();
    const auto cursor = r.read<std::uint64_t>();
    p->shard().restore_epoch(std::move(order),
                             static_cast<std::size_t>(cursor));
  }
  const auto nt = r.read<std::uint32_t>();
  FMS_CHECK_MSG(nt == traces_.size(), "checkpoint trace count mismatch");
  for (auto& tr : traces_) {
    tr.set_rng_state(r.read_string());
    tr.set_state_mbps(r.read<double>());
  }
  const auto nv = r.read<std::uint32_t>();
  std::vector<std::vector<float>> vel(nv);
  for (auto& v : vel) v = r.read_vector<float>();
  FMS_CHECK_MSG(vel.empty() || vel.size() == supernet_->params().size(),
                "optimizer state tensor count mismatch");
  theta_opt_.set_velocity(std::move(vel));
  const std::vector<double> window_vals = r.read_vector<double>();
  const double window_sum = r.read<double>();
  const auto window_rebuild = r.read<std::uint64_t>();
  moving_.restore(std::deque<double>(window_vals.begin(), window_vals.end()),
                  window_sum, static_cast<std::size_t>(window_rebuild));
  std::map<int, RoundSnapshot> snaps;
  const auto ns = r.read<std::uint32_t>();
  for (std::uint32_t s = 0; s < ns; ++s) {
    const int round = r.read<int>();
    RoundSnapshot snap;
    snap.theta = r.read_vector<float>();
    FMS_CHECK_MSG(snap.theta.size() == supernet_->param_count(),
                  "pool snapshot theta shape mismatch");
    snap.alpha =
        AlphaPair::unflatten(r.read_vector<float>(), policy_.num_edges());
    const auto nm = r.read<std::uint32_t>();
    for (std::uint32_t j = 0; j < nm; ++j) {
      Mask m;
      m.normal = r.read_vector<int>();
      m.reduce = r.read_vector<int>();
      snap.masks.push_back(std::move(m));
    }
    snaps.emplace(round, std::move(snap));
  }
  pool_.restore(std::move(snaps));
  arrivals_.clear();
  const auto na = r.read<std::uint32_t>();
  for (std::uint32_t a = 0; a < na; ++a) {
    const int round = r.read<int>();
    const auto nu = r.read<std::uint32_t>();
    auto& updates = arrivals_[round];
    for (std::uint32_t u = 0; u < nu; ++u) {
      updates.push_back(UpdateMsg::deserialize(r.read_vector<std::uint8_t>()));
    }
  }
  registry_.restore(r);
  deadline_est_.restore(r);
  degrade_.restore(r);
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in runtime state");
}

Genotype FederatedSearch::derive() const {
  return policy_.derive_genotype(cfg_.supernet.num_nodes);
}

double FederatedSearch::avg_submodel_bytes() const {
  return submodel_count_ == 0
             ? 0.0
             : static_cast<double>(submodel_bytes_sum_) /
                   static_cast<double>(submodel_count_);
}

}  // namespace fms
