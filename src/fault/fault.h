// Deterministic fault injection for the federated search substrate.
//
// The paper's setting — phones on 4G links running a shared search — fails
// in ways the benign simulator (src/sim, src/net) never produces: devices
// crash and never reply, links die mid-round, payloads arrive corrupted,
// and divergent clients emit NaN/Inf or exploding gradients. This module
// *schedules* those faults and the server loop (src/core/search.cpp)
// *defends* against them, so the robustness claims are tested rather than
// assumed.
//
// Every decision is a pure function of (plan seed, participant, round,
// attempt): the injector carries no evolving RNG state. That makes fault
// campaigns reproducible byte-for-byte, independent of query order, and —
// critically for crash-recovery — means a resumed search re-derives the
// exact same fault schedule without checkpointing injector state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/fed/messages.h"

namespace fms {

enum class FaultKind {
  kCrash,         // participant goes dark permanently (no reply ever)
  kDropout,       // participant offline for a few rounds, then recovers
  kLinkFailure,   // download attempt fails; retransmit may recover it
  kBandwidthCollapse,  // link survives but at a fraction of its bandwidth
  kCorruptPayload,     // bit flips in SubmodelMsg / UpdateMsg buffers
  kDivergent,     // client emits NaN/Inf or exploding gradients + rewards
  // Byzantine adversaries: clients that lie, not crash. Unlike kDivergent
  // their updates are crafted to *pass* update screening (finite values,
  // rewards in [0, 1]) — only a robust estimator (src/agg) or a robust
  // reward channel bounds their influence.
  kSignFlip,      // gradient g -> -lambda * g (reverse-direction attack)
  kGradScale,     // gradient g -> lambda * g (amplification attack)
  kCollude,       // colluders all submit the same bounded fake gradient
  kRewardAttack,  // reward shifted by +/- delta, clamped into [0, 1]
};

const char* fault_kind_name(FaultKind k);

// Declarative fault schedule. All probabilities are per-decision (per
// participant-round or per transmission attempt); fractions select a fixed
// deterministic subset of the fleet. An all-zero plan injects nothing and
// the search takes its fault-free fast path.
struct FaultPlan {
  double crash_fraction = 0.0;   // fraction of participants that crash...
  int crash_round = 0;           // ...at a round drawn from
  int crash_spread = 0;          // [crash_round, crash_round + crash_spread]
  double dropout_p = 0.0;        // P(transient dropout starts) per round
  int dropout_rounds = 2;        // rounds offline before recovery
  double link_failure_p = 0.0;   // P(a download attempt fails)
  double uplink_failure_p = 0.0; // P(an upload attempt fails)
  // Deterministic seeded jitter on the upload retransmit backoff: the
  // n-th retry waits backoff * 2^n * (1 + backoff_jitter * u) with u a
  // per-(participant, round, attempt) hash draw — decorrelates retry
  // storms without an RNG stream to checkpoint.
  double backoff_jitter = 0.0;   // in [0, 1]
  double collapse_p = 0.0;       // P(bandwidth collapses) per round
  double collapse_factor = 0.05; // surviving bandwidth fraction
  double corrupt_p = 0.0;        // P(payload bit flips) per update
  int corrupt_bits = 8;          // flipped bits per corrupted payload
  double divergent_fraction = 0.0;  // fraction of clients that diverge...
  double divergent_p = 0.5;         // ...poisoning each update with this P
  // --- Byzantine adversaries (persistent once selected; every update the
  // selected client sends is attacked, which is the strongest and the
  // easiest-to-reason-about schedule) ---
  double sign_flip_fraction = 0.0;  // fraction running the sign-flip attack
  double sign_flip_lambda = 1.0;    // g -> -lambda * g
  double grad_scale_fraction = 0.0; // fraction running the scaling attack
  double grad_scale_lambda = 10.0;  // g -> lambda * g
  double collude_fraction = 0.0;    // fraction submitting cloned gradients
  double collude_scale = 5.0;       // magnitude of the cloned direction
  double reward_attack_fraction = 0.0;  // fraction lying about accuracy
  double reward_attack_delta = 0.5;     // signed shift; < 0 deflates
  // --- disk faults (durability path: journal appends, checkpoint and
  // genotype writes). Per-operation probabilities keyed by (op, round);
  // the writers in src/core consult these directly, so the round loop's
  // fault-free fast path — and the search trajectory — is untouched by a
  // disk-only plan. ---
  double disk_eio_p = 0.0;      // P(transient EIO on open/flush; one retry
                                // then the write lands)
  double disk_short_p = 0.0;    // P(short write: only a prefix of the
                                // buffer reaches disk — a torn tail)
  double disk_corrupt_p = 0.0;  // P(buffer bit-flips between CRC stamping
                                // and the write — a poisoned file)
  int disk_corrupt_bits = 32;   // flipped bits per corrupted write
  std::uint64_t seed = 0x7a0175;

  // True when no network/payload/Byzantine family is scheduled — the
  // round loop's fast path. Disk faults are deliberately excluded: they
  // never touch the search trajectory, only the durability writers, which
  // check has_disk() themselves.
  bool empty() const;
  // True when any Byzantine family is scheduled.
  bool has_byzantine() const;
  // True when any disk-fault family is scheduled.
  bool has_disk() const;

  // Reference campaign of the acceptance bar: 30% crashed participants,
  // corrupted payloads, and NaN/exploding-gradient clients.
  static FaultPlan severe(std::uint64_t seed = 0x7a0175);

  // Parses "key=value" pairs separated by commas, e.g.
  //   "crash=0.3,crash_round=5,corrupt=0.2,divergent=0.3,link=0.1,seed=7"
  // Keys: crash, crash_round, crash_spread, dropout, dropout_rounds, link,
  // uplink, backoff_jitter, collapse, collapse_factor, corrupt,
  // corrupt_bits, divergent, divergent_p, sign_flip, sign_flip_lambda,
  // grad_scale, grad_scale_lambda, collude, collude_scale, reward_attack,
  // reward_attack_delta, disk_eio, disk_short, disk_corrupt,
  // disk_corrupt_bits, seed. Integer keys take integer literals and every
  // value must lie in its key's bound; throws CheckError otherwise or on an
  // unknown key. to_string() is exact: parse(to_string()) == *this.
  static FaultPlan parse(const std::string& spec);
  std::string to_string() const;
  template <class Io, class Self>  // each key once (src/common/spec.h)
  static void keys(Io& io, Self& plan);
};

// Durable-write operations the disk-fault channel can strike. The enum
// value is a salt-stream discriminator: the same (op_id = round) draws
// independent outcomes for the journal append and the checkpoint write
// of the same round.
enum class DiskOp : std::uint64_t {
  kJournalAppend = 1,
  kCheckpointWrite = 2,
  kGenotypeWrite = 3,
};

// What the disk does to one durable write. At most the writer observes:
// a transient EIO (retry succeeds), a short write (a prefix of the buffer
// lands — keep_fraction in [0, 1)), or silent corruption (bits flip after
// the CRC was stamped, so the read path must catch it).
struct DiskOutcome {
  bool eio = false;
  bool short_write = false;
  double keep_fraction = 1.0;  // meaningful only when short_write
  bool corrupt = false;
  bool faulted() const { return eio || short_write || corrupt; }
};

// Outcome of the download-link simulation for one participant-round,
// including bounded retransmit-with-backoff (defense lives here so the
// latency model and the search loop agree on attempt accounting).
struct LinkOutcome {
  bool delivered = true;       // false: every attempt failed, link is dead
  int retransmits = 0;         // retries beyond the first attempt
  double extra_seconds = 0.0;  // accumulated backoff delay
  double bandwidth_scale = 1.0;  // collapse factor on the delivering attempt
  bool faulted() const {
    return !delivered || retransmits > 0 || bandwidth_scale < 1.0;
  }
};

// Ledger of injected faults and their resolutions. The invariant the
// acceptance test checks: every injected fault is accounted for exactly
// once, i.e. injected_total() == rejected + dropped + recovered.
struct FaultStats {
  std::uint64_t injected_crash = 0;
  std::uint64_t injected_dropout = 0;
  std::uint64_t injected_link = 0;
  std::uint64_t injected_uplink = 0;
  std::uint64_t injected_corrupt = 0;
  std::uint64_t injected_divergent = 0;
  std::uint64_t injected_sign_flip = 0;
  std::uint64_t injected_grad_scale = 0;
  std::uint64_t injected_collude = 0;
  std::uint64_t injected_reward = 0;
  std::uint64_t rejected = 0;   // caught by update screening
  std::uint64_t dropped = 0;    // update never applied (offline, dead link,
                                // staleness overflow, evicted snapshot)
  std::uint64_t recovered = 0;  // retransmit succeeded / fault absorbed
                                // (for Byzantine updates: reached the
                                // aggregator, whose estimator bounds them)
  std::uint64_t retransmits = 0;  // individual retries (not in the equation)

  std::uint64_t injected_byzantine() const {
    return injected_sign_flip + injected_grad_scale + injected_collude +
           injected_reward;
  }
  std::uint64_t injected_total() const {
    return injected_crash + injected_dropout + injected_link +
           injected_uplink + injected_corrupt + injected_divergent +
           injected_byzantine();
  }
  std::uint64_t accounted() const { return rejected + dropped + recovered; }
};

class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int num_participants);

  const FaultPlan& plan() const { return plan_; }
  bool active() const { return !plan_.empty(); }

  // --- availability ---
  bool is_crashed(int participant, int round) const;
  bool is_dropped_out(int participant, int round) const;
  bool is_offline(int participant, int round) const {
    return is_crashed(participant, round) || is_dropped_out(participant, round);
  }

  // --- link faults + retransmit defense ---
  // Simulates up to 1 + max_retransmits download attempts; each retry
  // doubles the backoff (backoff_s, 2*backoff_s, ...).
  LinkOutcome link_outcome(int participant, int round, int max_retransmits,
                           double backoff_s) const;
  // Upload-direction counterpart: its own decision stream (so download and
  // upload schedules stay independent), seeded jitter on the backoff, and
  // no bandwidth collapse (collapse models the shared physical link and is
  // already applied on the download leg).
  LinkOutcome upload_outcome(int participant, int round, int max_retransmits,
                             double backoff_s) const;

  // --- payload faults (at most one per update) ---
  // kDivergent wins over kCorruptPayload when both fire.
  std::optional<FaultKind> payload_fault(int participant, int round) const;
  // --- Byzantine adversaries ---
  // The attack this participant runs (persistent selection; precedence
  // sign-flip > grad-scale > collude > reward when a client is selected
  // by several families).
  std::optional<FaultKind> byzantine_kind(int participant, int round) const;
  // The one fault an update carries, for exactly-once accounting: a
  // payload fault wins (the update is already destroyed, so the attack is
  // not applied that round), else the Byzantine kind; nullopt when the
  // plan is inactive.
  std::optional<FaultKind> update_fault(int participant, int round) const;
  // Applies the given Byzantine attack in place. Gradients stay finite
  // and the reward stays in [0, 1], so the result passes screening by
  // construction.
  void attack(UpdateMsg& upd, FaultKind kind, int participant,
              int round) const;
  // Flips plan.corrupt_bits random bits across the buffer, deterministically
  // per (participant, round).
  void corrupt(std::vector<float>& values, int participant, int round) const;
  // Poisons an update the way a divergent client would: NaN / Inf /
  // exploding gradients and an out-of-range or non-finite reward.
  void poison(UpdateMsg& upd, int participant, int round) const;

  // --- disk faults (durability path) ---
  // The fate of one durable write, a pure function of (plan seed, op,
  // op_id) like every other decision here — a recovered run re-derives
  // the same disk-fault schedule it crashed under.
  DiskOutcome disk_outcome(DiskOp op, std::uint64_t op_id) const;
  // Flips plan.disk_corrupt_bits random bits across the buffer,
  // deterministically per op_id. Called by the writers after the CRC is
  // stamped, so the corruption is detectable on read.
  void corrupt_bytes(std::vector<std::uint8_t>& bytes,
                     std::uint64_t op_id) const;

 private:
  double u01(std::uint64_t salt, std::uint64_t a, std::uint64_t b) const;

  FaultPlan plan_;
};

// Server-side update screening (defense): accepts only updates whose
// reward is a finite training accuracy in [0, 1], whose loss is finite,
// and whose gradient is finite with L2 norm at most max_grad_norm
// (<= 0 disables the norm bound). Returns nullptr when the update is
// clean, otherwise a static string naming the first violation.
const char* screen_update(const UpdateMsg& upd, float max_grad_norm);

}  // namespace fms
