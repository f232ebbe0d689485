// fms_benchmark — the end-to-end benchmark of the federated model search.
//
// One process runs one named workload as a closed loop of identical
// "jobs": a job is a whole seeded search (warm-up, timed search rounds,
// derive(), and on `hostile` a crash-recovery drill) or a whole federated
// retraining (timed rounds, then the test-set evaluation federated_train()
// closes with). The next job starts only when the previous one has
// finished, and only while it is expected to end within --seconds; a run
// has at least one job. Every job of a run is the same deterministic
// computation, so the run checks that each job reproduces the first one's
// RoundRecord digest.
//
// The benchmark goes through the public API only. Round latency is timed
// outside each run_search(1) call (the call sequence is bit-identical to
// one run_search(n) call); retraining rounds are timed at the boundaries
// federated_train() reports through its LrSchedule hook, which hands back
// the configured constant learning rate, so the trajectory is unchanged.
//
//   fms_benchmark --workload W --seed S --seconds T --trace 0|1 --workdir D
//   fms_benchmark --smoke --workdir D     every workload, ~3 rounds, checks
//   fms_benchmark --self-test             the program's own arithmetic
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced, then with the profiler, work ledger and allocation ledger on,
// then times single-layer probes, and prints the per-layer metrics. The
// last line of stdout is the results JSON; the exit code is non-zero when
// any output check fails. Scratch files (checkpoints, journals, the span
// log) are written under --workdir only.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "src/agg/aggregator.h"
#include "src/common/config.h"
#include "src/common/serialize.h"
#include "src/common/stopwatch.h"
#include "src/core/checkpoint.h"
#include "src/core/journal.h"
#include "src/core/retrain.h"
#include "src/core/search.h"
#include "src/data/synth.h"
#include "src/dc/compensation.h"
#include "src/fed/compression.h"
#include "src/fed/participant.h"
#include "src/nas/discrete_net.h"
#include "src/net/trace.h"
#include "src/net/transmission.h"
#include "src/nn/lr_schedule.h"
#include "src/obs/alloc.h"
#include "src/obs/profile.h"
#include "src/obs/work.h"
#include "src/tensor/ops.h"

namespace fms::e2e {
namespace {

constexpr const char* kWorkloadNames[] = {"search_iid", "server_k50",
                                          "hostile", "retrain_fixed"};
// Set-up is repeated for at least this long, and at least kSetupRepeats
// times; setup_s is the median.
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kSetupRepeats = 11;
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kSearch, kRetrain };

struct Workload {
  std::string name;
  Kind kind = Kind::kSearch;
  SearchConfig cfg;
  SearchOptions opts;
  SynthSpec data;
  std::uint64_t data_seed = 1;
  int warmup = 0;              // P1 rounds per job (search)
  int rounds = 0;              // timed rounds per job
  int checkpoint_every = 0;    // > 0: journal, checkpoints, recovery drill
  double min_accuracy = 0.15;  // quality floor on `accuracy`
};

// The repo-scale search setting (paper: 8 cells, 4 nodes, C=16, 32x32).
// cfg.seed keeps the library default: the search's own random streams
// (masks, bandwidth traces, staleness draws, batches) are part of the
// workload, like the fault and churn schedules.
SearchConfig search_config() {
  SearchConfig cfg;
  cfg.supernet.num_cells = 3;
  cfg.supernet.num_nodes = 2;
  cfg.supernet.stem_channels = 6;
  cfg.supernet.image_size = 8;
  cfg.schedule.batch_size = 16;
  cfg.schedule.num_participants = 10;
  cfg.augment.cutout = 2;
  cfg.augment.random_clip = 1;
  return cfg;
}

SynthSpec synth_spec(int image_size) {
  SynthSpec spec;
  spec.train_size = 1500;
  spec.test_size = 400;
  spec.image_size = image_size;
  return spec;
}

// The architecture `retrain_fixed` trains: a literal two-node genotype that
// mixes every conv family (separable 3x3/5x5, dilated 3x3/5x5), pooling and
// skip connections, so its kernels cover the shapes P3 retraining runs.
Genotype fixed_genotype() {
  Genotype g;
  g.nodes = 2;
  g.normal = {{1, OpType::kSepConv3},
              {0, OpType::kSepConv5},
              {2, OpType::kDilConv3},
              {1, OpType::kIdentity}};
  g.reduce = {{0, OpType::kMaxPool3},
              {1, OpType::kSepConv3},
              {2, OpType::kIdentity},
              {1, OpType::kDilConv5}};
  return g;
}

bool known_workload(const std::string& name) {
  for (const char* w : kWorkloadNames) {
    if (name == w) return true;
  }
  return false;
}

// `seed` draws the inputs: the synthetic dataset and its partition into
// shards. Everything else is the workload's fixed definition, so every
// seed runs the same amount of work on different data. A smoke job runs
// the same configuration for a handful of rounds.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  w.data_seed = seed;
  w.cfg = search_config();
  w.data = synth_spec(8);
  if (name == "search_iid") {
    // The paper's default setting: iid shards, hard sync, Eq. 13 mean, f32.
    // Long enough for the reward to climb well above chance (0.10).
    w.warmup = 10;
    w.rounds = 100;
  } else if (name == "server_k50") {
    // Many tiny clients: server plumbing instead of convolutions. On one
    // 4x4 image per client the reward stays at chance however long the
    // search runs, so this workload has the low quality floor.
    w.cfg.schedule.num_participants = 50;
    w.cfg.schedule.batch_size = 1;
    w.cfg.supernet.image_size = 4;
    w.data = synth_spec(4);
    w.opts.staleness = StalenessDistribution::severe();
    w.opts.stale_policy = StalePolicy::kCompensate;
    w.opts.aggregator = agg::AggregatorConfig::parse("trimmed_mean:5");
    w.opts.codec = Codec::kInt8;
    w.warmup = 10;
    w.rounds = 500;
    w.min_accuracy = 0.05;
  } else if (name == "hostile") {
    // Faults, churn, partial quorums, robust aggregation and durable
    // writes all at once.
    w.opts.staleness = StalenessDistribution::severe();
    w.opts.stale_policy = StalePolicy::kCompensate;
    FaultPlan plan = FaultPlan::severe();
    plan.uplink_failure_p = 0.1;
    plan.disk_eio_p = 0.05;
    plan.disk_short_p = 0.05;
    w.opts.fault_plan = plan;
    // 165 rounds end 5 past the round-160 checkpoint, so recovery replays.
    w.warmup = 10;
    w.rounds = 155;
    w.checkpoint_every = 10;
    ChurnPlan churn;
    churn.burst_fraction = 0.3;
    churn.burst_round = w.warmup + w.rounds / 3;
    churn.burst_away = 8;
    w.opts.churn_plan = churn;
    w.opts.quorum = 0.75;
    w.opts.adaptive_timeout.enabled = true;
    w.opts.degrade.max_mode = 3;
    w.opts.adaptive_screen = true;
    w.opts.aggregator = agg::AggregatorConfig::parse("clipped_mean:3");
  } else {
    // Federated P3 retraining of a fixed architecture at evaluation scale.
    w.kind = Kind::kRetrain;
    w.cfg.supernet.num_cells = 4;
    w.cfg.supernet.stem_channels = 8;
    w.cfg.schedule.batch_size = 32;
    w.cfg.schedule.num_participants = 2;
    // Trained close to convergence and tested on 1000 images, so the test
    // accuracy varies across seeds by a few percent, not by its sampling
    // noise.
    w.data.test_size = 1000;
    w.rounds = 100;
    w.min_accuracy = 0.5;
  }
  if (smoke) {
    w.warmup = std::min(w.warmup, 1);
    w.rounds = 3;
    if (w.checkpoint_every > 0) {
      w.checkpoint_every = 3;
      w.opts.churn_plan.burst_round = 2;
    }
    w.data.test_size = 64;
    w.min_accuracy = 0.0;
  }
  return w;
}

struct Inputs {
  TrainTest data;
  std::vector<std::vector<int>> partition;
};

Inputs make_inputs(const Workload& w) {
  Rng rng(w.data_seed);
  Inputs in{make_synth_c10(w.data, rng), {}};
  Rng part_rng(w.data_seed ^ 0x9a27);
  in.partition = iid_partition(in.data.train.size(),
                               w.cfg.schedule.num_participants, part_rng);
  return in;
}

// ---------------------------------------------------------------------------
// Outside spans: recorded by the benchmark around its own calls, kept in
// memory, written as JSONL at exit.

class SpanLog {
 public:
  double now() const { return clock_.elapsed_seconds(); }
  void set_run(std::string run) { run_ = std::move(run); }

  int begin(const char* name, int parent = -1) {
    return add(name, now(), -1.0, parent);
  }
  // Closes span `id`; returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    return s.end_s - s.start_s;
  }
  int add(const char* name, double start_s, double end_s, int parent) {
    spans_.push_back({name, run_, start_s, end_s, parent});
    return static_cast<int>(spans_.size()) - 1;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"run\": \"" << s.run
          << "\", \"start_s\": " << exact_number(s.start_s)
          << ", \"end_s\": " << exact_number(s.end_s)
          << ", \"parent\": " << s.parent << "}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::string run;
    double start_s;
    double end_s;
    int parent;
  };
  Stopwatch clock_;
  std::string run_;
  std::vector<Span> spans_;
};

// Output checks. A failed check is reported on stderr and fails the run.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++count_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  int failed() const { return failed_; }
  int count() const { return count_; }

 private:
  int count_ = 0;
  int failed_ = 0;
};

// ---------------------------------------------------------------------------
// Jobs

bool finite_record(const RoundRecord& r) {
  const double fields[] = {r.mean_reward,   r.moving_avg,     r.max_latency_s,
                           r.mean_latency_s, r.mean_tau,      r.alpha_entropy,
                           r.baseline,      r.commit_latency_s,
                           r.agg_clipped_mass, r.screen_bound, r.deadline_s};
  for (const double v : fields) {
    if (!std::isfinite(v)) return false;
  }
  return r.mean_reward >= 0.0 && r.mean_reward <= 1.0 && r.moving_avg >= 0.0 &&
         r.moving_avg <= 1.0;
}

// CRC32 over the canonical serialized bytes of a record stream.
std::uint32_t record_digest(const std::vector<RoundRecord>& records) {
  ByteWriter w;
  for (const RoundRecord& r : records) r.canonical().serialize(w);
  return crc32(w.bytes());
}

bool genotype_ok(const Genotype& g, int nodes) {
  const auto edges_ok = [&](const std::vector<GenotypeEdge>& edges) {
    if (edges.size() != static_cast<std::size_t>(2 * nodes)) return false;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const int node = static_cast<int>(e / 2);
      if (edges[e].input < 0 || edges[e].input >= 2 + node) return false;
    }
    return true;
  };
  return g.nodes == nodes && edges_ok(g.normal) && edges_ok(g.reduce);
}

struct Job {
  double job_s = 0.0;
  std::vector<double> round_ms;     // timed rounds
  std::vector<RoundRecord> records;  // timed search rounds
  std::uint32_t digest = 0;
  double accuracy = 0.0;
  double bytes_per_round = 0.0;
  double derive_ms = 0.0;
  double recover_ms = 0.0;
  int failed_rounds = 0;
  FaultStats faults;
  std::uint64_t journal_frames = 0;
  int replayed_rounds = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t arrived = 0;
  // Final state, kept for the layer probes.
  std::unique_ptr<FederatedSearch> search;
  std::unique_ptr<DiscreteNet> net;
  Genotype genotype;
};

// Profiler, work ledger and allocation ledger, accumulated over the
// attribution windows (the timed rounds) of the traced jobs.
struct Attribution {
  std::map<std::string, obs::ZoneStats> zones;  // by path
  std::uint64_t conv_flops = 0;
  std::uint64_t alloc_bytes = 0;
  double wall_s = 0.0;
  int rounds = 0;
};

// Instrumentation on or off: the profiler, the work ledger and the
// allocation ledger together.
void set_tracing(bool on) {
  obs::set_profiling_enabled(on);
  obs::set_work_tracking_enabled(on);
  obs::set_alloc_tracking_enabled(on);
}

// An attribution window; a null Attribution means an untraced job.
void open_window(const Attribution* attr) {
  if (attr == nullptr) return;
  obs::reset_profiler();
  obs::reset_work_ledger();
  obs::reset_alloc_stats();
}

void close_window(Attribution* attr, double wall_s, int rounds) {
  if (attr == nullptr) return;
  Attribution& a = *attr;
  for (const obs::ZoneStats& z : obs::collect_profile().zones) {
    obs::ZoneStats& acc = a.zones[z.path];
    acc.path = z.path;
    acc.name = z.name;
    acc.depth = z.depth;
    acc.calls += z.calls;
    acc.incl_ns += z.incl_ns;
    acc.excl_ns += z.excl_ns;
  }
  for (const obs::WorkRow& row : obs::collect_work().rows) {
    if (row.op == "nn.conv_fwd" || row.op == "nn.conv_bwd") {
      a.conv_flops += row.cost.flops;
    }
  }
  a.alloc_bytes += obs::alloc_stats().total_bytes;
  a.wall_s += wall_s;
  a.rounds += rounds;
}

struct Context {
  const Workload& w;
  const Inputs& in;
  std::string workdir;
  SpanLog& spans;
  Checks& checks;
};

Job run_search_job(Context& ctx, Attribution* attr) {
  const Workload& w = ctx.w;
  Job job;
  SearchOptions opts = w.opts;
  const std::string ckpt = ctx.workdir + "/search.ckpt";
  const std::string wal = ctx.workdir + "/search.wal";
  if (w.checkpoint_every > 0) {
    for (const std::string& p : {ckpt, ckpt + ".prev", ckpt + ".tmp", wal,
                                 wal + ".prev"}) {
      std::filesystem::remove(p);
    }
    opts.checkpoint_every = w.checkpoint_every;
    opts.checkpoint_path = ckpt;
  }
  job.search = std::make_unique<FederatedSearch>(w.cfg, ctx.in.data.train,
                                                 ctx.in.partition);
  FederatedSearch& search = *job.search;
  if (w.checkpoint_every > 0) search.enable_journal(wal, opts.fault_plan);

  SpanLog& spans = ctx.spans;
  const int job_span = spans.begin("core.job");
  const int warm_span = spans.begin("core.warmup", job_span);
  search.run_warmup(w.warmup);
  spans.end(warm_span);

  open_window(attr);
  double window_s = 0.0;
  for (int r = 0; r < w.rounds; ++r) {
    const int round_span = spans.begin("fed.round", job_span);
    std::vector<RoundRecord> recs = search.run_search(1, opts);
    const double s = spans.end(round_span);
    job.round_ms.push_back(1000.0 * s);
    window_s += s;
    if (recs.size() != 1 || !finite_record(recs.front())) {
      ++job.failed_rounds;
    }
    job.records.insert(job.records.end(), recs.begin(), recs.end());
  }
  close_window(attr, window_s, w.rounds);

  const int derive_span = spans.begin("core.derive", job_span);
  job.genotype = search.derive();
  job.derive_ms = 1000.0 * spans.end(derive_span);

  if (w.checkpoint_every > 0) {
    const int recover_span = spans.begin("core.recover", job_span);
    FederatedSearch fresh(w.cfg, ctx.in.data.train, ctx.in.partition);
    FederatedSearch::RecoverConfig rc;
    rc.checkpoint_path = ckpt;
    rc.journal_path = wal;
    rc.warmup_rounds = w.warmup;
    rc.search = opts;
    const FederatedSearch::RecoveryReport rep = fresh.recover(rc);
    job.recover_ms = 1000.0 * spans.end(recover_span);
    job.replayed_rounds = rep.replayed_rounds;
    const int total = w.warmup + w.rounds;
    // The newest checkpoint that survived the disk faults, or round 0 when
    // none did, then every round since.
    ctx.checks.expect((rep.checkpoint_loaded || rep.start_round == 0) &&
                          rep.start_round % w.checkpoint_every == 0 &&
                          rep.start_round + rep.replayed_rounds == total,
                      w.name + ": recover() replays the rounds since the "
                               "last checkpoint (loaded " +
                          std::to_string(rep.checkpoint_loaded) + ", round " +
                          std::to_string(rep.start_round) + ", replayed " +
                          std::to_string(rep.replayed_rounds) + ")");
    ctx.checks.expect(
        fresh.checkpoint().serialize() == search.checkpoint().serialize(),
        w.name + ": recovered state equals the live state byte for byte");
    job.journal_frames = search.journal()->stats().frames_written;
  }
  job.job_s = spans.end(job_span);

  std::size_t bytes = 0;
  double reward = 0.0;
  const std::size_t n = job.records.size();
  for (std::size_t i = 0; i < n; ++i) {
    const RoundRecord& r = job.records[i];
    bytes += r.bytes_down + r.bytes_up;
    if (i >= n / 2) reward += r.mean_reward;
    job.dispatched += static_cast<std::uint64_t>(r.cohort);
    job.arrived += static_cast<std::uint64_t>(r.arrived);
  }
  job.bytes_per_round = static_cast<double>(bytes) / static_cast<double>(n);
  // The reward the search has reached: its mean over the second half of
  // the timed rounds.
  job.accuracy = reward / static_cast<double>(n - n / 2);
  job.digest = record_digest(job.records);
  job.faults = search.fault_stats();
  // Every fault resolves exactly once; at job end only updates still in
  // flight (dispatched within the last max_delay rounds) can be pending.
  const std::uint64_t injected = job.faults.injected_total();
  const std::uint64_t accounted = job.faults.accounted();
  const auto in_flight = static_cast<std::uint64_t>(
      w.cfg.schedule.num_participants * std::max(0, opts.staleness.max_delay()));
  ctx.checks.expect(accounted <= injected && injected - accounted <= in_flight,
                    w.name + ": fault ledger injected == rejected + dropped "
                             "+ recovered + in flight");
  ctx.checks.expect(genotype_ok(job.genotype, w.cfg.supernet.num_nodes),
                    w.name + ": derive() returns 2 x nodes edges per cell");
  return job;
}

// Constant learning rate that also stamps the start of every round
// federated_train() runs. The last round also runs federated_train's two
// closing test-set evaluations, so it is not timed: the attribution window
// closes when it starts.
class RoundClock : public LrSchedule {
 public:
  RoundClock(float lr, const SpanLog& spans, Attribution* attr)
      : lr_(lr), spans_(spans), attr_(attr) {}
  float lr_at(int step, int total_steps) const override {
    starts_.push_back(spans_.now());
    if (step == total_steps - 1) {
      close_window(attr_, starts_.back() - starts_.front(), step);
    }
    return lr_;
  }
  const std::vector<double>& starts() const { return starts_; }

 private:
  float lr_;
  const SpanLog& spans_;
  Attribution* attr_;
  mutable std::vector<double> starts_;
};

Job run_retrain_job(Context& ctx, Attribution* attr) {
  const Workload& w = ctx.w;
  const Inputs& in = ctx.in;
  Job job;
  Rng net_rng(w.cfg.seed);
  job.genotype = fixed_genotype();
  job.net = std::make_unique<DiscreteNet>(job.genotype, w.cfg.supernet,
                                          net_rng);
  const RetrainConfig& rc = w.cfg.retrain;
  const SGD::Options sgd{rc.lr_federated, rc.momentum_federated,
                         rc.weight_decay_federated, rc.clip_federated};
  RoundClock clock(sgd.lr, ctx.spans, attr);
  Rng train_rng(w.cfg.seed + 1);
  const int batch = w.cfg.schedule.batch_size;

  SpanLog& spans = ctx.spans;
  const int job_span = spans.begin("core.job");
  const int train_span = spans.begin("core.federated_train", job_span);
  open_window(attr);
  const RetrainResult result =
      federated_train(*job.net, in.data.train, in.partition, in.data.test,
                      w.rounds, batch, sgd, &w.cfg.augment, train_rng,
                      /*eval_every=*/w.rounds, &clock);
  spans.end(train_span);
  job.accuracy = result.final_test_accuracy;
  job.job_s = spans.end(job_span);

  // Round r spans from its start to the start of round r + 1.
  const std::vector<double>& starts = clock.starts();
  ctx.checks.expect(starts.size() == static_cast<std::size_t>(w.rounds),
                    w.name + ": federated_train runs every round");
  for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
    spans.add("fed.round", starts[r], starts[r + 1], train_span);
    job.round_ms.push_back(1000.0 * (starts[r + 1] - starts[r]));
  }

  const auto k = static_cast<std::uint64_t>(in.partition.size());
  // FedAvg ships the whole model down and a whole gradient up.
  job.bytes_per_round = 2.0 * static_cast<double>(k) *
                        static_cast<double>(job.net->model_bytes());
  job.dispatched = k * static_cast<std::uint64_t>(w.rounds);
  job.arrived = job.dispatched;
  // The trained weights stand in for the record stream.
  ByteWriter weights;
  for (const Param* p : job.net->params()) {
    weights.write_vector(p->value.vec());
  }
  job.digest = crc32(weights.bytes());
  ctx.checks.expect(std::isfinite(job.accuracy) &&
                        job.accuracy >= 0.0 && job.accuracy <= 1.0,
                    w.name + ": test accuracy is a finite share");
  return job;
}

Job run_job(Context& ctx, Attribution* attr) {
  return ctx.w.kind == Kind::kSearch ? run_search_job(ctx, attr)
                                     : run_retrain_job(ctx, attr);
}

// Runs jobs back to back, at least one, and another only while it is
// expected (from the last job's time) to end within `seconds`.
struct Phase {
  std::vector<Job> jobs;
  std::vector<double> round_ms;
  int failed_rounds = 0;
};

Phase run_phase(Context& ctx, double seconds, Attribution* attr) {
  Phase phase;
  const Stopwatch clock;
  while (phase.jobs.empty() ||
         clock.elapsed_seconds() + phase.jobs.back().job_s <= seconds) {
    if (!phase.jobs.empty()) {
      // Only the newest job's final state is kept (for the probes), so
      // peak memory does not depend on how many jobs a run fits.
      phase.jobs.back().search.reset();
      phase.jobs.back().net.reset();
    }
    Job job = run_job(ctx, attr);
    phase.round_ms.insert(phase.round_ms.end(), job.round_ms.begin(),
                          job.round_ms.end());
    phase.failed_rounds += job.failed_rounds;
    phase.jobs.push_back(std::move(job));
  }
  const Job& first = phase.jobs.front();
  ctx.checks.expect(first.failed_rounds == 0,
                    ctx.w.name + ": every RoundRecord is finite with rewards "
                                 "in [0, 1]");
  for (const Job& job : phase.jobs) {
    if (job.digest != first.digest) {
      ctx.checks.expect(false, ctx.w.name + ": every job reproduces the "
                                            "first job's digest");
      break;
    }
  }
  ctx.checks.expect(first.accuracy >= ctx.w.min_accuracy,
                    ctx.w.name + ": final accuracy " +
                        std::to_string(first.accuracy) + " at least " +
                        std::to_string(ctx.w.min_accuracy));
  return phase;
}

// ---------------------------------------------------------------------------
// Set-up: inputs and the search (or network) built from them, repeated so
// set-up time is a median.

struct Setup {
  double setup_s = 0.0;
  double data_ms = 0.0;
  double construct_ms = 0.0;
};

Setup measure_setup(const Workload& w, SpanLog& spans,
                    std::unique_ptr<Inputs>& inputs) {
  std::vector<double> total;
  std::vector<double> data;
  std::vector<double> construct;
  const Stopwatch clock;
  while (total.size() < kSetupRepeats ||
         clock.elapsed_seconds() < kSetupSeconds) {
    const int setup_span = spans.begin("core.setup");
    const int data_span = spans.begin("data.make", setup_span);
    auto in = std::make_unique<Inputs>(make_inputs(w));
    data.push_back(1000.0 * spans.end(data_span));
    const int construct_span = spans.begin("core.construct", setup_span);
    if (w.kind == Kind::kSearch) {
      FederatedSearch search(w.cfg, in->data.train, in->partition);
    } else {
      Rng net_rng(w.cfg.seed);
      DiscreteNet net(fixed_genotype(), w.cfg.supernet, net_rng);
    }
    construct.push_back(1000.0 * spans.end(construct_span));
    total.push_back(spans.end(setup_span));
    inputs = std::move(in);
  }
  return {median(total), median(data), median(construct)};
}

// ---------------------------------------------------------------------------
// Layer probes: N fixed calls into one public function, sized from the
// workload's final state; each reports the median time per call.

template <typename F>
double probe_us(int calls, F&& f) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const Stopwatch sw;
    f(static_cast<std::size_t>(i));
    us.push_back(1e6 * sw.elapsed_seconds());
  }
  return median(us);
}

void net_probes(DiscreteNet& net, const TrainTest& data, int batch,
                std::vector<Metric>& out) {
  std::vector<int> idx(static_cast<std::size_t>(batch));
  std::iota(idx.begin(), idx.end(), 0);
  const Dataset::Batch b = data.train.make_batch(idx, nullptr, nullptr);
  out.push_back({"core.evaluate_ms", 1e-3 * probe_us(3, [&](std::size_t) {
                   evaluate(net, data.test, batch);
                 }),
                 "ms"});
  out.push_back({"nn.net_step_us", probe_us(20, [&](std::size_t) {
                   net.zero_grad();
                   const Tensor logits = net.forward(b.x, /*train=*/true);
                   net.backward(cross_entropy(logits, b.y).grad_logits);
                 }),
                 "us"});
  out.push_back({"nn.eval_fwd_us", probe_us(20, [&](std::size_t) {
                   net.forward(b.x, /*train=*/false);
                 }),
                 "us"});
}

// The search-layer probes, in output order. A retraining does not run
// these layers, so there they read 0.
constexpr const char* kSearchProbes[][2] = {
    {"fed.train_step_us", "us"},      {"nas.mask_ids_us", "us"},
    {"nas.gather_us", "us"},          {"nas.scatter_us", "us"},
    {"nas.densify_us", "us"},         {"agg.aggregate_us", "us"},
    {"dc.compensate_us", "us"},       {"fed.codec_us", "us"},
    {"fed.msg_us", "us"},             {"net.schedule_us", "us"},
    {"rl.policy_us", "us"},           {"core.checkpoint_ms", "ms"},
    {"core.journal_append_us", "us"}, {"core.restore_ms", "ms"}};

// Calls cycle through K sub-models sampled from the final policy, so a
// probe reports the workload's mix of sub-model sizes, not one draw.
std::vector<double> search_probes(Context& ctx, Job& job) {
  const Workload& w = ctx.w;
  const SearchOptions& opts = w.opts;
  const auto k = static_cast<std::size_t>(w.cfg.schedule.num_participants);
  FederatedSearch& search = *job.search;
  Supernet& net = search.supernet();
  const ArchPolicy& policy = search.policy();
  Rng rng(w.cfg.seed ^ 0x9b0be);

  SearchParticipant participant(
      0, Shard(&ctx.in.data.train, ctx.in.partition.front()), w.cfg.supernet,
      w.cfg.augment, w.cfg.schedule.batch_size, Rng(w.cfg.seed));
  std::vector<SubmodelMsg> msgs(k);
  std::vector<std::vector<std::size_t>> ids;
  std::vector<UpdateMsg> updates;  // real gradients of the K sub-models
  for (SubmodelMsg& m : msgs) {
    m.mask = policy.sample(rng);
    ids.push_back(net.masked_param_ids(m.mask));
    m.values = net.gather_values(ids.back());
    updates.push_back(participant.train_step(m));
  }
  std::vector<std::vector<float>> dense;
  std::vector<std::vector<std::uint8_t>> presence;
  std::vector<std::vector<float>> stale_w;
  std::vector<std::size_t> model_bytes;
  std::vector<double> bandwidths;
  const std::vector<float> flat = net.flat_values();
  for (std::size_t i = 0; i < k; ++i) {
    dense.push_back(net.dense_from_masked(ids[i], updates[i].grads));
    presence.push_back(net.presence_from_masked(ids[i]));
    stale_w.push_back(net.gather_from_flat(flat, ids[i]));
    model_bytes.push_back(net.submodel_bytes(msgs[i].mask));
    BandwidthTrace trace(
        static_cast<NetEnvironment>(i % kNumNetEnvironments), rng.fork());
    bandwidths.push_back(trace.next_bps());
  }
  const std::string ckpt = ctx.workdir + "/probe.ckpt";
  const std::string wal = ctx.workdir + "/probe.wal";
  std::filesystem::remove(wal);
  RoundJournal journal(wal, FaultPlan{});
  JournalFrame frame;
  frame.phase = 1;
  frame.record = job.records.back().canonical();
  frame.round = frame.record.round;

  std::vector<double> v;
  v.push_back(probe_us(20, [&](std::size_t i) {
    participant.train_step(msgs[i % k]);
  }));
  v.push_back(probe_us(200, [&](std::size_t i) {
    net.masked_param_ids(msgs[i % k].mask);
  }));
  v.push_back(probe_us(200, [&](std::size_t i) {
    net.gather_values(ids[i % k]);
  }));
  v.push_back(probe_us(200, [&](std::size_t i) {
    net.scatter_add_grads(ids[i % k], updates[i % k].grads);
  }));
  v.push_back(probe_us(100, [&](std::size_t i) {
    net.dense_from_masked(ids[i % k], updates[i % k].grads);
    net.presence_from_masked(ids[i % k]);
  }));
  v.push_back(probe_us(10, [&](std::size_t) {
    agg::aggregate(opts.aggregator, dense, presence);
  }));
  v.push_back(probe_us(100, [&](std::size_t i) {
    compensate_weight_gradient(updates[i % k].grads, msgs[i % k].values,
                               stale_w[i % k], opts.dc_lambda);
  }));
  v.push_back(probe_us(100, [&](std::size_t i) {
    codec_decode(codec_encode(msgs[i % k].values, opts.codec));
  }));
  v.push_back(probe_us(100, [&](std::size_t i) {
    UpdateMsg::deserialize(updates[i % k].serialize());
  }));
  v.push_back(probe_us(200, [&](std::size_t) {
    const std::vector<int> assignment =
        assign_models(model_bytes, bandwidths, opts.assign, rng);
    transmission_latency(model_bytes, bandwidths, assignment,
                         opts.assign == AssignStrategy::kAverageSize);
  }));
  v.push_back(probe_us(50, [&](std::size_t) {
    ArchPolicy copy = policy;
    AlphaPair grad = AlphaPair::zeros(copy.num_edges());
    for (std::size_t i = 0; i < k; ++i) {
      grad.add_scaled(copy.log_prob_grad(copy.sample(rng)),
                      1.0F / static_cast<float>(k));
    }
    copy.apply_gradient(grad);
  }));
  v.push_back(1e-3 * probe_us(10, [&](std::size_t) {
                write_checkpoint_file(ckpt, search.checkpoint());
              }));
  v.push_back(probe_us(100, [&](std::size_t) { journal.append(frame); }));
  FederatedSearch fresh(w.cfg, ctx.in.data.train, ctx.in.partition);
  v.push_back(1e-3 * probe_us(10, [&](std::size_t) {
                fresh.restore(read_checkpoint_file(ckpt));
              }));
  return v;
}

std::vector<Metric> layer_probes(Context& ctx, Job& job) {
  std::vector<Metric> out;
  const int batch = ctx.w.cfg.schedule.batch_size;
  std::vector<double> search_values;
  if (ctx.w.kind == Kind::kSearch) {
    Rng net_rng(ctx.w.cfg.seed);
    DiscreteNet derived(job.genotype, ctx.w.cfg.supernet, net_rng);
    net_probes(derived, ctx.in.data, batch, out);
    search_values = search_probes(ctx, job);
  } else {
    net_probes(*job.net, ctx.in.data, batch, out);
    search_values.assign(std::size(kSearchProbes), 0.0);
  }
  for (std::size_t i = 0; i < std::size(kSearchProbes); ++i) {
    out.push_back({kSearchProbes[i][0], search_values[i], kSearchProbes[i][1]});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics

// Per-round attribution from the profiler zones of the traced jobs.
void attribution_metrics(const Attribution& a, std::vector<Metric>& out) {
  double local_train = 0, conv = 0, nn_other = 0, nas = 0, aggregate = 0;
  double compensate = 0, prune = 0, transmit = 0, round_self = 0;
  double checkpoint = 0, top_level = 0;
  for (const auto& [path, z] : a.zones) {
    const auto incl = static_cast<double>(z.incl_ns);
    const auto excl = static_cast<double>(z.excl_ns);
    const std::string& n = z.name;
    if (z.depth == 0) top_level += incl;
    if (n == "local_train") local_train += incl;
    if (n == "nn.conv_fwd" || n == "nn.conv_bwd") {
      conv += excl;
    } else if (n.rfind("nn.", 0) == 0) {
      nn_other += excl;
    }
    if (n.rfind("nas.", 0) == 0) nas += excl;
    if (n == "aggregate") aggregate += incl;
    if (n == "compensate") compensate += incl;
    if (n == "prune") prune += incl;
    if (n == "transmit") transmit += incl;
    if (n == "round") round_self += excl;
    if (n == "checkpoint") checkpoint += incl;
  }
  const double rounds = std::max(1, a.rounds);
  const auto per_round_ms = [&](double ns) { return ns * 1e-6 / rounds; };
  out.push_back({"prof.local_train_ms", per_round_ms(local_train), "ms"});
  out.push_back({"prof.conv_ms", per_round_ms(conv), "ms"});
  out.push_back({"prof.nn_other_ms", per_round_ms(nn_other), "ms"});
  out.push_back({"prof.nas_ms", per_round_ms(nas), "ms"});
  out.push_back({"prof.aggregate_ms", per_round_ms(aggregate), "ms"});
  out.push_back({"prof.compensate_ms", per_round_ms(compensate), "ms"});
  out.push_back({"prof.prune_ms", per_round_ms(prune), "ms"});
  out.push_back({"prof.transmit_ms", per_round_ms(transmit), "ms"});
  out.push_back({"prof.round_self_ms", per_round_ms(round_self), "ms"});
  out.push_back({"prof.checkpoint_ms", per_round_ms(checkpoint), "ms"});
  out.push_back({"prof.conv_gflops",
                 conv > 0 ? static_cast<double>(a.conv_flops) / conv : 0.0,
                 "GFLOP/s"});
  out.push_back({"prof.alloc_mib_per_round",
                 static_cast<double>(a.alloc_bytes) / kMiB / rounds, "MiB"});
  const double wall_ns = 1e9 * a.wall_s;
  out.push_back({"prof.unattributed_pct",
                 wall_ns > 0 ? 100.0 * (wall_ns - top_level) / wall_ns : 0.0,
                 "%"});
}

// Exact counts of one job (every job of a run is identical).
void count_metrics(const Job& job, std::vector<Metric>& out) {
  std::uint64_t rejected = 0, dropped = 0, late = 0, stale = 0;
  std::uint64_t compensated = 0, partial = 0;
  std::vector<double> commit_s;
  for (const RoundRecord& r : job.records) {
    rejected += static_cast<std::uint64_t>(r.rejected);
    dropped += static_cast<std::uint64_t>(r.dropped);
    late += static_cast<std::uint64_t>(r.late);
    stale += static_cast<std::uint64_t>(r.stale_arrived);
    compensated += static_cast<std::uint64_t>(r.compensated);
    partial += r.partial_quorum ? 1 : 0;
    commit_s.push_back(r.commit_latency_s);
  }
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const double dispatched = n(job.dispatched);
  out.push_back({"fed.dispatched", dispatched, "count"});
  out.push_back({"fed.arrived", n(job.arrived), "count"});
  out.push_back({"fed.useful_ratio",
                 dispatched > 0 ? n(job.arrived) / dispatched : 0.0, "ratio"});
  out.push_back({"fed.rejected", n(rejected), "count"});
  out.push_back({"fed.dropped", n(dropped), "count"});
  out.push_back({"fed.late", n(late), "count"});
  out.push_back({"fed.fail_share",
                 dispatched > 0 ? n(rejected + dropped) / dispatched : 0.0,
                 "ratio"});
  out.push_back({"dc.stale_applied", n(stale), "count"});
  out.push_back({"dc.compensated", n(compensated), "count"});
  out.push_back({"fault.injected", n(job.faults.injected_total()), "count"});
  out.push_back({"fault.retransmits", n(job.faults.retransmits), "count"});
  out.push_back({"sim.partial_quorum_rounds", n(partial), "count"});
  out.push_back({"sim.commit_s_p50",
                 commit_s.empty() ? 0.0 : median(commit_s), "s"});
  out.push_back({"core.journal_frames", n(job.journal_frames), "count"});
  out.push_back({"core.replayed_rounds",
                 static_cast<double>(job.replayed_rounds), "count"});
}

std::vector<double> job_values(const Phase& p, double Job::*field) {
  std::vector<double> v;
  for (const Job& j : p.jobs) v.push_back(j.*field);
  return v;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---------------------------------------------------------------------------
// Runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  bool smoke = false;
  bool self_test = false;
  bool force_fail = false;
};

int finish(const Args& args, Checks& checks, long attempted, long failed,
           std::vector<Metric> metrics) {
  if (args.force_fail) checks.expect(false, "forced failure (--force-fail)");
  bool finite = true;
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      finite = false;
      m.value = 0.0;
    }
  }
  checks.expect(finite, "every metric is a finite number");
  Result r;
  r.correct = checks.failed() == 0;
  r.attempted = std::max(1L, attempted);
  r.failed = failed;
  r.metrics = std::move(metrics);
  std::printf("%s\n", to_json(r).c_str());
  return r.correct ? 0 : 1;
}

int run_benchmark(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, false);
  SpanLog spans;
  Checks checks;
  spans.set_run(w.name + "/seed" + std::to_string(args.seed) + "/setup");
  std::unique_ptr<Inputs> inputs;
  const Setup setup = measure_setup(w, spans, inputs);
  Context ctx{w, *inputs, args.workdir, spans, checks};
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  if (!args.trace) {
    spans.set_run(w.name + "/seed" + std::to_string(args.seed) + "/untraced");
    const Phase p = run_phase(ctx, args.seconds, nullptr);
    const Tail tail = tail_percentile(p.round_ms, 90);
    const Job& first = p.jobs.front();
    metrics = {
        {"setup_s", setup.setup_s, "s"},
        {"round_ms_p50", median(p.round_ms), "ms"},
        {"peak_rss_mib", static_cast<double>(obs::peak_rss_bytes()) / kMiB,
         "MiB"},
        {"bytes_per_round_kib", first.bytes_per_round / 1024.0, "KiB"},
        {"accuracy", first.accuracy, "ratio"},
    };
    // Job time and the round tail are reported, not gated: on a shared host
    // they swing with other tenants' load far more than the median round.
    std::printf("  %zu jobs of %d rounds, median job %.4g s; %zu timed "
                "rounds, p%d %.4g ms (%zu rounds beyond it)\n",
                p.jobs.size(), w.rounds, median(job_values(p, &Job::job_s)),
                p.round_ms.size(), tail.percentile, tail.value, tail.beyond);
    attempted = static_cast<long>(p.round_ms.size());
    failed = p.failed_rounds;
  } else {
    const std::string run = w.name + "/seed" + std::to_string(args.seed);
    spans.set_run(run + "/untraced");
    const Phase off = run_phase(ctx, 0.5 * args.seconds, nullptr);
    spans.set_run(run + "/traced");
    Attribution attr;
    set_tracing(true);
    Phase on = run_phase(ctx, 0.5 * args.seconds, &attr);
    set_tracing(false);
    checks.expect(on.jobs.front().digest == off.jobs.front().digest,
                  w.name + ": traced and untraced runs produce the same "
                           "RoundRecord digest");
    const double p50_off = median(off.round_ms);
    const double p50_on = median(on.round_ms);
    spans.set_run(run + "/probes");
    Job& last = on.jobs.back();
    metrics = {
        {"data.make_ms", setup.data_ms, "ms"},
        {"core.construct_ms", setup.construct_ms, "ms"},
        {"core.derive_ms", median(job_values(on, &Job::derive_ms)), "ms"},
        {"core.recover_ms", median(job_values(on, &Job::recover_ms)), "ms"},
    };
    const std::vector<Metric> probes = layer_probes(ctx, last);
    metrics.insert(metrics.end(), probes.begin(), probes.end());
    attribution_metrics(attr, metrics);
    metrics.push_back(
        {"trace_overhead_pct", 100.0 * (p50_on / p50_off - 1.0), "%"});
    count_metrics(on.jobs.front(), metrics);
    attempted = static_cast<long>(off.round_ms.size() + on.round_ms.size());
    failed = off.failed_rounds + on.failed_rounds;
  }
  print_metrics(metrics);
  spans.write_jsonl(args.workdir + "/spans.jsonl");
  return finish(args, checks, attempted, failed, std::move(metrics));
}

// Every workload for a handful of rounds, untraced and traced, with every
// output check except the quality floors (three rounds learn nothing).
int run_smoke(const Args& args) {
  Checks checks;
  long attempted = 0;
  long failed = 0;
  const Stopwatch clock;
  for (const char* name : kWorkloadNames) {
    const Workload w = make_workload(name, args.seed, true);
    const Inputs in = make_inputs(w);
    SpanLog spans;
    Context ctx{w, in, args.workdir, spans, checks};
    Attribution attr;
    const Phase off = run_phase(ctx, 0.0, nullptr);
    set_tracing(true);
    const Phase on = run_phase(ctx, 0.0, &attr);
    set_tracing(false);
    checks.expect(on.jobs.front().digest == off.jobs.front().digest,
                  w.name + ": traced and untraced digests are equal");
    attempted += static_cast<long>(off.round_ms.size() + on.round_ms.size());
    failed += off.failed_rounds + on.failed_rounds;
    std::printf("smoke %-14s %d rounds  %.2f s\n", name, w.rounds,
                off.jobs.front().job_s + on.jobs.front().job_s);
  }
  std::printf("smoke: %d checks, %d failed, %.1f s\n", checks.count(),
              checks.failed(), clock.elapsed_seconds());
  return finish(args, checks, attempted, failed,
                {{"smoke_s", clock.elapsed_seconds(), "s"}});
}

// The program's own arithmetic. Every value compared exactly below is a
// sample or an exact binary fraction, so == is the intended test.
int run_self_test() {
  Checks c;
  // fms-lint: allow(float-eq)
  c.expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  // fms-lint: allow(float-eq)
  c.expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  c.expect(std::isnan(median({})), "median of nothing is NaN");

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Tail t100 = tail_percentile(hundred, 90);
  // fms-lint: allow(float-eq)
  c.expect(t100.percentile == 90 && t100.value == 90.0 && t100.beyond == 10,
           "p90 of 100 samples has 10 beyond it");
  const std::vector<double> fifty(hundred.begin(), hundred.begin() + 50);
  const Tail t50 = tail_percentile(fifty, 90);
  // fms-lint: allow(float-eq)
  c.expect(t50.percentile == 80 && t50.value == 40.0 && t50.beyond == 10,
           "50 samples fall back to p80");
  const std::vector<double> few(hundred.begin(), hundred.begin() + 15);
  c.expect(tail_percentile(few, 90).percentile == 0,
           "15 samples qualify no percentile >= 50");

  std::vector<RoundRecord> recs(3);
  for (int i = 0; i < 3; ++i) {
    recs[static_cast<std::size_t>(i)].round = i;
    recs[static_cast<std::size_t>(i)].mean_reward = 0.25 * i;
  }
  const std::uint32_t d = record_digest(recs);
  std::vector<RoundRecord> health = recs;
  health[1].health = 2;
  health[1].health_trips = "reward_stall";
  c.expect(record_digest(recs) == d && record_digest(health) == d,
           "digest is stable and ignores the health fields");
  std::vector<RoundRecord> swapped = recs;
  std::swap(swapped[0], swapped[2]);
  std::vector<RoundRecord> changed = recs;
  changed[2].mean_reward = std::nextafter(0.5, 1.0);
  c.expect(record_digest(swapped) != d && record_digest(changed) != d,
           "digest sees record order and the last bit of a value");

  Result r;
  r.correct = true;
  r.attempted = 1234;
  r.failed = 7;
  r.metrics = {{"latency_ms", 1.0 / 3.0, "ms"},
               {"setup_s", 0.8127, "s"},
               {"rate", 6.02214076e23, "1/s"},
               {"share", -0.0, "%"}};
  const std::optional<Result> back = parse_result_json(to_json(r));
  bool same = back.has_value() && back->correct == r.correct &&
              back->attempted == r.attempted && back->failed == r.failed &&
              back->metrics.size() == r.metrics.size();
  for (std::size_t i = 0; same && i < r.metrics.size(); ++i) {
    same = back->metrics[i].name == r.metrics[i].name &&
           back->metrics[i].unit == r.metrics[i].unit &&
           back->metrics[i].value == r.metrics[i].value;
  }
  c.expect(same, "results JSON round-trips every digit");
  c.expect(!parse_result_json("{\"correct\": true}").has_value() &&
               !parse_result_json(to_json(r) + "x").has_value(),
           "reader rejects incomplete and trailing input");

  std::printf("self-test: %d checks, %d failed\n", c.count(), c.failed());
  return c.failed() == 0 ? 0 : 1;
}

const char* kUsage =
    "usage: fms_benchmark --workload W [--seed S] [--seconds T] "
    "[--trace 0|1] --workdir DIR [--force-fail]\n"
    "       fms_benchmark --smoke --workdir DIR [--force-fail]\n"
    "       fms_benchmark --self-test\n"
    "workloads: search_iid server_k50 hostile retrain_fixed\n";

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (arg == "--workdir" && has_value) {
      a.workdir = argv[++i];
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--self-test") {
      a.self_test = true;
    } else if (arg == "--force-fail") {
      a.force_fail = true;
    } else {
      return false;
    }
  }
  if (a.self_test) return true;
  if (a.workdir.empty() || a.seconds < 0.0) return false;
  return a.smoke || known_workload(a.workload);
}

}  // namespace
}  // namespace fms::e2e

int main(int argc, char** argv) {
  using namespace fms::e2e;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    if (args.self_test) return run_self_test();
    std::filesystem::create_directories(args.workdir);
    return args.smoke ? run_smoke(args) : run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fms_benchmark: %s\n", e.what());
    return 1;
  }
}
