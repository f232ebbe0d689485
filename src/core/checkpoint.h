// Checkpointing: persist and restore the search state (supernet weights,
// architecture parameters, baseline) and searched genotypes. A federated
// search that runs for thousands of rounds must survive server restarts;
// this module gives the orchestrator durable state with format/version
// and shape validation on load.
// Writes are crash-atomic: serialize -> CRC trailer -> `<path>.tmp` ->
// flush -> rename the old primary to `<path>.prev` -> rename the tmp into
// place. A kill anywhere leaves either the old file, the new file, or
// both generations intact — never a torn primary — and restore falls back
// to `.prev` when the primary fails CRC or parse.
#pragma once

#include <string>

#include "src/fault/fault.h"
#include "src/nas/genotype.h"
#include "src/nas/supernet.h"
#include "src/rl/policy.h"

namespace fms {

// Version history:
//   1 — theta + alpha + baseline + round (weights-only snapshot).
//   2 — adds the REINFORCE baseline's initialization flag and an opaque
//       runtime-state blob (optimizer momentum, moving-average window,
//       delay-compensation memory pool, in-flight arrivals, every RNG
//       stream) produced by FederatedSearch::checkpoint(), enabling
//       bit-identical crash-recovery. Version-1 files still load; their
//       runtime state is simply empty (weights-only resume).
inline constexpr std::uint32_t kCheckpointVersion = 2;

struct SearchCheckpoint {
  std::uint32_t version = kCheckpointVersion;
  int num_edges = 0;
  int num_nodes = 0;
  std::vector<float> theta;  // flat supernet values
  AlphaPair alpha;
  double baseline = 0.0;
  int round = 0;
  // --- version >= 2 ---
  bool baseline_initialized = false;
  std::vector<std::uint8_t> runtime_state;  // empty: weights-only checkpoint

  bool has_runtime_state() const { return !runtime_state.empty(); }

  std::vector<std::uint8_t> serialize() const;
  static SearchCheckpoint deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& c);
};

SearchCheckpoint make_checkpoint(Supernet& supernet, const ArchPolicy& policy,
                                 int num_nodes, int round);

// Throws CheckError on shape mismatch (wrong supernet config / edge count).
void restore_checkpoint(const SearchCheckpoint& ckpt, Supernet& supernet,
                        ArchPolicy& policy);

// Atomic write with `.prev` rotation (see file header). When `faults` is
// non-null and its plan schedules disk faults, the write is subjected to
// the seeded disk-fault channel keyed by `op_id` (the round): transient
// EIO (retried), short write of the tmp file (rotation aborted, primary
// untouched), or post-CRC corruption (caught on read, `.prev` fallback).
void write_checkpoint_file(const std::string& path,
                           const SearchCheckpoint& ckpt,
                           const FaultInjector* faults = nullptr,
                           std::uint64_t op_id = 0);
SearchCheckpoint read_checkpoint_file(const std::string& path);

// Restore with `.prev` fallback: tries the primary first; on CRC/parse
// failure loads `<path>.prev` instead. Throws only when both generations
// are unreadable. `used_prev` and `primary_error` let the caller surface
// the fallback (flight-recorder event + counter).
struct CheckpointLoad {
  SearchCheckpoint ckpt;
  bool used_prev = false;
  std::string primary_error;  // empty when the primary loaded cleanly
};
CheckpointLoad read_checkpoint_file_with_fallback(const std::string& path);

// Genotype persistence (binary, versioned). Same atomic write as
// checkpoints; the previous generation stays at `<path>.prev`.
std::vector<std::uint8_t> serialize_genotype(const Genotype& g);
Genotype deserialize_genotype(const std::vector<std::uint8_t>& bytes);
void write_genotype_file(const std::string& path, const Genotype& g,
                         const FaultInjector* faults = nullptr,
                         std::uint64_t op_id = 0);
Genotype read_genotype_file(const std::string& path);

}  // namespace fms
