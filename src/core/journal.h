// Write-ahead round journal — the durability layer between checkpoints.
//
// A crash between auto-checkpoints used to lose every committed round
// since the last `checkpoint_every` boundary. The journal closes that
// gap: after every committed round the coordinator appends one CRC32-
// framed frame carrying the round's outcome (RoundRecord), the RNG
// cursors, and the degradation-ladder position. Recovery loads the
// newest valid checkpoint, truncates any torn tail frame, and
// deterministically *re-executes* the journaled rounds — the frames are
// verification data, not state deltas, so replay is proven bit-identical
// against the pre-crash run rather than assumed.
//
// Frame format (after an 8-byte file header of magic + version):
//   [u32 payload length][u32 crc32(payload)][payload]
// where payload = JournalFrame::serialize(). The reader stops at the
// first frame that is short or fails CRC — the torn-tail rule: a torn
// frame and everything after it never happened (that round is lost from
// disk but re-executed deterministically on recovery).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/round_record.h"
#include "src/fault/fault.h"

namespace fms {

inline constexpr std::uint32_t kJournalMagic = 0x464d534a;  // "FMSJ"
inline constexpr std::uint32_t kJournalVersion = 1;

// One committed round, as journaled. Everything recovery needs to
// *verify* a deterministic replay: the canonical RoundRecord, both RNG
// cursor strings, and the degradation-ladder position after the round.
struct JournalFrame {
  std::uint8_t phase = 0;  // 0 = warmup, 1 = search
  int round = 0;
  RoundRecord record;            // canonical() form (health fields zeroed)
  std::string rng_cursor;        // Rng::save_state() after the round
  std::string staleness_cursor;  // staleness stream cursor after the round
  int degrade_mode = 0;          // ladder mode after the round
  int degrade_transitions = 0;   // cumulative ladder transitions

  // Frame persistence, both directions from one walk over the fields.
  std::vector<std::uint8_t> serialize() const;
  static JournalFrame deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& f);
};

// Writer-side ledger, surfaced in the CLI exit summary and as
// fms.journal.* counters.
struct JournalStats {
  std::uint64_t frames_written = 0;
  std::uint64_t eio_retries = 0;   // transient EIOs absorbed by retry
  std::uint64_t short_writes = 0;  // torn tails left by the fault channel
  std::uint64_t rotations = 0;     // journal -> journal.prev rotations
};

// Append-only journal writer with a tolerant static loader. Appends are
// flushed per frame, so a kill between appends is indistinguishable from
// a clean stop; the seeded disk-fault channel (FaultPlan disk_* keys)
// exercises the torn-tail and EIO paths deterministically.
class RoundJournal {
 public:
  // Opens (or creates) the journal at `path`. An existing file is
  // tolerant-loaded to find the valid prefix; a previous short write
  // leaves torn bytes at the tail, which the next append truncates away
  // (torn bytes therefore only ever live at the tail, never mid-file).
  RoundJournal(std::string path, const FaultPlan& plan);

  // Appends one frame. Consults the disk-fault channel when the plan
  // schedules disk faults: a transient EIO is retried once (counted), a
  // short write leaves only a prefix of the frame on disk (counted; the
  // round is lost from disk, not from memory).
  void append(const JournalFrame& frame);

  // Rotates the live journal to `<path>.prev` and starts a fresh one.
  // Called at the moment a checkpoint commits: the retained `.prev`
  // checkpoint generation stays covered by `<path>.prev` frames.
  void rotate();

  const std::string& path() const { return path_; }
  const JournalStats& stats() const { return stats_; }

  // Result of a tolerant load. `valid_bytes` is the byte offset of the
  // end of the last valid frame (the truncation point for a torn tail);
  // `torn_bytes` counts the bytes after it.
  struct LoadResult {
    bool header_valid = true;  // false: file exists but header is garbage
    std::vector<JournalFrame> frames;
    std::size_t valid_bytes = 0;
    std::size_t torn_bytes = 0;
  };

  // Loads every valid frame from `path`. Missing file -> empty result.
  // Never throws on corrupted input: the first invalid frame ends the
  // scan (torn-tail rule).
  static LoadResult load(const std::string& path);

  // Truncates the file at `path` to `size` bytes (the torn-tail repair).
  static void truncate_to(const std::string& path, std::size_t size);

 private:
  void write_header();

  std::string path_;
  FaultPlan plan_;
  FaultInjector faults_;
  JournalStats stats_;
  // End of the last fully-written frame; bytes past this are a torn tail
  // from a faulted append, repaired (truncated) before the next append.
  std::size_t good_size_ = 0;
};

}  // namespace fms
