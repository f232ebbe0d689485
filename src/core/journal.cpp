#include "src/core/journal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/common/check.h"
#include "src/common/serialize.h"

namespace fms {
namespace {

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FMS_CHECK_MSG(in.good(), "cannot open file: " << path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

}  // namespace

template <class Io, class Self>
void JournalFrame::walk(Io& io, Self& f) {
  io(f.phase, f.round, f.record, f.rng_cursor, f.staleness_cursor,
     f.degrade_mode, f.degrade_transitions);
}

std::vector<std::uint8_t> JournalFrame::serialize() const {
  ByteWriter w;
  walk(w, *this);
  return w.take();
}

JournalFrame JournalFrame::deserialize(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  JournalFrame f;
  walk(r, f);
  FMS_CHECK_MSG(r.exhausted(), "journal frame has trailing bytes");
  return f;
}

RoundJournal::RoundJournal(std::string path, const FaultPlan& plan)
    : path_(std::move(path)), plan_(plan), faults_(plan, 1) {
  std::error_code ec;
  if (std::filesystem::exists(path_, ec)) {
    // Re-opening after a crash or a faulted append: find the valid prefix
    // so new frames land after the last good one, never after torn bytes.
    const LoadResult existing = load(path_);
    FMS_CHECK_MSG(existing.header_valid,
                  "journal header is corrupt: " << path_);
    good_size_ = existing.valid_bytes;
  } else {
    write_header();
  }
}

void RoundJournal::write_header() {
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  FMS_CHECK_MSG(out.good(), "cannot create journal: " << path_);
  out.write(reinterpret_cast<const char*>(&kJournalMagic),
            sizeof(kJournalMagic));
  out.write(reinterpret_cast<const char*>(&kJournalVersion),
            sizeof(kJournalVersion));
  out.flush();
  FMS_CHECK_MSG(out.good(), "journal header write failed: " << path_);
  good_size_ = sizeof(kJournalMagic) + sizeof(kJournalVersion);
}

void RoundJournal::append(const JournalFrame& frame) {
  std::vector<std::uint8_t> bytes;
  append_crc_frame(bytes, frame.serialize());

  std::size_t n = bytes.size();
  bool short_write = false;
  if (plan_.has_disk()) {
    DiskOutcome out = faults_.disk_outcome(
        DiskOp::kJournalAppend, static_cast<std::uint64_t>(frame.round));
    if (out.eio) {
      // Transient EIO on open/flush: the writer retries once and the
      // retry lands, so the only observable effect is the counter.
      ++stats_.eio_retries;
    }
    if (out.short_write) {
      // Torn tail: only a prefix of the frame reaches disk. Keep at
      // least the write observable (>= 1 byte) and strictly short.
      n = std::max<std::size_t>(
          1, std::min(n - 1, static_cast<std::size_t>(
                                 out.keep_fraction *
                                 static_cast<double>(bytes.size()))));
      short_write = true;
    }
  }

  // Repair first: a previous short write left torn bytes past good_size_.
  // Truncating here keeps the invariant that torn bytes only ever sit at
  // the file tail — the tolerant reader then sees a clean prefix.
  std::error_code ec;
  const auto actual = std::filesystem::file_size(path_, ec);
  if (!ec && actual > good_size_) {
    std::filesystem::resize_file(path_, good_size_, ec);
    FMS_CHECK_MSG(!ec, "journal tail repair failed: " << path_);
  }

  std::ofstream out(path_, std::ios::binary | std::ios::app);
  FMS_CHECK_MSG(out.good(), "cannot open journal for append: " << path_);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
  out.flush();
  FMS_CHECK_MSG(out.good(), "journal append failed: " << path_);

  if (short_write) {
    ++stats_.short_writes;
    // good_size_ stays put: the partial frame is torn tail, repaired on
    // the next append (or truncated by recovery).
  } else {
    good_size_ += n;
    ++stats_.frames_written;
  }
}

void RoundJournal::rotate() {
  std::error_code ec;
  std::filesystem::rename(path_, path_ + ".prev", ec);
  FMS_CHECK_MSG(!ec, "journal rotation failed: " << path_);
  write_header();
  ++stats_.rotations;
}

RoundJournal::LoadResult RoundJournal::load(const std::string& path) {
  LoadResult result;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return result;
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  constexpr std::size_t kHeaderBytes =
      sizeof(kJournalMagic) + sizeof(kJournalVersion);
  if (bytes.size() < kHeaderBytes) {
    result.header_valid = bytes.empty();
    result.torn_bytes = bytes.size();
    return result;
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
  if (magic != kJournalMagic || version != kJournalVersion) {
    result.header_valid = false;
    result.torn_bytes = bytes.size();
    return result;
  }
  std::size_t pos = kHeaderBytes;
  std::vector<std::uint8_t> payload;
  while (true) {
    const std::size_t frame_start = pos;
    if (!next_crc_frame(bytes, pos, &payload)) break;
    try {
      result.frames.push_back(JournalFrame::deserialize(payload));
    } catch (const CheckError&) {
      // CRC-valid but semantically malformed (e.g. a frame written by a
      // newer field layout): stop here, same as a torn tail, and count
      // the bad frame as torn rather than valid.
      pos = frame_start;
      break;
    }
  }
  result.valid_bytes = pos;
  result.torn_bytes = bytes.size() - pos;
  return result;
}

void RoundJournal::truncate_to(const std::string& path, std::size_t size) {
  std::error_code ec;
  std::filesystem::resize_file(path, size, ec);
  FMS_CHECK_MSG(!ec, "journal truncation failed: " << path);
}

}  // namespace fms
