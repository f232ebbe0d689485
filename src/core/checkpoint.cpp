#include "src/core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/common/serialize.h"
#include "src/obs/profile.h"

namespace fms {
namespace {

constexpr std::uint32_t kCheckpointMagic = 0x464d5343;  // "FMSC"
constexpr std::uint32_t kGenotypeMagic = 0x464d5347;    // "FMSG"
// File-layer CRC trailer appended to every durable file:
//   [u32 kTrailerMagic][u32 crc32(payload)]
// Kept at the file layer (not inside the serialized payload) so the
// checkpoint byte format — and kCheckpointVersion — stay unchanged, and
// legacy trailer-less files still load (the reader sniffs the magic).
constexpr std::uint32_t kTrailerMagic = 0x43524331;  // "CRC1"
constexpr std::size_t kTrailerBytes = 2 * sizeof(std::uint32_t);

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  FMS_CHECK_MSG(f.good(), "cannot open " << path);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f),
                                   std::istreambuf_iterator<char>());
}

// Reads a durable file and verifies + strips its CRC trailer when one is
// present. Throws CheckError on CRC mismatch — the signal that flips the
// caller onto the `.prev` generation.
std::vector<std::uint8_t> read_durable_file(const std::string& path) {
  std::vector<std::uint8_t> bytes = read_file(path);
  if (bytes.size() < kTrailerBytes) return bytes;
  std::uint32_t magic = 0;
  std::uint32_t crc = 0;
  const std::uint8_t* tail = bytes.data() + bytes.size() - kTrailerBytes;
  std::memcpy(&magic, tail, sizeof(magic));
  std::memcpy(&crc, tail + sizeof(magic), sizeof(crc));
  if (magic != kTrailerMagic) return bytes;  // legacy trailer-less file
  const std::size_t payload = bytes.size() - kTrailerBytes;
  FMS_CHECK_MSG(crc32(bytes.data(), payload) == crc,
                "CRC trailer mismatch in " << path);
  bytes.resize(payload);
  return bytes;
}

// Crash-atomic durable write: payload + CRC trailer to `<path>.tmp`,
// flush, rename primary -> `<path>.prev`, rename tmp into place. The
// optional disk-fault channel models the three failure modes the read
// path must survive: transient EIO (retried once, the retry lands),
// short write (torn tmp file, rotation aborted — exactly a kill
// mid-write), and post-CRC corruption (poisoned primary, caught on read).
void write_durable_file(const std::string& path,
                        std::vector<std::uint8_t> bytes,
                        const FaultInjector* faults, DiskOp op,
                        std::uint64_t op_id) {
  ByteWriter trailer;
  trailer(kTrailerMagic, crc32(bytes));
  const auto& t = trailer.bytes();
  bytes.insert(bytes.end(), t.begin(), t.end());

  std::size_t n = bytes.size();
  bool short_write = false;
  if (faults != nullptr && faults->plan().has_disk()) {
    const DiskOutcome out = faults->disk_outcome(op, op_id);
    if (out.corrupt) {
      // Bits flip after the trailer was stamped, so the corruption is
      // detectable on read no matter where it lands.
      faults->corrupt_bytes(bytes, op_id);
    }
    if (out.short_write) {
      n = std::max<std::size_t>(
          1, std::min(n - 1, static_cast<std::size_t>(
                                 out.keep_fraction *
                                 static_cast<double>(bytes.size()))));
      short_write = true;
    }
    // out.eio: transient EIO on open/flush, absorbed by a single retry —
    // no observable file effect.
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    FMS_CHECK_MSG(f.good(), "cannot open " << tmp);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
    f.flush();
    FMS_CHECK_MSG(f.good(), "write failed for " << tmp);
  }
  // A short write models a kill mid-write: the torn bytes live only in
  // the tmp file and the rotation never happens — primary and `.prev`
  // are untouched, which is the whole point of the tmp+rename protocol.
  if (short_write) return;

  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, path + ".prev", ec);
    FMS_CHECK_MSG(!ec, "rotation to .prev failed for " << path);
  }
  std::filesystem::rename(tmp, path, ec);
  FMS_CHECK_MSG(!ec, "rename into place failed for " << path);
}

template <class Io, class G>
void walk_genotype(Io& io, G& g) {
  io.magic(kGenotypeMagic, "not a genotype file");
  io(g.nodes);
  for (auto* edges : {&g.normal, &g.reduce}) {
    io.each(*edges, [&io](auto& e) {
      io(e.input, as<int>(e.op));
      if constexpr (Io::kReading) {
        FMS_CHECK_MSG(static_cast<int>(e.op) >= 0 &&
                          static_cast<int>(e.op) < kNumOps,
                      "corrupt genotype op");
      }
    });
  }
}

}  // namespace

template <class Io, class Self>
void SearchCheckpoint::walk(Io& io, Self& c) {
  io.magic(kCheckpointMagic, "not a checkpoint file");
  io(c.version);
  if constexpr (Io::kReading) {
    FMS_CHECK_MSG(c.version >= 1 && c.version <= kCheckpointVersion,
                  "unsupported checkpoint version " << c.version);
  }
  io(c.num_edges, c.num_nodes, c.round, c.baseline);
  if constexpr (Io::kReading) {
    FMS_CHECK_MSG(c.num_edges >= 0 && c.num_nodes >= 0,
                  "corrupt checkpoint shape: " << c.num_edges << " edges, "
                                               << c.num_nodes << " nodes");
  }
  std::vector<float> alpha = c.alpha.flatten();  // empty when reading
  io(c.theta, alpha);
  if constexpr (Io::kReading) {
    c.alpha = AlphaPair::unflatten(alpha, c.num_edges);
  }
  if (c.version >= 2) {
    io(as<std::uint8_t>(c.baseline_initialized), c.runtime_state);
  } else if constexpr (Io::kReading) {
    // v1 files predate the flag; a non-zero baseline implies it was live.
    // fms-lint: allow(float-eq) -- 0.0 is the exact serialized default
    c.baseline_initialized = c.baseline != 0.0;
  }
}

std::vector<std::uint8_t> SearchCheckpoint::serialize() const {
  FMS_OP("ckpt.serialize", {});
  ByteWriter w;
  walk(w, *this);
  return w.take();
}

SearchCheckpoint SearchCheckpoint::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  FMS_OP("ckpt.restore", {});
  ByteReader r(bytes);
  SearchCheckpoint ckpt;
  walk(r, ckpt);
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in checkpoint");
  return ckpt;
}

SearchCheckpoint make_checkpoint(Supernet& supernet, const ArchPolicy& policy,
                                 int num_nodes, int round) {
  SearchCheckpoint ckpt;
  ckpt.num_edges = policy.num_edges();
  ckpt.num_nodes = num_nodes;
  ckpt.theta = supernet.flat_values();
  ckpt.alpha = policy.alpha();
  ckpt.baseline = policy.baseline();
  ckpt.round = round;
  return ckpt;
}

void restore_checkpoint(const SearchCheckpoint& ckpt, Supernet& supernet,
                        ArchPolicy& policy) {
  FMS_CHECK_MSG(ckpt.theta.size() == supernet.param_count(),
                "checkpoint theta size " << ckpt.theta.size()
                                         << " != supernet param count "
                                         << supernet.param_count());
  FMS_CHECK_MSG(ckpt.num_edges == policy.num_edges(),
                "checkpoint edge count mismatch");
  supernet.set_flat_values(ckpt.theta);
  policy.set_alpha(ckpt.alpha);
}

void write_checkpoint_file(const std::string& path,
                           const SearchCheckpoint& ckpt,
                           const FaultInjector* faults, std::uint64_t op_id) {
  write_durable_file(path, ckpt.serialize(), faults, DiskOp::kCheckpointWrite,
                     op_id);
}

SearchCheckpoint read_checkpoint_file(const std::string& path) {
  return SearchCheckpoint::deserialize(read_durable_file(path));
}

CheckpointLoad read_checkpoint_file_with_fallback(const std::string& path) {
  CheckpointLoad load;
  try {
    load.ckpt = read_checkpoint_file(path);
    return load;
  } catch (const CheckError& e) {
    load.primary_error = e.what();
  }
  load.ckpt = read_checkpoint_file(path + ".prev");
  load.used_prev = true;
  return load;
}

std::vector<std::uint8_t> serialize_genotype(const Genotype& g) {
  ByteWriter w;
  walk_genotype(w, g);
  return w.take();
}

Genotype deserialize_genotype(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  Genotype g;
  walk_genotype(r, g);
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in genotype");
  FMS_CHECK_MSG(g.normal.size() == static_cast<std::size_t>(2 * g.nodes) &&
                    g.reduce.size() == g.normal.size(),
                "corrupt genotype structure");
  return g;
}

void write_genotype_file(const std::string& path, const Genotype& g,
                         const FaultInjector* faults, std::uint64_t op_id) {
  write_durable_file(path, serialize_genotype(g), faults,
                     DiskOp::kGenotypeWrite, op_id);
}

Genotype read_genotype_file(const std::string& path) {
  return deserialize_genotype(read_durable_file(path));
}

}  // namespace fms
