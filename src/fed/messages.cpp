#include "src/fed/messages.h"

#include "src/obs/work.h"

namespace fms {
namespace {

// A mask travels as int8 op ids, one per edge.
template <class Io, class M>
void walk_mask(Io& io, M& m) {
  io(as<std::vector<std::int8_t>>(m.normal),
     as<std::vector<std::int8_t>>(m.reduce));
}

}  // namespace

template <class Io, class Self>
void SubmodelMsg::walk(Io& io, Self& m) {
  io(m.round);
  walk_mask(io, m.mask);
  io(m.values);
}

std::vector<std::uint8_t> SubmodelMsg::serialize() const {
  obs::ScopedOp op("fed.encode");
  ByteWriter w;
  walk(w, *this);
  std::vector<std::uint8_t> out = w.take();
  op.add([&] { return obs::codec_cost(out.size()); });
  return out;
}

SubmodelMsg SubmodelMsg::deserialize(const std::vector<std::uint8_t>& bytes) {
  FMS_OP("fed.decode", obs::codec_cost(bytes.size()));
  ByteReader r(bytes);
  SubmodelMsg msg;
  walk(r, msg);
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in SubmodelMsg");
  return msg;
}

template <class Io, class Self>
void UpdateMsg::walk(Io& io, Self& m) {
  io(m.round, m.participant, m.reward, m.loss);
  walk_mask(io, m.mask);
  io(m.grads);
}

std::vector<std::uint8_t> UpdateMsg::serialize() const {
  obs::ScopedOp op("fed.encode");
  ByteWriter w;
  walk(w, *this);
  std::vector<std::uint8_t> out = w.take();
  op.add([&] { return obs::codec_cost(out.size()); });
  return out;
}

UpdateMsg UpdateMsg::deserialize(const std::vector<std::uint8_t>& bytes) {
  FMS_OP("fed.decode", obs::codec_cost(bytes.size()));
  ByteReader r(bytes);
  UpdateMsg msg;
  walk(r, msg);
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in UpdateMsg");
  return msg;
}

}  // namespace fms
