#include "src/fed/registry.h"

#include "src/common/check.h"
#include "src/common/serialize.h"

namespace fms {
namespace {

constexpr double kLatencyEmaBeta = 0.8;  // weight on the running estimate

DeviceProfile device_for(int id) {
  // Heterogeneous fleet groundwork: clients cycle through the known
  // device set the same way they cycle through network environments.
  return id % 2 == 0 ? gtx_1080ti() : jetson_tx2();
}

}  // namespace

ClientRegistry::ClientRegistry(int num_participants) {
  clients_.resize(static_cast<std::size_t>(num_participants));
  for (int i = 0; i < num_participants; ++i) {
    clients_[static_cast<std::size_t>(i)].id = i;
    clients_[static_cast<std::size_t>(i)].device = device_for(i);
  }
}

const ClientInfo& ClientRegistry::info(int client) const {
  FMS_CHECK_MSG(client >= 0 && client < size(),
                "registry has no client " << client);
  return clients_[static_cast<std::size_t>(client)];
}

ClientRegistry::RoundMembership ClientRegistry::begin_round(
    const ChurnModel& churn, int round) {
  RoundMembership mem;
  mem.live_mask.assign(clients_.size(), 0);
  mem.rejoined.assign(clients_.size(), 0);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ClientInfo& c = clients_[i];
    const bool now = churn.is_live(c.id, round);
    if (now) {
      mem.live_mask[i] = 1;
      ++mem.live;
      ++c.rounds_live;
      if (!c.live) {
        if (initialized_ && c.ever_seen) {
          // A true rejoin: this client's first update back trained
          // against the state it last saw and is treated as stale.
          mem.rejoined[i] = 1;
        }
        if (initialized_) ++mem.joined;
        if (c.ever_seen) ++c.joins;
      }
      if (!c.ever_seen) {
        c.ever_seen = true;
        c.first_live_round = round;
      }
      c.last_live_round = round;
    } else {
      ++c.rounds_absent;
      if (c.live) {
        ++mem.left;
        ++c.leaves;
      }
    }
    c.live = now;
  }
  initialized_ = true;
  return mem;
}

void ClientRegistry::note_dispatch(int client, double latency_s) {
  ClientInfo& c = clients_[static_cast<std::size_t>(client)];
  ++c.dispatched;
  if (c.latency_ema_set) {
    c.latency_ema =
        kLatencyEmaBeta * c.latency_ema + (1.0 - kLatencyEmaBeta) * latency_s;
  } else {
    c.latency_ema = latency_s;
    c.latency_ema_set = true;
  }
}

void ClientRegistry::note_applied(int client, int tau) {
  ClientInfo& c = clients_[static_cast<std::size_t>(client)];
  ++c.updates_applied;
  if (tau > 0) {
    ++c.stale_updates;
    c.tau_sum += static_cast<std::uint64_t>(tau);
  }
  if (tau > c.max_tau) c.max_tau = tau;
}

std::uint64_t ClientRegistry::total_joins() const {
  std::uint64_t n = 0;
  for (const ClientInfo& c : clients_) n += static_cast<std::uint64_t>(c.joins);
  return n;
}

std::uint64_t ClientRegistry::total_leaves() const {
  std::uint64_t n = 0;
  for (const ClientInfo& c : clients_) {
    n += static_cast<std::uint64_t>(c.leaves);
  }
  return n;
}

template <class Io, class Self>
void ClientRegistry::walk(Io& io, Self& reg) {
  io(as<std::uint8_t>(reg.initialized_));
  io.each_fixed(reg.clients_, "registry clients", [&io](auto& c) {
    io(as<std::uint8_t>(c.live), as<std::uint8_t>(c.ever_seen),
       c.first_live_round, c.last_live_round, c.joins, c.leaves,
       c.rounds_live, c.rounds_absent, c.dispatched, c.updates_applied,
       c.stale_updates, c.tau_sum, c.max_tau, c.latency_ema,
       as<std::uint8_t>(c.latency_ema_set));
  });
}

void ClientRegistry::serialize(ByteWriter& w) const { walk(w, *this); }
void ClientRegistry::restore(ByteReader& r) { walk(r, *this); }

}  // namespace fms
