// Persistent per-client registry: the server-side record of every
// participant that survives across membership changes.
//
// The churn model (src/sim/churn.h) decides *who is live*; the registry
// remembers *who everyone is* — device profile, membership transitions,
// latency momentum, and staleness history — so a client that leaves and
// rejoins mid-search is the same client, not a stranger. This is also the
// registry groundwork the cohort-sampling roadmap item needs: a compact
// per-client state store the round loop can consult without holding any
// participant's dense update.
//
// The registry is purely observational bookkeeping: it draws no RNG and
// contributes no float op to the search trajectory, so keeping it always
// on preserves the bit-identity contracts of churn-free runs. Its state
// rides in the checkpoint runtime blob so a resumed search continues the
// same membership history.
#pragma once

#include <cstdint>
#include <vector>

#include "src/sim/churn.h"
#include "src/sim/devices.h"

namespace fms {

class ByteReader;  // src/common/serialize.h
class ByteWriter;

struct ClientInfo {
  int id = 0;
  // Hardware profile (cycled over the known device set, matching the
  // network-environment cycling in FederatedSearch). Re-derived from the
  // id, never serialized.
  DeviceProfile device;
  bool live = false;           // membership as of the last begin_round
  bool ever_seen = false;      // has been live at least once
  int first_live_round = -1;
  int last_live_round = -1;
  int joins = 0;    // absent -> live transitions after first appearance
  int leaves = 0;   // live -> absent transitions
  int rounds_live = 0;
  int rounds_absent = 0;
  std::uint64_t dispatched = 0;      // sub-models shipped to this client
  std::uint64_t updates_applied = 0;
  std::uint64_t stale_updates = 0;   // applied with tau > 0
  std::uint64_t tau_sum = 0;         // staleness history (sum over applied)
  int max_tau = 0;
  // Latency momentum: EMA of the client's modeled round time, the per-
  // client signal cohort selection and capacity planning key on.
  double latency_ema = 0.0;
  bool latency_ema_set = false;
};

class ClientRegistry {
 public:
  // One slot per participant; device profiles cycle over the known set.
  explicit ClientRegistry(int num_participants = 0);

  int size() const { return static_cast<int>(clients_.size()); }
  const ClientInfo& info(int client) const;
  const std::vector<ClientInfo>& clients() const { return clients_; }

  // Membership delta of one round, as seen by the round loop.
  struct RoundMembership {
    int live = 0;
    int joined = 0;  // absent -> live this round (rejoins + late joins)
    int left = 0;    // live -> absent this round
    std::vector<char> live_mask;  // size() entries
    // Live now, absent last round, and seen before: the clients whose
    // first update back is treated as stale by the soft-sync path.
    std::vector<char> rejoined;
  };

  // Advances membership to `round` under the churn schedule and returns
  // the delta. The initial live set is a baseline, not a join wave: a
  // churn-free run reports joined == left == 0 every round.
  RoundMembership begin_round(const ChurnModel& churn, int round);

  // Bookkeeping hooks (observational only).
  void note_dispatch(int client, double latency_s);
  void note_applied(int client, int tau);

  std::uint64_t total_joins() const;
  std::uint64_t total_leaves() const;

  void serialize(ByteWriter& w) const;
  void restore(ByteReader& r);

 private:
  template <class Io, class Self>
  static void walk(Io& io, Self& reg);

  std::vector<ClientInfo> clients_;
  bool initialized_ = false;  // first begin_round seeds the baseline
};

}  // namespace fms
