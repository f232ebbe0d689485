// Fully consistent mini-tree: registry and the documented
// metric/detector tables all agree.
#include <cstdint>

constexpr std::uint64_t kSaltClean = 0x99;

void emit(Registry& reg) {
  reg.counter("fms.clean.count").add(1);
}

const char* kDetectorNames[] = {"steady"};
