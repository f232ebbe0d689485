// Suppression coverage for every code-side check, in both the
// comment-line-above and same-line annotation forms.
#include <cstdint>

constexpr std::uint64_t kSaltOne = 0x21;
// fms-analyze: allow(salt-collision) -- intentional shared stream
constexpr std::uint64_t kSaltTwo = 0x21;  // fms-analyze: allow(salt-unregistered)

void emit(Registry& reg) {
  // fms-analyze: allow(metric-undocumented) -- experiment-local key
  reg.counter("fms.tmp.count").add(1);
}

const char* kDetectorNames[] = {
    "experimental",  // fms-analyze: allow(detector-undocumented)
};
