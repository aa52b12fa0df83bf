//===- Nesting.cpp - Verification time nested in rule application -*- C++ -*-=//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "Nesting.h"

#include <atomic>
#include <chrono>
#include <vector>

using extra::obs::Histogram;

namespace perfbench {
namespace {

std::atomic<Histogram *> WatchedApply{nullptr};
std::atomic<Histogram *> WatchedVerify{nullptr};
std::atomic<uint64_t> NestedNs{0};

/// A verification sample not yet known to be nested or not.
struct Pending {
  uint64_t EndNs;
  uint64_t Ns;
};
thread_local std::vector<Pending> PendingVerify;

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

} // namespace

void watchNesting(Histogram *Apply, Histogram *Verify) {
  WatchedApply.store(Apply);
  WatchedVerify.store(Verify);
}

uint64_t nestedVerifyNs() { return NestedNs.load(); }

} // namespace perfbench

// obs::Histogram::record(uint64_t): the member function's ABI is that of
// a free function taking the object first.
extern "C" void __real__ZN5extra3obs9Histogram6recordEm(Histogram *H,
                                                        uint64_t Sample);

extern "C" void __wrap__ZN5extra3obs9Histogram6recordEm(Histogram *H,
                                                        uint64_t Sample) {
  using namespace perfbench;
  if (H == WatchedVerify.load(std::memory_order_relaxed)) {
    PendingVerify.push_back({nowNs(), Sample});
  } else if (H == WatchedApply.load(std::memory_order_relaxed) &&
             !PendingVerify.empty()) {
    // This application ran over [now - Sample, now]; a pending
    // verification that ended inside it was nested. Any earlier one ran
    // between applications, and no later application can contain it.
    uint64_t Start = nowNs() - Sample;
    uint64_t Nested = 0;
    for (const Pending &P : PendingVerify)
      if (P.EndNs >= Start)
        Nested += P.Ns;
    NestedNs.fetch_add(Nested, std::memory_order_relaxed);
    PendingVerify.clear();
  }
  __real__ZN5extra3obs9Histogram6recordEm(H, Sample);
}
