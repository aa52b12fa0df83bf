//===- Calibrate.cpp - Host-speed calibration of the benchmark --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <latch>
#include <map>
#include <memory_resource>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr unsigned kStrings = 12000;
/// Map nodes (~80 bytes), the strings inside them (short, so inline) and
/// the sort vector fit with room to spare; overflowing is a bad_alloc.
constexpr size_t kArenaBytes = 2u << 20;

alignas(64) std::byte Arenas[kMaxCalibThreads][kArenaBytes];

/// Keeps the kernel's result observable so it is not optimized away.
std::atomic<uint64_t> Sink{0};

double cpuMs(clockid_t Clock) {
  timespec T;
  clock_gettime(Clock, &T);
  return double(T.tv_sec) * 1e3 + double(T.tv_nsec) / 1e6;
}

/// The kernel on arena \p Slot: wall time in ms, and this thread's CPU
/// time over the same span in \p CpuMs.
double kernel(unsigned Slot, double &CpuMs) {
  double Cpu0 = cpuMs(CLOCK_THREAD_CPUTIME_ID);
  auto T0 = std::chrono::steady_clock::now();
  std::pmr::monotonic_buffer_resource Arena(
      Arenas[Slot], kArenaBytes, std::pmr::null_memory_resource());
  uint64_t Sum = 0;
  {
    std::pmr::map<std::pmr::string, uint32_t> Map(&Arena);
    uint64_t X = 0x2545F4914F6CDD1Dull;
    char Buf[16];
    for (uint32_t I = 0; I < kStrings; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      unsigned Len = 6 + unsigned(X >> 61);
      uint64_t Bits = X;
      for (unsigned C = 0; C < Len; ++C, Bits >>= 5)
        Buf[C] = char('a' + (Bits & 15));
      Map.emplace(std::pmr::string(Buf, Len, &Arena), I);
    }
    std::pmr::vector<const std::pmr::string *> Keys(&Arena);
    Keys.reserve(Map.size());
    for (const auto &[K, V] : Map)
      Keys.push_back(&K);
    // Sort on the reversed strings, an order the map's does not give.
    std::sort(Keys.begin(), Keys.end(), [](const auto *A, const auto *B) {
      return std::lexicographical_compare(A->rbegin(), A->rend(), B->rbegin(),
                                          B->rend());
    });
    for (size_t I = 0; I < Keys.size(); I += 97)
      Sum = Sum * 31 + Map.at(*Keys[I]);
  }
  Sink.fetch_add(Sum, std::memory_order_relaxed);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  CpuMs = cpuMs(CLOCK_THREAD_CPUTIME_ID) - Cpu0;
  return Ms;
}

} // namespace

void reserveCalibrationArenas() {
  for (auto &A : Arenas)
    std::memset(A, 0, kArenaBytes);
}

std::string Calibrator::calibrate(unsigned Threads) {
  Threads = std::clamp(Threads, 1u, kMaxCalibThreads);
  std::vector<double> Ms(Threads), Cpu(Threads);
  // The CPU-time window opens once every helper thread has started and
  // closes before any exits, so thread start-up and exit stay out of it.
  std::latch Started(Threads), Finished(Threads);
  std::vector<std::thread> Helpers;
  for (unsigned T = 1; T < Threads; ++T)
    Helpers.emplace_back([&, T] {
      Started.arrive_and_wait();
      Ms[T] = kernel(T, Cpu[T]);
      Finished.count_down();
    });
  Started.arrive_and_wait();
  double Proc0 = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
  Ms[0] = kernel(0, Cpu[0]);
  Finished.arrive_and_wait();
  double ProcCpu = cpuMs(CLOCK_PROCESS_CPUTIME_ID) - Proc0;
  for (std::thread &H : Helpers)
    H.join();

  double Calibrating = 0;
  for (double C : Cpu)
    Calibrating += C;
  double Other = ProcCpu - Calibrating;
  // Waking the threads and the clock reads cost microseconds; a program
  // thread still running costs milliseconds.
  double Allowance = 0.5 + 0.02 * Calibrating;
  if (Other > Allowance)
    return "calibration overlapped " + std::to_string(Other) +
           " ms of program CPU time (allowed " + std::to_string(Allowance) +
           " ms): a program thread was still busy";
  Samples.insert(Samples.end(), Ms.begin(), Ms.end());
  return std::string();
}

double Calibrator::medianMs() const {
  if (Samples.empty())
    return kCalibRefMs;
  std::vector<double> V = Samples;
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  double Hi = V[V.size() / 2];
  if (V.size() % 2)
    return Hi;
  return (*std::max_element(V.begin(), V.begin() + V.size() / 2) + Hi) / 2;
}

} // namespace perfbench
