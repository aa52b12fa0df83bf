//===- Calibrate.h - Host-speed calibration of the benchmark ----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host normalization. The speed of a shared virtual machine drifts from
/// minute to minute, by as much as the changes the benchmark should see,
/// and thread CPU time drifts with it. So the benchmark times one fixed
/// kernel of its own beside the program and reports every timing as
///
///     t * kCalibRefMs / C_run
///
/// where C_run is the median kernel time over the run: seconds at the
/// reference host's speed. A workload whose times move more steeply than
/// the kernel's with the host's state raises the factor to a measured
/// power k (Workload::hostElasticity): t * (kCalibRefMs / C_run)^k.
///
/// The kernel builds an ordered map of 12k short strings and sorts them —
/// pointer-heavy, cache-missing, branchy work shaped like the searcher's
/// own. (A tight ALU loop or a pointer chase tracked the searcher's drift
/// far worse.) It allocates only from an arena reserved and touched
/// before any program code runs, and calls no program code, so no change
/// to src/ can speed it up, and it adds a constant to peak RSS.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median kernel time on the reference host (a 4-vCPU KVM guest, one
/// thread calibrating), in ms.
/// Fixed: changing it rescales every timing of the benchmark.
constexpr double kCalibRefMs = 7.5;

/// Most threads that calibrate at once (the widest pass).
constexpr unsigned kMaxCalibThreads = 2;

/// Reserves and touches the kernel arenas. Call first thing in main().
void reserveCalibrationArenas();

class Calibrator {
public:
  /// Runs the kernel once on each of \p Threads threads at the same
  /// time and keeps every thread's kernel time as a sample. Returns an
  /// empty string, or why the samples were dropped: CPU time the process
  /// spent outside the calibrating threads (a program thread still busy)
  /// beyond a small allowance.
  std::string calibrate(unsigned Threads);
  /// C_run: the median kernel time, in ms.
  double medianMs() const;
  /// The factor that turns a raw time into a normalized one.
  double scale() const { return kCalibRefMs / medianMs(); }
  size_t samples() const { return Samples.size(); }

private:
  std::vector<double> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
