//===- Common.h - Shared plumbing of the pipeline benchmark -----*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload shares: the run configuration, operation
/// accounting, the in-memory trace the traced run writes as TraceSink
/// JSONL, per-layer accumulators, and the Workload interface main.cpp
/// measures.
///
/// A workload is measured in *passes*: one pass carries every generated
/// input of the workload to a checked result. Untraced passes give the
/// end-to-end metrics; traced passes give the per-layer ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Calibrate.h"
#include "Expected.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "registry/Registry.h"
#include "search/Searcher.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Command-line configuration.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for stores, sockets, script files and traces.
  std::string WorkDir = ".bench_work";
  /// Committed expected-counts file.
  std::string ExpectedPath;
  /// Regenerate the expected counts instead of checking them.
  bool WriteExpected = false;
};

/// What went wrong in one operation. A wrong result that a known defect
/// of the program explains carries the defect's name; anything else is
/// unexplained and makes the run incorrect.
struct Problems {
  std::vector<std::string> Unexplained;
  std::vector<std::string> Known;
  void fail(std::string Why) { Unexplained.push_back(std::move(Why)); }
  void defect(const std::string &Name, const std::string &Why) {
    Known.push_back("known defect " + Name + ": " + Why);
  }
  bool ok() const { return Unexplained.empty() && Known.empty(); }
};

/// Attempted/failed accounting over operations and harness checks.
/// Thread-safe.
///
/// Each distinct operation counts once. The passes after a run's first
/// repeat its inputs, and the same-seed digest check holds them to the
/// first pass's outputs, so while repeating only unexplained failures are
/// recorded: attempted and failed then depend on the seed alone, not on
/// how many passes fit in the run.
class Tally {
public:
  /// Records one operation with everything that went wrong in it.
  void op(const std::string &Id, const Problems &P);
  /// Records one check; an unexplained failure when \p Pass is false.
  bool expect(bool Pass, const std::string &Why);
  /// Records one check that runs a time-dependent number of times (a
  /// calibration): only its failure is recorded.
  bool expectEach(bool Pass, const std::string &Why);
  /// Marks the operations and checks that follow as repeats.
  void setRepeating(bool On);
  uint64_t attempted() const;
  uint64_t failed() const;
  /// Failures no known defect explains.
  uint64_t unexplained() const;
  /// The first failure reasons (bounded), unexplained ones first.
  std::vector<std::string> reasons() const;

private:
  mutable std::mutex Mu;
  bool Repeating = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Unexplained = 0;
  std::vector<std::string> UnexplainedReasons, KnownReasons;
};

/// Deterministic generator for a stream: the workload seed mixed with a
/// stream name, so streams do not shift when another stream draws more.
std::mt19937_64 seededRng(uint64_t Seed, const std::string &Stream);

/// FNV-1a over text; used to digest outputs for the same-seed self-test.
uint64_t digest(const std::string &Text, uint64_t H = 1469598103934665603ull);

/// Interpolated quantile of \p V (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);

/// The traced run's spans, kept in memory and written at the end in the
/// TraceSink JSONL format `extra-cli profile` reads.
class Tracer {
public:
  Tracer();
  ~Tracer();
  /// The live sink while tracing is on, the no-op sink otherwise.
  extra::obs::TraceSink &sink();
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  /// Writes the recorded spans to \p Path; false on I/O failure.
  bool write(const std::string &Path);

private:
  std::ostringstream Buf;
  std::unique_ptr<extra::obs::JsonlTraceSink> Sink;
  bool Enabled = false;
};

/// Sums that traced passes add to, keyed by per-layer metric name.
class LayerSums {
public:
  void add(const std::string &Name, double V);
  void max(const std::string &Name, double V);
  double get(const std::string &Name) const;

private:
  mutable std::mutex Mu;
  std::map<std::string, double> Sums;
};

/// Adds every counter whose name starts with \p Prefix.
uint64_t counterSum(const extra::obs::Metrics &M, const std::string &Prefix);
/// Histogram snapshot by exact name (empty when absent).
extra::obs::Histogram::Snapshot histogram(const extra::obs::Metrics &M,
                                          const std::string &Name);
/// Counter value by exact name (0 when absent).
uint64_t counter(const extra::obs::Metrics &M, const std::string &Name);

/// What one pass produced.
struct PassResult {
  /// Latency of each operation of the pass, in raw milliseconds.
  std::vector<double> OpMs;
  /// Digest of every output of the pass (same seed, same digest).
  uint64_t Digest = 0;
};

/// Everything a workload reads and writes while it runs.
struct RunContext {
  Config Cfg;
  Tally T;
  Tracer Trace;
  LayerSums Layers;
  /// Calibrations taken among the passes, on CalibThreads threads; C_run
  /// of every pass timing.
  Calibrator Calib;
  /// Calibrations taken before the set-ups, on one thread as a set-up
  /// runs; C_run of the set-up timings. A set-up's calibration reads the
  /// host differently (a second thread started right after it took
  /// ~10 ms against ~5.5 ms among passes), so the two are kept apart.
  Calibrator SetupCalib;
  /// Program-exposed counters gathered while tracing (SearchLimits and
  /// DiffOptions metrics hooks point here only in traced passes).
  extra::obs::Metrics SearchMetrics;
  extra::obs::Metrics ReplayMetrics;
  /// Traced passes completed.
  unsigned TracedPasses = 0;
  /// Threads each calibration runs on: as many as a pass uses.
  unsigned CalibThreads = 1;
  /// Wall time spent calibrating so far, in ms; passes exclude it.
  double CalibSpentMs = 0;
  Clock::time_point LastCalib = Clock::now();
  /// Set-up layer timings in raw ms, one entry per set-up.
  std::vector<double> RegistryBuildMs;
  std::vector<double> LibraryLoadMs;

  ExpectedCounts Expected;
  /// Expected-count records collected by --write-expected, by kind+id.
  std::map<std::string, std::string> Written;
  std::mutex WrittenMu;

  /// Runs the calibration kernel into Calib; a sample taken while a
  /// program thread was busy is a failed check.
  void calibrate();
  /// Runs the calibration kernel into SetupCalib, on one thread.
  void calibrateSetup();
  /// Called between two operations of a pass and between passes:
  /// calibrates once about 100 ms of workload time have passed since the
  /// last calibration, so that C_run samples the host all through a pass.
  void betweenOps();

  /// The exact-count gate: compares \p C with the committed record, or
  /// records it under --write-expected. Returns a message naming every
  /// counter that moved, or an empty string.
  std::string gate(const std::string &Kind, const std::string &Id,
                   const Counts &C);
};

/// The set-up every workload shares: loads and validates the whole
/// description library and builds the binding registry from the
/// recorded corpus (timed into \p R's set-up vectors).
extra::registry::Registry baseSetup(RunContext &R);

/// One workload. main.cpp calls setup() several times (the last set-up
/// stays live), then check(), then pass() until the time is up.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds everything the passes need from the seed. Repeatable.
  virtual void setup(RunContext &R) = 0;
  /// Untimed correctness checks that are not part of a pass.
  virtual void check(RunContext &R) { (void)R; }
  /// Called before the traced passes start (after the untraced ones).
  virtual void beginTracedPhase(RunContext &R) { (void)R; }
  /// One pass over the generated inputs; traced when R.Trace is enabled.
  virtual PassResult pass(RunContext &R) = 0;
  /// Threads the workload runs its passes on: the calibration runs on as
  /// many, and the self-time check allows as many times the wall time.
  virtual unsigned passThreads() const { return 1; }
  /// How steeply the workload's pass times follow the calibration
  /// kernel's from one host state to another: they are normalized as
  /// t * (C_ref / C_run)^k (Calibrate.h). Measured as the slope of log raw
  /// time_to_verified_s on log C_run over runs of different seeds.
  virtual double hostElasticity() const { return 1.0; }
  /// Per-layer values derived after the traced passes; \p Out is keyed
  /// by the per-layer metric names, times in raw ms or us.
  virtual void layers(RunContext &R, std::map<std::string, double> &Out) = 0;
  /// Stops anything setup() started.
  virtual void teardown(RunContext &R) { (void)R; }
};

std::unique_ptr<Workload> makeDiscoverVerify();
std::unique_ptr<Workload> makeExhaustOpen();
std::unique_ptr<Workload> makeCompileExecute();
std::unique_ptr<Workload> makeServeRepeat();

/// The pairings the searcher discovers within the node cap.
extern const char *const kDiscoverable[8];

/// Adds one search's SearchStats to the traced sums ("stats.*").
void addSearchStats(RunContext &R, const extra::search::SearchStats &S);

/// The exact counters of one search, as an expected-counts record.
Counts searchCounts(const std::string &Outcome, size_t OpSteps,
                    size_t InstSteps, const extra::search::SearchStats &S);

/// Fills the search-layer per-layer metrics shared by the two search
/// workloads from the summed SearchStats in R.Layers ("stats.*") and the
/// program's metrics registries.
void searchLayers(RunContext &R, std::map<std::string, double> &Out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
