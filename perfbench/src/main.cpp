//===- main.cpp - The EXTRA pipeline benchmark -------------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--expected FILE]
//   perfbench --write-expected FILE [--work-dir DIR]
//
// Sets the workload up several times (setup_s is the median), runs the
// untimed checks and one warm-up pass, then runs passes for S seconds,
// and on until the run holds 100 operations.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced, writes the spans as TraceSink
// JSONL, reads them back through obs::profileTrace and prints the
// per-layer metrics. Every timing is host-normalized (Calibrate.h): the
// calibration kernel runs before every set-up, which normalizes set-up
// times, and between operations and passes once 100 ms of workload time
// have passed since the last calibration, which normalizes the rest. The
// last line of standard output is one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//
// "correct" is false when an exact counter moved or an operation failed
// in a way no known defect of the program explains; "failed" counts
// every failed operation, the known-defect ones included. Both counts
// hold each distinct operation once (Tally), so they depend on the seed
// alone.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Nesting.h"

#include "obs/Profile.h"
#include "obs/TraceFile.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace extra;
using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics (BENCHMARK.json "end_to_end"), every workload.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"time_to_verified_s", "s"},
    {"op_ms.p50", "ms"},       {"op_ms.p90", "ms"},
    {"ops_per_s", "1/s"},      {"peak_rss_mb", "MB"},
};

/// The per-layer metrics (BENCHMARK.json "per_layer"), every workload; a
/// layer the workload bypasses reads 0. Units ms, us and s are
/// host-normalized timings, except under "raw." and "host.".
const MetricDef kPerLayer[] = {
    {"isdl.parse_ms", "ms"},
    {"isdl.validate_ms", "ms"},
    {"descriptions.load_ms", "ms"},
    {"isdl.interned_nodes", "count"},
    {"search.ms", "ms"},
    {"search.nodes_expanded", "count"},
    {"search.candidates_tried", "count"},
    {"search.goal_checks", "count"},
    {"search.us_per_candidate", "us"},
    {"search.rounds", "count"},
    {"search.hash_hit_rate", "ratio"},
    {"search.dead_end_ratio", "ratio"},
    {"search.verify_memo_hit_rate", "ratio"},
    {"search.batch_speedup", "ratio"},
    {"transform.apply_ms", "ms"},
    {"transform.apply_attempts", "count"},
    {"transform.refuse_ratio", "ratio"},
    {"transform.scratch_clone_ratio", "ratio"},
    {"interp.verify_ms", "ms"},
    {"interp.verify_count", "count"},
    {"synth.accept_ratio", "ratio"},
    {"analysis.replay_ms", "ms"},
    {"analysis.match_ms", "ms"},
    {"registry.build_ms", "ms"},
    {"registry.admit_ms", "ms"},
    {"registry.compile_ms", "ms"},
    {"registry.bindings_loaded", "count"},
    {"codegen.parse_us", "us"},
    {"codegen.generate_us", "us"},
    {"codegen.peephole_us", "us"},
    {"codegen.exotic_ops", "count"},
    {"codegen.decomposed_ops", "count"},
    {"codegen.lines", "count"},
    {"codegen.exotic_share", "ratio"},
    {"codegen.code_size_ratio", "ratio"},
    {"sim.run_us", "us"},
    {"sim.dispatches", "count"},
    {"sim.micro_ops", "count"},
    {"sim.dispatch_ratio", "ratio"},
    {"server.warm_us", "us"},
    {"server.cold_ms", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.store_bytes", "bytes"},
    {"self_share.isdl", "ratio"},
    {"self_share.search", "ratio"},
    {"self_share.transform", "ratio"},
    {"self_share.interp", "ratio"},
    {"self_share.analysis", "ratio"},
    {"self_share.registry", "ratio"},
    {"self_share.codegen", "ratio"},
    {"self_share.sim", "ratio"},
    {"self_share.server", "ratio"},
    {"self_share.bench", "ratio"},
    {"host.calib_ms", "ms"},
    {"raw.setup_s", "s"},
    {"raw.time_to_verified_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"failed_ratio", "ratio"},
};

const char *const kLayers[] = {"isdl",     "search",   "transform", "interp",
                               "analysis", "registry", "codegen",   "sim",
                               "server",   "bench"};

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetups = 15;
/// Operations an untraced run gathers at least, so that it holds ten
/// beyond its 90th percentile and the medians over passes rest on a dozen
/// passes or more.
constexpr size_t kMinOps = 100;

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "discover-verify")
    return makeDiscoverVerify();
  if (Name == "exhaust-open")
    return makeExhaustOpen();
  if (Name == "compile-execute")
    return makeCompileExecute();
  if (Name == "serve-repeat")
    return makeServeRepeat();
  return nullptr;
}

const char *const kWorkloads[] = {"discover-verify", "exhaust-open",
                                  "compile-execute", "serve-repeat"};

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--expected FILE]\n"
               "       perfbench --write-expected FILE [--work-dir DIR]\n"
               "workloads: discover-verify exhaust-open compile-execute "
               "serve-repeat\n",
               Why);
  return 2;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

/// Passes measured in one phase, in raw milliseconds.
struct Phase {
  std::vector<double> PassMs;
  /// Operations timed over the phase's passes.
  size_t Ops = 0;
  /// Each pass's operations per second of its time.
  std::vector<double> OpsPerS;
  /// Each pass's median and 90th-percentile operation latency.
  std::vector<double> OpP50, OpP90;
};

/// Runs passes for \p Seconds and until \p MinOps operations (at least
/// two measured passes). A pass's time leaves out the calibrations run
/// between its operations. Every pass's output digest must equal the
/// first pass's: the same seed, run again, gives the same counts and
/// outputs.
Phase measure(Workload &W, RunContext &R, double Seconds, bool Traced,
              size_t MinOps, std::optional<uint64_t> &FirstDigest) {
  Phase P;
  // Room for every pass of a run up front: a vector that grows by
  // reallocation raised serve-repeat's peak RSS by 2.5 MB in the runs
  // that fit the most passes. Reserved pages that stay untouched are not
  // resident.
  for (std::vector<double> *V : {&P.PassMs, &P.OpsPerS, &P.OpP50, &P.OpP90})
    V->reserve(1u << 16);
  R.Trace.setEnabled(Traced);
  auto Start = Clock::now();
  while (P.PassMs.size() < 2 || P.Ops < MinOps ||
         msSince(Start) < Seconds * 1000.0) {
    // A safety net for a host far slower than the one the workloads
    // were sized on.
    if (msSince(Start) > 3 * Seconds * 1000.0)
      break;
    auto T0 = Clock::now();
    double Calibrating = R.CalibSpentMs;
    PassResult Res = W.pass(R);
    double Ms = msSince(T0) - (R.CalibSpentMs - Calibrating);
    R.betweenOps();
    if (!FirstDigest) {
      // The run's first pass records its operations and sets the outputs
      // every later pass must repeat. Its time is a warm-up (cold caches,
      // allocator and page tables) and is not measured.
      FirstDigest = Res.Digest;
      R.T.setRepeating(true);
      continue;
    }
    R.T.expect(Res.Digest == *FirstDigest,
               "self-test: a repeated pass of the same seed produced "
               "different outputs");
    P.PassMs.push_back(Ms);
    P.OpsPerS.push_back(Ms > 0 ? double(Res.OpMs.size()) * 1000.0 / Ms : 0.0);
    P.OpP50.push_back(quantile(Res.OpMs, 0.5));
    P.OpP90.push_back(quantile(Res.OpMs, 0.9));
    P.Ops += Res.OpMs.size();
    if (Traced)
      ++R.TracedPasses;
  }
  R.Trace.setEnabled(false);
  return P;
}

/// Layer of a span label: the text before the first '.', with the
/// benchmark's own root spans charged to "bench".
std::string layerOf(const std::string &Label) {
  std::string L = Label.substr(0, Label.find('.'));
  if (L == "isdl" || L == "search" || L == "analysis" || L == "registry" ||
      L == "codegen" || L == "sim" || L == "server")
    return L;
  return "bench";
}

/// Per-layer metrics from the traced phase, times in raw ms or us: span
/// totals and self times from the profile of the written trace, program
/// counters from the metrics registries, then the workload's own values.
void perLayer(Workload &W, RunContext &R, const Phase &Untraced,
              const Phase &Traced, std::map<std::string, double> &Out) {
  std::string Path = R.Cfg.WorkDir + "/" + R.Cfg.Workload + ".trace.jsonl";
  if (!R.T.expect(R.Trace.write(Path), "cannot write trace " + Path))
    return;
  std::string Error;
  auto Records = obs::readTraceSet(Path, &Error);
  if (!R.T.expect(Records.has_value(), "trace does not read back: " + Error))
    return;
  obs::ProfileReport Prof = obs::profileTrace(*Records);

  double Passes = std::max(1u, R.TracedPasses);
  std::map<std::string, double> TotalMs, SelfMs;
  for (const obs::ProfileStat &S : Prof.ByLabel) {
    TotalMs[S.Key] = double(S.TotalUs) / 1000.0 / Passes;
    SelfMs[layerOf(S.Key)] += double(S.SelfUs) / 1000.0 / Passes;
  }
  auto Total = [&](const char *Label) {
    auto It = TotalMs.find(Label);
    return It == TotalMs.end() ? 0.0 : It->second;
  };
  Out["isdl.parse_ms"] = Total("isdl.parse");
  Out["isdl.validate_ms"] = Total("isdl.validate");
  Out["analysis.replay_ms"] = Total("analysis.replay");
  Out["registry.admit_ms"] = Total("registry.admit");
  Out["registry.compile_ms"] = Total("registry.compile");
  Out["descriptions.load_ms"] = median(R.LibraryLoadMs);
  Out["registry.build_ms"] = median(R.RegistryBuildMs);
  Out["codegen.parse_us"] = Total("codegen.parse") * 1000.0;
  Out["codegen.generate_us"] = Total("codegen.generate") * 1000.0;
  Out["codegen.peephole_us"] = Total("codegen.peephole") * 1000.0;
  Out["sim.run_us"] = Total("sim.run") * 1000.0;

  W.layers(R, Out);

  // The in-program split of the search span: rule application and the
  // per-step differential check are timed by the program's own
  // histograms; they move from search's self time to transform and
  // interp, and the goal-check matches to analysis. Verification run
  // inside a rule application is in both histograms and moves once
  // (Nesting.h). On a batch the searches run on the workers, so the
  // search layer's time is the sum of the per-case search times instead
  // of the span's.
  double Apply = Out["transform.apply_ms"];
  double Nested = double(nestedVerifyNs()) / 1e6 / Passes;
  double VerifySearch =
      double(histogram(R.SearchMetrics, "verify.ns").Sum) / 1e6 / Passes;
  double VerifyReplay =
      double(histogram(R.ReplayMetrics, "verify.ns").Sum) / 1e6 / Passes;
  double MatchSearch =
      double(histogram(R.SearchMetrics, "match.ns").Sum) / 1e6 / Passes;
  if (W.passThreads() > 1)
    SelfMs["search"] = Out["search.ms"];
  SelfMs["search"] -= Apply + (VerifySearch - Nested) + MatchSearch;
  SelfMs["transform"] = Apply - Nested;
  SelfMs["interp"] = VerifySearch + VerifyReplay;
  SelfMs["analysis"] += MatchSearch - VerifyReplay;

  double PassMs = 0;
  for (double Ms : Traced.PassMs)
    PassMs += Ms;
  PassMs /= std::max<size_t>(1, Traced.PassMs.size());
  double Capacity = PassMs * W.passThreads();
  Out["trace.overhead_ratio"] = median(Traced.PassMs) / median(Untraced.PassMs);

  // Layer self times must add up to no more than the pass wall time (on
  // a multi-threaded pass, the wall time of every thread), and none may
  // be negative: the histogram split above moves time out of the search
  // span, so a histogram that over-counts shows as a negative remainder.
  double SelfSum = 0;
  for (const char *Layer : kLayers) {
    double V = SelfMs[Layer];
    SelfSum += V;
    R.T.expect(V >= 0, std::string("self time of ") + Layer +
                           " is negative (" + std::to_string(V) +
                           " ms): a layer's time is counted twice");
    Out[std::string("self_share.") + Layer] = Capacity > 0 ? V / Capacity : 0;
  }
  R.T.expect(SelfSum <= Capacity * 1.0001,
             "layer self times (" + std::to_string(SelfSum) +
                 " ms) exceed the pass wall time times its threads (" +
                 std::to_string(Capacity) + " ms)");
}

/// Host-normalizes the timing metrics of \p Values in place.
void normalize(std::map<std::string, double> &Values, const MetricDef *Defs,
               size_t N, double Scale) {
  for (size_t I = 0; I < N; ++I) {
    std::string Name = Defs[I].Name, Unit = Defs[I].Unit;
    bool Timing = Unit == "ms" || Unit == "us" || Unit == "s";
    if (Timing && Name.rfind("raw.", 0) != 0 && Name.rfind("host.", 0) != 0)
      Values[Name] *= Scale;
  }
}

std::string jsonMetrics(const MetricDef *Defs, size_t N,
                        const std::map<std::string, double> &Values) {
  std::string Line = "{";
  for (size_t I = 0; I < N; ++I) {
    auto It = Values.find(Defs[I].Name);
    double V = It == Values.end() ? 0.0 : It->second;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Line += std::string(I ? ", " : "") + "\"" + Defs[I].Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + Defs[I].Unit +
            "\"}";
  }
  return Line + "}";
}

void printJson(const RunContext &R, const MetricDef *Defs, size_t N,
               const std::map<std::string, double> &Values) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              R.T.unexplained() == 0 ? "true" : "false", R.T.attempted(),
              R.T.failed(), jsonMetrics(Defs, N, Values).c_str());
}

int writeExpected(Config Cfg) {
  std::vector<std::string> Lines;
  uint64_t Unexplained = 0;
  for (const char *Name : kWorkloads) {
    RunContext R;
    R.Cfg = Cfg;
    R.Cfg.Workload = Name;
    std::unique_ptr<Workload> W = makeWorkload(Name);
    W->setup(R);
    W->check(R);
    (void)W->pass(R);
    W->teardown(R);
    for (const auto &[Key, Line] : R.Written)
      Lines.push_back(Line);
    for (const std::string &Why : R.T.reasons())
      std::fprintf(stderr, "%s: %s\n", Name, Why.c_str());
    Unexplained += R.T.unexplained();
  }
  if (Unexplained) {
    std::fprintf(stderr, "perfbench: %" PRIu64
                         " unexplained failures; expected counts not written\n",
                 Unexplained);
    return 1;
  }
  std::ofstream Out(Cfg.ExpectedPath, std::ios::trunc);
  Out << "# Exact counters of the pipeline benchmark (perfbench/README.md).\n"
         "# Regenerate with: perfbench --write-expected <this file>\n";
  for (const std::string &Line : Lines)
    Out << Line << "\n";
  return Out ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  // Before any program code runs, so the arenas' pages are resident
  // from the start and add the same constant to every peak RSS.
  reserveCalibrationArenas();
  Config Cfg;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--workload" && (V = Next()))
      Cfg.Workload = V;
    else if (A == "--seed" && (V = Next()))
      Cfg.Seed = std::strtoull(V, nullptr, 10), HaveSeed = true;
    else if (A == "--seconds" && (V = Next()))
      Cfg.Seconds = std::strtod(V, nullptr), HaveSeconds = true;
    else if (A == "--trace" && (V = Next()))
      Cfg.Trace = std::strcmp(V, "0") != 0, HaveTrace = true;
    else if (A == "--work-dir" && (V = Next()))
      Cfg.WorkDir = V;
    else if (A == "--expected" && (V = Next()))
      Cfg.ExpectedPath = V;
    else if (A == "--write-expected" && (V = Next()))
      Cfg.ExpectedPath = V, Cfg.WriteExpected = true;
    else
      return usage(("bad argument '" + A + "'").c_str());
  }
  std::filesystem::create_directories(Cfg.WorkDir);
  if (Cfg.WriteExpected)
    return writeExpected(Cfg);

  std::unique_ptr<Workload> W = makeWorkload(Cfg.Workload);
  if (!W)
    return usage("unknown or missing --workload");
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Cfg.Seconds <= 0)
    return usage("--seed, --seconds and --trace are required");
  if (Cfg.ExpectedPath.empty())
    return usage("--expected is required");

  RunContext R;
  R.Cfg = Cfg;
  R.CalibThreads = W->passThreads();
  std::string Error;
  if (!R.Expected.load(Cfg.ExpectedPath, Error)) {
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }

  std::vector<double> SetupS;
  for (unsigned I = 0; I < kSetups; ++I) {
    if (I)
      W->teardown(R);
    R.calibrateSetup();
    auto T0 = Clock::now();
    W->setup(R);
    SetupS.push_back(msSince(T0) / 1000.0);
  }
  // The set-ups run in a few seconds of their own, before any pass; the
  // calibrations taken among them say how fast the host was then.
  double SetupScale = R.SetupCalib.scale();
  W->check(R);
  R.calibrate();

  std::optional<uint64_t> FirstDigest;
  Phase Untraced =
      measure(*W, R, Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds, false,
              Cfg.Trace ? 0 : kMinOps, FirstDigest);
  std::map<std::string, double> Raw, Layers;
  Raw["setup_s"] = median(SetupS);
  Raw["time_to_verified_s"] = median(Untraced.PassMs) / 1000.0;
  // Latency quantiles per pass, then the median over passes. A pass's
  // operations are distinct inputs of different cost (on exhaust-open,
  // three pairings near 400 ms and three near 130 ms), so a quantile of
  // the pooled latencies can fall in the gap between two clusters, where
  // it reads the slowest of one and the fastest of the other: extremes.
  Raw["op_ms.p50"] = median(Untraced.OpP50);
  Raw["op_ms.p90"] = median(Untraced.OpP90);
  // The median pass's rate: a preempted pass moves a sum of pass times
  // (double the run-to-run spread on serve-repeat), not a median.
  Raw["ops_per_s"] = median(Untraced.OpsPerS);

  std::optional<Phase> Traced;
  if (Cfg.Trace) {
    W->beginTracedPhase(R);
    watchNesting(&R.SearchMetrics.histogram("transform.apply_ns"),
                 &R.SearchMetrics.histogram("verify.ns"));
    Traced = measure(*W, R, Cfg.Seconds / 2, true, 0, FirstDigest);
    watchNesting(nullptr, nullptr);
    perLayer(*W, R, Untraced, *Traced, Layers);
  }
  W->teardown(R);

  double Scale = std::pow(R.Calib.scale(), W->hostElasticity());
  std::map<std::string, double> E2E = Raw;
  normalize(E2E, kEndToEnd, std::size(kEndToEnd), Scale);
  E2E["setup_s"] = Raw["setup_s"] * SetupScale;
  E2E["ops_per_s"] = Raw["ops_per_s"] / Scale;
  E2E["peak_rss_mb"] = Raw["peak_rss_mb"] = peakRssMb();
  normalize(Layers, kPerLayer, std::size(kPerLayer), Scale);
  for (const char *SetupTiming : {"descriptions.load_ms", "registry.build_ms"})
    Layers[SetupTiming] *= SetupScale / Scale;
  Layers["host.calib_ms"] = R.Calib.medianMs();
  Layers["raw.setup_s"] = Raw["setup_s"];
  Layers["raw.time_to_verified_s"] = Raw["time_to_verified_s"];
  Layers["failed_ratio"] =
      double(R.T.failed()) / double(std::max<uint64_t>(1, R.T.attempted()));

  std::printf("perfbench %s seed=%" PRIu64 " passes=%zu op_samples=%zu "
              "threads=%u calibrations=%zu C_run=%.4f ms C_ref=%.4f ms\n",
              Cfg.Workload.c_str(), Cfg.Seed, Untraced.PassMs.size(),
              Untraced.Ops, W->passThreads(), R.Calib.samples(),
              R.Calib.medianMs(), kCalibRefMs);
  std::printf("  %-32s %14s %14s\n", "end-to-end", "normalized", "raw");
  for (const MetricDef &D : kEndToEnd)
    std::printf("  %-32s %14.6g %14.6g %s\n", D.Name, E2E[D.Name],
                Raw[D.Name], D.Unit);
  if (Cfg.Trace)
    for (const MetricDef &D : kPerLayer)
      std::printf("  %-32s %14.6g %s\n", D.Name, Layers[D.Name], D.Unit);
  for (const std::string &Why : R.T.reasons())
    std::printf("  FAILED: %s\n", Why.c_str());
  // Read by steadiness.py, which sets raw beside normalized spreads.
  std::printf("raw %s\n", jsonMetrics(kEndToEnd, std::size(kEndToEnd), Raw)
                              .c_str());
  std::fflush(stdout);
  if (Cfg.Trace)
    printJson(R, kPerLayer, std::size(kPerLayer), Layers);
  else
    printJson(R, kEndToEnd, std::size(kEndToEnd), E2E);
  return 0;
}
