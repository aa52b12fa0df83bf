//===- Common.cpp - Shared plumbing of the pipeline benchmark ---*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "descriptions/Descriptions.h"
#include "registry/RegistryBuilder.h"

#include <algorithm>
#include <cmath>
#include <fstream>

using namespace extra;

namespace perfbench {

const char *const kDiscoverable[8] = {
    "i8086.movsb/pascal.smove", "i8086.movsb/pl1.move",
    "vax.movc3/pc2.copy",       "vax.movc5/pc2.clear",
    "vax.locc/rigel.index",     "vax.locc/clu.search",
    "i8086.stosb/pc2.clear",    "vax.skpc/rigel.span"};

void Tally::op(const std::string &Id, const Problems &P) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Repeating && P.Unexplained.empty())
    return;
  ++Attempted;
  if (P.ok())
    return;
  ++Failed;
  if (!P.Unexplained.empty())
    ++Unexplained;
  for (auto [From, To] : {std::pair{&P.Unexplained, &UnexplainedReasons},
                          std::pair{&P.Known, &KnownReasons}})
    for (const std::string &Why : *From)
      if (To->size() < 20)
        To->push_back(Id + ": " + Why);
}

bool Tally::expect(bool Pass, const std::string &Why) {
  Problems P;
  if (!Pass)
    P.fail(Why);
  op("check", P);
  return Pass;
}

bool Tally::expectEach(bool Pass, const std::string &Why) {
  return Pass || expect(false, Why);
}

void Tally::setRepeating(bool On) {
  std::lock_guard<std::mutex> Lock(Mu);
  Repeating = On;
}

uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Attempted;
}

uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Failed;
}

uint64_t Tally::unexplained() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Unexplained;
}

std::vector<std::string> Tally::reasons() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::string> Out = UnexplainedReasons;
  Out.insert(Out.end(), KnownReasons.begin(), KnownReasons.end());
  return Out;
}

uint64_t digest(const std::string &Text, uint64_t H) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::mt19937_64 seededRng(uint64_t Seed, const std::string &Stream) {
  return std::mt19937_64(digest(Stream, Seed * 0x9E3779B97F4A7C15ull + 1));
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tracer::Tracer() : Sink(std::make_unique<obs::JsonlTraceSink>(Buf)) {}

Tracer::~Tracer() = default;

obs::TraceSink &Tracer::sink() {
  return Enabled ? static_cast<obs::TraceSink &>(*Sink)
                 : obs::TraceSink::noop();
}

bool Tracer::write(const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Buf.str();
  return static_cast<bool>(Out);
}

void LayerSums::add(const std::string &Name, double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  Sums[Name] += V;
}

void LayerSums::max(const std::string &Name, double V) {
  std::lock_guard<std::mutex> Lock(Mu);
  double &Slot = Sums[Name];
  Slot = std::max(Slot, V);
}

double LayerSums::get(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Sums.find(Name);
  return It == Sums.end() ? 0.0 : It->second;
}

uint64_t counterSum(const obs::Metrics &M, const std::string &Prefix) {
  uint64_t Sum = 0;
  for (const auto &[Name, V] : M.counters())
    if (Name.compare(0, Prefix.size(), Prefix) == 0)
      Sum += V;
  return Sum;
}

obs::Histogram::Snapshot histogram(const obs::Metrics &M,
                                   const std::string &Name) {
  for (const auto &[N, S] : M.histograms())
    if (N == Name)
      return S;
  return {};
}

uint64_t counter(const obs::Metrics &M, const std::string &Name) {
  for (const auto &[N, V] : M.counters())
    if (N == Name)
      return V;
  return 0;
}

void RunContext::calibrate() {
  auto T0 = Clock::now();
  std::string Why = Calib.calibrate(CalibThreads);
  T.expectEach(Why.empty(), Why);
  CalibSpentMs += msSince(T0);
  LastCalib = Clock::now();
}

void RunContext::calibrateSetup() {
  std::string Why = SetupCalib.calibrate(1);
  T.expectEach(Why.empty(), Why);
}

void RunContext::betweenOps() {
  if (msSince(LastCalib) >= 100)
    calibrate();
}

std::string RunContext::gate(const std::string &Kind, const std::string &Id,
                             const Counts &C) {
  if (Cfg.WriteExpected) {
    std::lock_guard<std::mutex> Lock(WrittenMu);
    Written.emplace(Kind + " " + Id, recordLine(Kind, Id, C));
    return std::string();
  }
  std::string Moved = Expected.compare(Kind, Id, C);
  return Moved.empty() ? Moved : "exact-count gate: " + Moved;
}

registry::Registry baseSetup(RunContext &R) {
  auto T0 = Clock::now();
  std::string Bad;
  for (const descriptions::Entry &E : descriptions::allEntries())
    if (!descriptions::loadChecked(E.Id))
      Bad += " " + E.Id;
  R.LibraryLoadMs.push_back(msSince(T0));
  R.T.expect(Bad.empty(), "description library: failed to load" + Bad);

  auto T1 = Clock::now();
  registry::RegistryBuilder B;
  auto Admitted = B.addRecordedCases();
  R.RegistryBuildMs.push_back(msSince(T1));
  R.T.expect(Admitted && *Admitted == B.registry().size() &&
                 !B.registry().empty() && B.notes().empty(),
             "registry build from the recorded corpus rejected a case");
  return B.registry();
}

void addSearchStats(RunContext &R, const search::SearchStats &S) {
  LayerSums &L = R.Layers;
  L.add("stats.wall_ms", S.WallMs);
  L.add("stats.nodes_expanded", double(S.NodesExpanded));
  L.add("stats.nodes_generated", double(S.NodesGenerated));
  L.add("stats.candidates_tried", double(S.CandidatesTried));
  L.add("stats.hash_hits", double(S.HashHits));
  L.add("stats.verify_memo_hits", double(S.VerifyMemoHits));
  L.add("stats.dead_ends", double(S.DeadEnds));
  L.add("stats.goal_checks", double(S.GoalChecks));
  L.add("stats.rounds", double(S.Rounds));
}

Counts searchCounts(const std::string &Outcome, size_t OpSteps,
                    size_t InstSteps, const search::SearchStats &S) {
  return {{"outcome", Outcome},
          {"op_steps", std::to_string(OpSteps)},
          {"inst_steps", std::to_string(InstSteps)},
          {"nodes", std::to_string(S.NodesExpanded)},
          {"generated", std::to_string(S.NodesGenerated)},
          {"candidates", std::to_string(S.CandidatesTried)},
          {"hash_hits", std::to_string(S.HashHits)},
          {"dead_ends", std::to_string(S.DeadEnds)},
          {"goal_checks", std::to_string(S.GoalChecks)},
          {"memo_hits", std::to_string(S.VerifyMemoHits)},
          {"rounds", std::to_string(S.Rounds)}};
}

void searchLayers(RunContext &R, std::map<std::string, double> &Out) {
  double Passes = std::max(1u, R.TracedPasses);
  const LayerSums &L = R.Layers;
  auto PerPass = [&](const char *Key) { return L.get(Key) / Passes; };
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };

  double SearchMs = L.get("stats.wall_ms");
  Out["search.ms"] = SearchMs / Passes;
  Out["search.nodes_expanded"] = PerPass("stats.nodes_expanded");
  Out["search.candidates_tried"] = PerPass("stats.candidates_tried");
  Out["search.goal_checks"] = PerPass("stats.goal_checks");
  Out["search.rounds"] = PerPass("stats.rounds");
  Out["search.us_per_candidate"] =
      Ratio(SearchMs * 1000.0, L.get("stats.candidates_tried"));
  Out["search.hash_hit_rate"] =
      Ratio(L.get("stats.hash_hits"),
            L.get("stats.nodes_generated") + L.get("stats.hash_hits"));
  Out["search.dead_end_ratio"] =
      Ratio(L.get("stats.dead_ends"), L.get("stats.candidates_tried"));

  const obs::Metrics &SM = R.SearchMetrics;
  const obs::Metrics &RM = R.ReplayMetrics;
  obs::Histogram::Snapshot Apply = histogram(SM, "transform.apply_ns");
  obs::Histogram::Snapshot VerifyS = histogram(SM, "verify.ns");
  obs::Histogram::Snapshot VerifyR = histogram(RM, "verify.ns");
  Out["search.verify_memo_hit_rate"] =
      Ratio(L.get("stats.verify_memo_hits"),
            L.get("stats.verify_memo_hits") + double(VerifyS.Count));
  Out["transform.apply_ms"] = double(Apply.Sum) / 1e6 / Passes;
  Out["transform.apply_attempts"] = double(Apply.Count) / Passes;
  Out["transform.refuse_ratio"] =
      Ratio(double(counterSum(SM, "rule.refuse.")), double(Apply.Count));
  double Clone = double(counter(SM, "transform.scratch.clone"));
  double Reuse = double(counter(SM, "transform.scratch.reuse"));
  Out["transform.scratch_clone_ratio"] = Ratio(Clone, Clone + Reuse);
  Out["interp.verify_ms"] = double(VerifyS.Sum + VerifyR.Sum) / 1e6 / Passes;
  Out["interp.verify_count"] = double(VerifyS.Count + VerifyR.Count) / Passes;
  double Accept = double(counter(SM, "synth.accept"));
  double Reject = double(counter(SM, "synth.reject"));
  Out["synth.accept_ratio"] = Ratio(Accept, Accept + Reject);
  obs::Histogram::Snapshot MatchS = histogram(SM, "match.ns");
  obs::Histogram::Snapshot MatchR = histogram(RM, "match.ns");
  Out["analysis.match_ms"] = double(MatchS.Sum + MatchR.Sum) / 1e6 / Passes;
}

} // namespace perfbench
