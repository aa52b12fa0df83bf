//===- ExhaustOpen.cpp - The exhaust-open workload ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The search layer used the other way: the six open pairings (no
// derivation within reach) run through search::runBatch on two workers to
// node-capped NOT FOUND verdicts. The beam is narrowed so the cap is
// small enough for a run to give over a hundred verdicts (op_ms.p90 needs
// ten samples beyond it), yet lets the first round finish and a widened
// round start. No replay, registry or codegen runs.
//
// The pairing set, cap and worker count are fixed. Before measuring, the
// batch runs at one worker in an order drawn from the seed; its counts
// must equal the committed ones and those of every measured pass. The
// measured passes run the batch costliest case first (by the nodes the
// one-worker run generated, a deterministic count), as a batch scheduler
// would. The order sets how well two workers balance the six cases: a
// new seeded order every pass made the batch wall time swing between
// 0.72 and 1.11 s within one run, and its median from seed to seed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "isdl/Intern.h"
#include "search/BatchDriver.h"

#include <algorithm>
#include <map>

using namespace extra;

namespace perfbench {
namespace {

/// Expansion cap per pairing. The first round (beam 4, depth 4: at most
/// 16 expansions) runs out, and a widened round starts.
constexpr uint64_t kNodeCap = 24;
/// Batch workers: more pairings than workers, so load balance shows.
constexpr unsigned kWorkers = 2;

class ExhaustOpen : public Workload {
public:
  void setup(RunContext &R) override {
    (void)baseSetup(R);
    // The open pairings: every recorded pairing the searcher does not
    // discover.
    Cases.clear();
    for (const search::BatchCase &C : search::libraryCases())
      if (std::find(std::begin(kDiscoverable), std::end(kDiscoverable),
                    C.Id) == std::end(kDiscoverable))
        Cases.push_back(C);
    R.T.expect(Cases.size() > kWorkers, "fewer open pairings than workers");
    std::mt19937_64 Order = seededRng(R.Cfg.Seed, "exhaust-open/order");
    std::shuffle(Cases.begin(), Cases.end(), Order);
  }

  void check(RunContext &R) override {
    // Thread and order invariance: one worker, in the seeded order,
    // first; every pass must match it. A one-worker batch runs inline, so
    // this thread's arena holds every node the batch interned.
    SingleWorkerDigest = runOnce(R, 1, nullptr);
    InternedNodes = double(isdl::Interner::local().nodeCount());
    std::stable_sort(Cases.begin(), Cases.end(),
                     [&](const search::BatchCase &A,
                         const search::BatchCase &B) {
                       return Generated[A.Id] > Generated[B.Id];
                     });
  }

  PassResult pass(RunContext &R) override {
    PassResult Out;
    Out.Digest = runOnce(R, kWorkers, &Out);
    R.T.expect(Out.Digest == SingleWorkerDigest,
               "counts at " + std::to_string(kWorkers) +
                   " workers differ from the counts at 1 worker");
    return Out;
  }

  unsigned passThreads() const override { return kWorkers; }
  // hostElasticity() stays 1: over eight 20 s runs, log raw
  // time_to_verified_s against log C_run had slope 1.0 (correlation 0.82),
  // and 1.0 and 0.8 over two sets of ten.

  void layers(RunContext &R, std::map<std::string, double> &Out) override {
    searchLayers(R, Out);
    Out["search.batch_speedup"] =
        R.Layers.get("batch.case_wall_ms") /
        std::max(1e-9, R.Layers.get("batch.wall_ms"));
    Out["isdl.interned_nodes"] = InternedNodes;
  }

private:
  /// Runs the batch at \p Threads workers; returns the digest of every
  /// case's counts (input-order independent).
  uint64_t runOnce(RunContext &R, unsigned Threads, PassResult *Out) {
    bool Traced = R.Trace.enabled() && Out;
    search::BatchOptions Opts;
    Opts.Threads = Threads;
    Opts.Limits.BeamWidth = 4;
    Opts.Limits.MaxDepth = 4;
    Opts.Limits.MaxNodes = kNodeCap;
    Opts.Limits.TimeBudgetMs = 60000; // Safety net only.
    Opts.DegradedRetry = false;
    Opts.Watchdog = false;
    if (Traced)
      Opts.Limits.Metrics = &R.SearchMetrics;

    obs::TraceSink &Sink = Out ? R.Trace.sink() : obs::TraceSink::noop();
    // Workers are fresh threads with empty interner arenas; a batch at one
    // worker runs inline on this thread, so its arena is emptied to match.
    isdl::Interner::local().reset();
    search::BatchStats Stats;
    std::vector<search::BatchResult> Results;
    {
      obs::ScopedSpan Root(Sink, "verdicts", 0,
                           Sink.enabled()
                               ? obs::Payload().add("threads", Threads)
                               : obs::Payload());
      obs::ScopedSpan S(Sink, "search", Root.id());
      Results = search::runBatch(Cases, Opts, &Stats);
    }
    R.T.expect(Stats.Retried == 0 && Stats.TimedOut == 0 &&
                   Stats.Faulted == 0,
               "batch retried, timed out or faulted a case");

    std::vector<std::pair<std::string, Counts>> ByCase;
    for (const search::BatchResult &B : Results) {
      const search::SearchOutcome &O = B.Discovery.Outcome;
      bool Ok = B.Record.Outcome == search::CaseOutcome::Exhausted &&
                !O.Stats.TimedOut && O.Stats.BudgetExhausted && !O.Found;
      Problems Probs;
      if (!Ok)
        Probs.fail(std::string("expected a node-capped NOT FOUND, got ") +
                   search::caseOutcomeName(B.Record.Outcome) +
                   (O.Stats.TimedOut ? " (wall clock)" : ""));
      Counts C = searchCounts(search::caseOutcomeName(B.Record.Outcome),
                              O.Partial.OperatorScript.size(),
                              O.Partial.InstructionScript.size(), O.Stats);
      std::string Moved = R.gate("pairing", B.Case.Id, C);
      if (!Moved.empty())
        Probs.fail(Moved);
      R.T.op(B.Case.Id, Probs);
      ByCase.emplace_back(B.Case.Id, std::move(C));
      Generated[B.Case.Id] = O.Stats.NodesGenerated;
      if (Out && Ok)
        Out->OpMs.push_back(B.WallMs);
      if (Traced) {
        addSearchStats(R, O.Stats);
        R.Layers.add("batch.case_wall_ms", B.WallMs);
      }
    }
    if (Traced)
      R.Layers.add("batch.wall_ms", Stats.WallMs);
    std::sort(ByCase.begin(), ByCase.end());
    uint64_t H = digest("exhaust-open");
    for (const auto &[Id, C] : ByCase)
      H = digest(recordLine("pairing", Id, C), H);
    return H;
  }

  std::vector<search::BatchCase> Cases;
  /// Nodes each case generated, by case id (the same on every run).
  std::map<std::string, uint64_t> Generated;
  uint64_t SingleWorkerDigest = 0;
  double InternedNodes = 0;
};

} // namespace

std::unique_ptr<Workload> makeExhaustOpen() {
  return std::make_unique<ExhaustOpen>();
}

} // namespace perfbench
