//===- DiscoverVerify.cpp - The discover-verify workload ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The paper's §6 loop, end to end, for the 8 pairings the searcher
// discovers: description text -> parse/validate -> discovery search ->
// replay verification -> registry admission -> binding compile ->
// differential execution against the reference model. One pass carries
// every pairing through every layer, one after another; its wall time is
// the summed time-to-verified of the discoverable pairings.
//
// Two discovered derivations stop at the binding compile today: the
// vax.locc scripts end in a replace-output arm the BindingCompiler cannot
// lower, and vax.skpc's rigel.span has no code-generator operator. Their
// compiled-binding count (0) is pinned in the expected counts.
//
// The seed permutes the pairing order and draws the operands of each
// binding's execution test. Search, replay and admission depend on the
// pairing alone, so their counters are gated exactly on every pass.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Programs.h"

#include "analysis/Analysis.h"
#include "codegen/Frontend.h"
#include "descriptions/Descriptions.h"
#include "isdl/Intern.h"
#include "isdl/Parser.h"
#include "isdl/Validate.h"
#include "registry/BindingCompiler.h"
#include "registry/RegistryBuilder.h"
#include "search/BatchDriver.h"
#include "transform/ScriptIO.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace extra;

namespace perfbench {
namespace {

std::optional<codegen::OpKind> opKindFromName(const std::string &Name) {
  for (codegen::OpKind K :
       {codegen::OpKind::StrIndex, codegen::OpKind::StrMove,
        codegen::OpKind::StrEqual, codegen::OpKind::BlockCopy,
        codegen::OpKind::BlockClear})
    if (Name == codegen::opKindName(K))
      return K;
  return std::nullopt;
}

struct Pairing {
  search::BatchCase Case;
  MachineKind M = MachineKind::I8086;
  /// The operator's code-generator kind; unset for operators outside
  /// codegen's vocabulary (rigel.span), which stop after admission.
  std::optional<codegen::OpKind> Kind;
  GenProgram Exec;
  RefState Ref;
  std::string AdmitDir;
};

class DiscoverVerify : public Workload {
public:
  void setup(RunContext &R) override {
    (void)baseSetup(R);
    Pairings.clear();
    std::vector<search::BatchCase> Library = search::libraryCases();
    for (const char *Id : kDiscoverable) {
      auto It = std::find_if(Library.begin(), Library.end(),
                             [&](const search::BatchCase &C) {
                               return C.Id == Id;
                             });
      if (!R.T.expect(It != Library.end(),
                      std::string("unknown pairing ") + Id))
        continue;
      auto M = registry::machineFromName(
          registry::machineOfInstruction(It->InstructionId));
      if (!R.T.expect(M.has_value(), std::string("no machine for ") + Id))
        continue;
      Pairing P;
      P.Case = *It;
      P.M = *M;
      P.Kind = opKindFromName(registry::opKindOfOperator(P.Case.OperatorId));
      if (P.Kind) {
        P.Exec = generateKindProgram(R.Cfg.Seed, P.Case.Id, *P.Kind);
        P.Ref = reference(P.Exec);
      }
      std::string Dir = P.Case.Id;
      std::replace(Dir.begin(), Dir.end(), '/', '_');
      P.AdmitDir = R.Cfg.WorkDir + "/admit/" + Dir;
      std::filesystem::create_directories(P.AdmitDir);
      Pairings.push_back(std::move(P));
    }
    std::mt19937_64 Rng = seededRng(R.Cfg.Seed, "discover-verify/order");
    std::shuffle(Pairings.begin(), Pairings.end(), Rng);

    // Node cap: the discoverable pairings need at most ~80 expansions.
    // The wall-clock budget is only a safety net; a search it stops is a
    // failed operation.
    Limits = search::SearchLimits();
    Limits.MaxNodes = 2000;
    Limits.TimeBudgetMs = 60000;
  }

  PassResult pass(RunContext &R) override {
    PassResult Out;
    uint64_t H = digest("discover-verify");
    for (Pairing &P : Pairings) {
      // Every pairing starts from an empty interner arena, as a discovery
      // from description text does; otherwise the thread-local arena and
      // its fingerprint memo stay warm from earlier pairings and passes.
      isdl::Interner::local().reset();
      auto T0 = Clock::now();
      Problems Probs;
      bool Completed = runPairing(R, P, H, Probs);
      double Ms = msSince(T0);
      R.T.op(P.Case.Id, Probs);
      if (R.Trace.enabled())
        R.Layers.max("isdl.interned_nodes",
                     double(isdl::Interner::local().nodeCount()));
      if (Completed)
        Out.OpMs.push_back(Ms);
      R.betweenOps();
    }
    Out.Digest = H;
    return Out;
  }

  /// Over sets of five and ten 20-25 s runs, log raw time_to_verified_s
  /// against log C_run had slopes from 1.2 to 1.8; k = 1.25 spread the two
  /// ten-run sets least.
  double hostElasticity() const override { return 1.25; }

  void layers(RunContext &R, std::map<std::string, double> &Out) override {
    searchLayers(R, Out);
    codegenLayers(R, Out);
    double Passes = std::max(1u, R.TracedPasses);
    Out["registry.bindings_loaded"] =
        R.Layers.get("registry.bindings_loaded") / Passes;
    Out["isdl.interned_nodes"] = R.Layers.get("isdl.interned_nodes");
  }

private:
  /// One pairing through every layer. Returns true when every layer ran
  /// to its end; what went wrong is added to \p Probs (a layer that
  /// fails ends the pairing).
  bool runPairing(RunContext &R, Pairing &P, uint64_t &H, Problems &Probs) {
    auto failed = [&](std::string Why) {
      Probs.fail(std::move(Why));
      return false;
    };
    obs::TraceSink &Sink = R.Trace.sink();
    bool Traced = R.Trace.enabled();
    obs::ScopedSpan Root(Sink, "pairing", 0,
                         Sink.enabled() ? obs::Payload().add("case", P.Case.Id)
                                        : obs::Payload());
    uint64_t Id = Root.id();

    // isdl: description text -> ASTs.
    DiagnosticEngine Diags;
    std::unique_ptr<isdl::Description> Op, Inst;
    {
      obs::ScopedSpan S(Sink, "isdl.parse", Id);
      Op = isdl::parseDescription(descriptions::sourceFor(P.Case.OperatorId),
                                  Diags);
      Inst = isdl::parseDescription(
          descriptions::sourceFor(P.Case.InstructionId), Diags);
    }
    if (!Op || !Inst)
      return failed("parse: " + Diags.str());
    {
      obs::ScopedSpan S(Sink, "isdl.validate", Id);
      if (!isdl::validate(*Op, Diags) || !isdl::validate(*Inst, Diags))
        return failed("validate: " + Diags.str());
    }

    // search: discovery from scratch, node-capped.
    search::SearchLimits L = Limits;
    if (Traced)
      L.Metrics = &R.SearchMetrics;
    search::SearchOutcome O;
    {
      obs::ScopedSpan S(Sink, "search", Id);
      O = search::searchDerivation(*Op, *Inst, L);
    }
    if (Traced)
      addSearchStats(R, O.Stats);
    if (O.Stats.TimedOut)
      return failed("search stopped on the wall clock");
    if (O.SearchFault.Category != FaultCategory::None)
      return failed("search fault: " + O.SearchFault.str());
    if (!O.Found)
      return failed("not discovered: " + O.FailureReason);

    // analysis: replay the discovered scripts at full trial counts.
    analysis::AnalysisCase Case;
    Case.Id = P.Case.Id;
    Case.OperatorId = P.Case.OperatorId;
    Case.InstructionId = P.Case.InstructionId;
    Case.OperatorScript = O.OperatorScript;
    Case.InstructionScript = O.InstructionScript;
    analysis::DiffOptions Replay;
    if (Traced)
      Replay.Metrics = &R.ReplayMetrics;
    analysis::AnalysisResult A;
    {
      obs::ScopedSpan S(Sink, "analysis.replay", Id);
      A = analysis::runAnalysis(Case, P.Case.M, Replay);
    }
    Counts Gated = searchCounts(A.Succeeded ? "verified" : "discovered",
                                O.OperatorScript.size(),
                                O.InstructionScript.size(), O.Stats);
    if (!A.Succeeded) {
      std::string Moved = R.gate("pairing", P.Case.Id, Gated);
      if (!Moved.empty())
        Probs.fail(Moved);
      return failed("replay failed: " + A.FailureReason);
    }
    std::string OpText = transform::printScript(O.OperatorScript);
    std::string InstText = transform::printScript(O.InstructionScript);
    H = digest(OpText, H);
    H = digest(InstText, H);
    H = digest(A.Constraints.str() + A.Binding.str(), H);

    // registry: admit the discovered derivation through the scripts-dir
    // importer (it re-verifies by replay), then compile its binding.
    registry::RegistryBuilder B;
    {
      obs::ScopedSpan S(Sink, "registry.admit", Id);
      std::string Stem = P.AdmitDir + "/" + P.Case.InstructionId + "_" +
                         P.Case.OperatorId;
      std::ofstream(Stem + ".operator.script", std::ios::trunc) << OpText;
      std::ofstream(Stem + ".instruction.script", std::ios::trunc)
          << InstText;
      auto Admitted = B.importScriptsDir(P.AdmitDir);
      if (!Admitted || *Admitted != 1)
        return failed("registry admission: " +
                      (Admitted ? (B.notes().empty() ? std::string("0 admitted")
                                                     : B.notes()[0].Detail)
                                : Admitted.fault().str()));
    }
    std::unique_ptr<codegen::Target> WithReg;
    unsigned Loaded = 0;
    std::vector<registry::CompileNote> Notes;
    {
      obs::ScopedSpan S(Sink, "registry.compile", Id);
      WithReg = emptyTarget(P.M);
      Loaded = registry::loadRegistryBindings(B.registry(), machineName(P.M),
                                              *WithReg, &Notes);
    }
    if (Traced)
      R.Layers.add("registry.bindings_loaded", Loaded);
    // The number of bindings the compiler lowers is an exact count: 1, or
    // 0 with a compile note for a derivation the BindingCompiler cannot
    // lower (or an operator outside codegen's vocabulary). A pairing that
    // compiles no binding ends here; the gate flags any change.
    Gated.emplace_back("bindings", std::to_string(Loaded));
    std::string Moved = R.gate("pairing", P.Case.Id, Gated);
    if (!Moved.empty())
      Probs.fail(Moved);
    H = digest(std::to_string(Loaded) +
                   (Notes.empty() ? std::string() : Notes[0].Detail),
               H);
    if (!P.Kind || Loaded == 0)
      return true;
    if (Loaded != 1)
      return failed("binding compile loaded " + std::to_string(Loaded) +
                    " bindings");

    // codegen + sim: the new binding against decomposition-only, both
    // checked against the reference model.
    std::optional<codegen::Program> Prog;
    {
      obs::ScopedSpan S(Sink, "codegen.parse", Id);
      Prog = codegen::parseProgram(P.Exec.Source, Diags);
    }
    if (!Prog)
      return failed("program parse: " + Diags.str());
    std::unique_ptr<codegen::Target> Bare = emptyTarget(P.M);
    SideRun Reg =
        compileAndRun(R, P.M, true, *WithReg, *Prog, P.Exec, P.Ref, Id);
    SideRun Base =
        compileAndRun(R, P.M, false, *Bare, *Prog, P.Exec, P.Ref, Id);
    if (Traced)
      addSideSums(R, Reg, Base, P.Exec.stringOps());
    H = digest(std::to_string(Reg.Digest) + "/" + std::to_string(Base.Digest),
               H);
    Reg.report(Probs, "registry build");
    Base.report(Probs, "decomposition-only build");
    if (Reg.Exotic == 0)
      Probs.fail("the compiled binding was never selected");
    return true;
  }

  std::vector<Pairing> Pairings;
  search::SearchLimits Limits;
};

} // namespace

std::unique_ptr<Workload> makeDiscoverVerify() {
  return std::make_unique<DiscoverVerify>();
}

} // namespace perfbench
