//===- CompileExecute.cpp - The compile-execute workload ---------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// Codegen and the simulators, with no search: seeded programs in the
// source language are parsed, selected, emitted, peepholed and executed
// on all three targets, once with the bindings compiled from the
// recorded-corpus registry and once decomposition-only. Both final
// states must equal the reference model (Programs.h).
//
// The seed draws the operator mix, the lengths (below and above the
// 8086/VAX 16-bit counts and the 370's 256-byte mvc), the length forms
// (literal, const, range fact within or above the limits, unknown — so
// the §6 constraint check both passes and fails), the overlap
// assumption, the overlap of each copy and the characters sought, all at
// their natural rate: nothing is steered around a known miscompile. A
// wrong final state that a known defect explains is a failed operation
// named after the defect (Programs.cpp); any other is unexplained.
// Programs of a fixed reference seed are gated exactly against the
// committed counts before measuring.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Programs.h"

#include "codegen/Frontend.h"
#include "registry/BindingCompiler.h"

using namespace extra;

namespace perfbench {
namespace {

constexpr unsigned kPrograms = 25;
/// The seed whose program counts are committed in expected_counts.txt.
constexpr uint64_t kReferenceSeed = 1;

struct Compiled {
  GenProgram G;
  RefState Ref;
};

class CompileExecute : public Workload {
public:
  void setup(RunContext &R) override {
    registry::Registry Reg = baseSetup(R);
    for (MachineKind M : allMachines()) {
      unsigned I = static_cast<unsigned>(M);
      WithReg[I] = emptyTarget(M);
      unsigned Loaded =
          registry::loadRegistryBindings(Reg, machineName(M), *WithReg[I]);
      R.T.expect(Loaded > 0, std::string("no registry bindings for ") +
                                 machineName(M));
      Bare[I] = emptyTarget(M);
    }
    Programs = build(R.Cfg.Seed, "ce");
    RefPrograms = build(kReferenceSeed, "ref");
  }

  void check(RunContext &R) override {
    // The exact-count gate over the reference seed's programs.
    for (const Compiled &C : RefPrograms)
      runProgram(R, C, true);
  }

  PassResult pass(RunContext &R) override {
    PassResult Out;
    uint64_t H = digest("compile-execute");
    for (const Compiled &C : Programs) {
      auto T0 = Clock::now();
      uint64_t D = runProgram(R, C, false);
      Out.OpMs.push_back(msSince(T0));
      R.betweenOps();
      H = digest(std::to_string(D), H);
    }
    Out.Digest = H;
    return Out;
  }

  /// Over eight 20 s runs, log raw time_to_verified_s against log C_run
  /// had slope 1.3 (correlation 0.99; op_ms.p50 1.2, op_ms.p90 1.1), and
  /// 1.1 and 1.2 over two sets of ten.
  double hostElasticity() const override { return 1.25; }

  void layers(RunContext &R, std::map<std::string, double> &Out) override {
    codegenLayers(R, Out);
  }

private:
  static std::vector<Compiled> build(uint64_t Seed, const std::string &Tag) {
    std::vector<Compiled> Out;
    for (GenProgram &G : generateProgramSet(Seed, Tag, kPrograms)) {
      RefState Ref = reference(G);
      Out.push_back({std::move(G), std::move(Ref)});
    }
    return Out;
  }

  /// Compiles and runs one program on every target, both builds; the
  /// digest covers the emitted code, counts and final states.
  uint64_t runProgram(RunContext &R, const Compiled &C, bool Gate) {
    obs::TraceSink &Sink = Gate ? obs::TraceSink::noop() : R.Trace.sink();
    obs::ScopedSpan Root(Sink, "program", 0,
                         Sink.enabled() ? obs::Payload().add("program", C.G.Id)
                                        : obs::Payload());
    DiagnosticEngine Diags;
    std::optional<codegen::Program> P;
    {
      obs::ScopedSpan S(Sink, "codegen.parse", Root.id());
      P = codegen::parseProgram(C.G.Source, Diags);
    }
    Problems Probs;
    uint64_t H = digest(C.G.Id);
    if (!P) {
      Probs.fail("parse failed: " + Diags.str());
      R.T.op(C.G.Id, Probs);
      return H;
    }
    for (MachineKind M : allMachines()) {
      unsigned I = static_cast<unsigned>(M);
      SideRun Reg =
          compileAndRun(R, M, true, *WithReg[I], *P, C.G, C.Ref, Root.id());
      SideRun Base =
          compileAndRun(R, M, false, *Bare[I], *P, C.G, C.Ref, Root.id());
      std::string Where = machineName(M);
      Reg.report(Probs, Where + " registry build");
      Base.report(Probs, Where + " decomposition-only build");
      if (Gate) {
        for (const auto &[Build, Side] :
             {std::pair<const char *, const SideRun *>{"registry", &Reg},
              {"decomposed", &Base}}) {
          std::string Moved = R.gate(
              "program", C.G.Id + "/" + Where + "/" + Build, sideCounts(*Side));
          if (!Moved.empty())
            Probs.fail(Moved);
        }
      } else if (R.Trace.enabled()) {
        addSideSums(R, Reg, Base, C.G.stringOps());
      }
      H = digest(std::to_string(Reg.Digest) + "/" + std::to_string(Base.Digest),
                 H);
    }
    R.T.op(C.G.Id, Probs);
    return H;
  }

  static Counts sideCounts(const SideRun &S) {
    return {{"dispatches", std::to_string(S.Dispatches)},
            {"lines", std::to_string(S.Lines)},
            {"exotic", std::to_string(S.Exotic)}};
  }

  std::unique_ptr<codegen::Target> WithReg[3];
  std::unique_ptr<codegen::Target> Bare[3];
  std::vector<Compiled> Programs;
  std::vector<Compiled> RefPrograms;
};

} // namespace

std::unique_ptr<Workload> makeCompileExecute() {
  return std::make_unique<CompileExecute>();
}

} // namespace perfbench
