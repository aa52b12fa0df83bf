//===- Programs.cpp - Seeded source programs and their reference -*- C++ -*-=//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "sim/Sim370.h"
#include "sim/Sim8086.h"
#include "sim/SimCommon.h"
#include "sim/SimVax.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace extra;
using codegen::OpKind;

namespace perfbench {

std::unique_ptr<codegen::Target> emptyTarget(MachineKind M) {
  std::unique_ptr<codegen::Target> T =
      M == MachineKind::I8086 ? codegen::makeI8086Target()
      : M == MachineKind::Vax ? codegen::makeVaxTarget()
                          : codegen::makeIbm370Target();
  T->clearBindings();
  return T;
}

namespace {

/// Length classes, each a narrow band so every seed moves about the same
/// number of bytes, and how many operators of each class a program
/// holds. "chunk" lies above the 370's 256-byte mvc limit; "big" gives
/// every program a footprint of thousands of map cells.
struct LenClass {
  uint64_t Lo, Hi;
  unsigned PerProgram;
};
constexpr LenClass kClasses[] = {
    {1, 16, 2}, {17, 64, 2}, {65, 255, 2}, {257, 400, 1}, {2048, 2304, 1}};

constexpr OpKind kKinds[] = {OpKind::StrMove, OpKind::BlockCopy,
                             OpKind::BlockClear, OpKind::StrIndex,
                             OpKind::StrEqual};

/// Length forms drawn: literal, const, range within the machine limits,
/// range above them, unknown.
constexpr unsigned kForms = 5;

struct Slot {
  OpKind K;
  unsigned Class;
  unsigned Form;
};

/// Bump allocator over the simulated address space (addresses stay
/// below 64 KiB so the 8086's 16-bit registers reach every byte).
class Layout {
public:
  uint64_t take(uint64_t Bytes) {
    uint64_t At = Next;
    Next = (Next + Bytes + 31) & ~uint64_t(15);
    return At;
  }
  uint64_t end() const { return Next; }

private:
  uint64_t Next = 256;
};

/// Fills with letters 'a'..'p' other than \p Except, or with nonzero
/// bytes.
void fill(interp::Memory &M, uint64_t At, uint64_t Len, std::mt19937_64 &Rng,
          bool Letters, char Except = 0) {
  for (uint64_t I = 0; I < Len; ++I) {
    uint8_t B;
    do
      B = Letters ? static_cast<uint8_t>('a' + Rng() % 16)
                  : static_cast<uint8_t>(1 + Rng() % 255);
    while (Except && B == static_cast<uint8_t>(Except));
    M[At + I] = B;
  }
}

/// A position in the last quarter of a \p Len-byte string, so index and
/// equal scan most of their operand whichever way they end.
uint64_t lateIndex(uint64_t Len, std::mt19937_64 &Rng) {
  return Len - 1 - Rng() % std::max<uint64_t>(1, Len / 4);
}

/// Places one op's buffers and initial bytes.
void placeOp(GenOp &O, Layout &L, interp::Memory &Init, std::mt19937_64 &Rng) {
  switch (O.K) {
  case OpKind::StrMove:
    O.B = L.take(O.Len);
    O.A = L.take(O.Len);
    fill(Init, O.B, O.Len, Rng, false);
    fill(Init, O.A, O.Len, Rng, false);
    break;
  case OpKind::BlockCopy: {
    // Half the copies overlap their source, in either direction: copy is
    // the overlap-safe operator, so the reference is memmove.
    if (O.Len >= 2 && Rng() % 2) {
      uint64_t Shift = 1 + Rng() % (O.Len - 1);
      uint64_t Base = L.take(O.Len + Shift);
      bool DstAbove = Rng() % 2;
      O.A = DstAbove ? Base + Shift : Base;
      O.B = DstAbove ? Base : Base + Shift;
      fill(Init, Base, O.Len + Shift, Rng, false);
    } else {
      O.B = L.take(O.Len);
      O.A = L.take(O.Len);
      fill(Init, O.B, O.Len, Rng, false);
      fill(Init, O.A, O.Len, Rng, false);
    }
    break;
  }
  case OpKind::BlockClear:
    O.A = L.take(O.Len);
    fill(Init, O.A, O.Len, Rng, false);
    break;
  case OpKind::StrIndex: {
    // Seven in ten searches find their character, late in the string.
    bool Found = Rng() % 10 < 7;
    O.Ch = Found ? static_cast<char>('a' + Rng() % 16)
                 : static_cast<char>('q' + Rng() % 10);
    O.A = L.take(O.Len);
    fill(Init, O.A, O.Len, Rng, true, O.Ch);
    if (Found)
      Init[O.A + lateIndex(O.Len, Rng)] = static_cast<uint8_t>(O.Ch);
    break;
  }
  case OpKind::StrEqual: {
    O.A = L.take(O.Len);
    O.B = L.take(O.Len);
    fill(Init, O.A, O.Len, Rng, true);
    for (uint64_t I = 0; I < O.Len; ++I)
      Init[O.B + I] = Init[O.A + I];
    if (Rng() % 2)
      Init[O.B + lateIndex(O.Len, Rng)] = 'z';
    break;
  }
  }
}

std::string lenOperand(const GenOp &O) {
  return O.Form == LenForm::Literal ? std::to_string(O.Len) : O.LenSym;
}

/// Renders the program text and the initial symbol values.
void render(GenProgram &P) {
  std::string S = "! " + P.Id + "\n";
  if (P.NoOverlap)
    S += "assume pascal.no-overlap;\n";
  for (const GenOp &O : P.Ops) {
    if (O.Form == LenForm::Const)
      S += "const " + O.LenSym + " = " + std::to_string(O.Len) + ";\n";
    else if (O.Form == LenForm::Range)
      S += "range " + O.LenSym + " 0 " + std::to_string(O.RangeHi) + ";\n";
    if (O.Form != LenForm::Literal)
      P.Regs[O.LenSym] = static_cast<int64_t>(O.Len);
  }
  for (const GenOp &O : P.Ops) {
    std::string A = std::to_string(O.A), B = std::to_string(O.B);
    std::string N = lenOperand(O);
    switch (O.K) {
    case OpKind::StrMove:
      S += "move(" + A + ", " + B + ", " + N + ");\n";
      break;
    case OpKind::BlockCopy:
      S += "copy(" + A + ", " + B + ", " + N + ");\n";
      break;
    case OpKind::BlockClear:
      S += "clear(" + A + ", " + N + ");\n";
      break;
    case OpKind::StrIndex:
      S += O.Result + " := index(" + A + ", " + N + ", '" + O.Ch + "');\n";
      break;
    case OpKind::StrEqual:
      S += O.Result + " := equal(" + A + ", " + B + ", " + N + ");\n";
      break;
    }
  }
  P.Source = std::move(S);
}

} // namespace

std::vector<GenProgram> generateProgramSet(uint64_t Seed,
                                           const std::string &Prefix,
                                           unsigned Programs) {
  std::mt19937_64 Rng = seededRng(Seed, "compile-execute/" + Prefix);

  // Every program holds the same number of operators of each length
  // class; within a class the (kind, form) pairs cycle through all 25
  // combinations, so every seed compiles the same mix and only the
  // draws — which program gets which pair, the lengths, the bytes —
  // differ.
  std::vector<std::vector<Slot>> ByProgram(Programs);
  for (unsigned C = 0; C < std::size(kClasses); ++C) {
    unsigned N = kClasses[C].PerProgram * Programs;
    std::vector<Slot> Slots;
    for (unsigned I = 0; I < N; ++I)
      Slots.push_back({kKinds[I % std::size(kKinds)], C,
                       (I / static_cast<unsigned>(std::size(kKinds))) %
                           kForms});
    std::shuffle(Slots.begin(), Slots.end(), Rng);
    for (unsigned I = 0; I < N; ++I)
      ByProgram[I / kClasses[C].PerProgram].push_back(Slots[I]);
  }

  std::vector<bool> NoOverlap(Programs);
  for (unsigned P = 0; P < Programs; ++P)
    NoOverlap[P] = P % 2 == 0;
  std::shuffle(NoOverlap.begin(), NoOverlap.end(), Rng);

  std::vector<GenProgram> Out(Programs);
  for (unsigned P = 0; P < Programs; ++P) {
    GenProgram &G = Out[P];
    char Id[64];
    std::snprintf(Id, sizeof(Id), "%s-p%02u", Prefix.c_str(), P);
    G.Id = Id;
    G.NoOverlap = NoOverlap[P];
    std::shuffle(ByProgram[P].begin(), ByProgram[P].end(), Rng);
    Layout L;
    for (unsigned I = 0; I < ByProgram[P].size(); ++I) {
      const Slot &S = ByProgram[P][I];
      GenOp O;
      O.K = S.K;
      const LenClass &LC = kClasses[S.Class];
      O.Len = LC.Lo + Rng() % (LC.Hi - LC.Lo + 1);
      static constexpr LenForm Forms[kForms] = {
          LenForm::Literal, LenForm::Const, LenForm::Range, LenForm::Range,
          LenForm::Unknown};
      O.Form = Forms[S.Form];
      if (S.Form == 2)
        O.RangeHi = O.Len <= 255 ? 255 : 4095; // within 16 bits
      else if (S.Form == 3)
        O.RangeHi = 70000; // above the 8086 and VAX 16-bit counts
      if (O.Form != LenForm::Literal)
        O.LenSym = "len" + std::to_string(I);
      if (O.K == OpKind::StrIndex || O.K == OpKind::StrEqual)
        O.Result = "res" + std::to_string(I);
      placeOp(O, L, G.Init, Rng);
      G.Ops.push_back(std::move(O));
    }
    G.Extent = L.end();
    render(G);
  }
  return Out;
}

GenProgram generateKindProgram(uint64_t Seed, const std::string &Id,
                               OpKind K) {
  std::mt19937_64 Rng = seededRng(Seed, "kind-program/" + Id);
  GenProgram G;
  G.Id = Id;
  G.NoOverlap = true;
  Layout L;
  for (unsigned I = 0; I < 2; ++I) {
    GenOp O;
    O.K = K;
    O.Len = 1 + Rng() % 200;
    O.Form = LenForm::Literal;
    if (K == OpKind::StrIndex || K == OpKind::StrEqual)
      O.Result = "res" + std::to_string(I);
    placeOp(O, L, G.Init, Rng);
    G.Ops.push_back(std::move(O));
  }
  G.Extent = L.end();
  render(G);
  return G;
}

RefState reference(const GenProgram &P) {
  RefState S;
  S.Mem.assign(P.Extent, 0);
  for (const auto &[Addr, V] : P.Init)
    S.Mem[Addr] = V;
  for (const GenOp &O : P.Ops) {
    uint8_t *M = S.Mem.data();
    switch (O.K) {
    case OpKind::StrMove:
    case OpKind::BlockCopy:
      std::memmove(M + O.A, M + O.B, O.Len);
      break;
    case OpKind::BlockClear:
      std::memset(M + O.A, 0, O.Len);
      break;
    case OpKind::StrIndex: {
      int64_t At = 0;
      for (uint64_t I = 0; I < O.Len && !At; ++I)
        if (M[O.A + I] == static_cast<uint8_t>(O.Ch))
          At = static_cast<int64_t>(I + 1);
      S.Results[O.Result] = At;
      break;
    }
    case OpKind::StrEqual:
      S.Results[O.Result] = std::memcmp(M + O.A, M + O.B, O.Len) == 0;
      break;
    }
  }
  return S;
}

namespace {

sim::SimResult simulate(MachineKind M, const std::vector<std::string> &Asm,
                        const GenProgram &G) {
  switch (M) {
  case MachineKind::I8086:
    return sim::run8086(Asm, G.Init, G.Regs);
  case MachineKind::Vax:
    return sim::runVax(Asm, G.Init, G.Regs);
  case MachineKind::Ibm370:
    return sim::run370(Asm, G.Init, G.Regs);
  }
  return {};
}

/// The first difference between a simulated final state and the
/// reference.
struct Mismatch {
  std::string Text; ///< Empty when the states agree.
  bool InMemory = false;
  uint64_t Addr = 0;
  std::string Result; ///< The result symbol that differs.
};

Mismatch differs(const sim::SimResult &S, const GenProgram &G,
                 const RefState &Ref) {
  Mismatch Out;
  auto AtAddr = [&](uint64_t Addr, uint8_t Got, uint8_t Want) {
    Out.InMemory = true;
    Out.Addr = Addr;
    Out.Text = "memory[" + std::to_string(Addr) + "] = " +
               std::to_string(Got) + ", reference " + std::to_string(Want);
    return Out;
  };
  // One ordered walk: every address the simulator wrote must carry the
  // reference byte, and every address it never wrote must be zero.
  auto It = S.Mem.begin();
  for (uint64_t Addr = 0; Addr < Ref.Mem.size(); ++Addr) {
    uint8_t Got = 0;
    if (It != S.Mem.end() && It->first == Addr)
      Got = (It++)->second;
    if (Got != Ref.Mem[Addr])
      return AtAddr(Addr, Got, Ref.Mem[Addr]);
  }
  for (; It != S.Mem.end(); ++It)
    if (It->second)
      return AtAddr(It->first, It->second, 0);
  for (const GenOp &O : G.Ops)
    if (!O.Result.empty() && S.reg(O.Result) != Ref.Results.at(O.Result)) {
      Out.Result = O.Result;
      Out.Text = O.Result + " = " + std::to_string(S.reg(O.Result)) +
                 ", reference " + std::to_string(Ref.Results.at(O.Result));
      return Out;
    }
  return Out;
}

/// The known miscompile that explains \p D, or an empty string. Each
/// defect is matched narrowly, on the machine and build it affects and
/// on the operand that went wrong, so any other wrong result stays
/// unexplained.
std::string knownDefect(MachineKind M, bool Registry, const GenProgram &G,
                        const Mismatch &D) {
  // overlap-copy: a copy whose destination overlaps its source from above
  // is decomposed as a forward loop on the VAX and the 370
  // (VaxTarget.cpp, Ibm370Target.cpp), so it is wrong wherever no exotic
  // binding takes it. Ops never share buffers, so the first wrong byte
  // lies in the copy's own destination.
  if (D.InMemory && M != MachineKind::I8086)
    for (const GenOp &O : G.Ops)
      if (O.K == OpKind::BlockCopy && O.B < O.A && O.A < O.B + O.Len &&
          O.A <= D.Addr && D.Addr < O.A + O.Len)
        return "overlap-copy";
  // vax-r2-reuse: the VAX movc3 kernels (BindingCompiler.cpp) list only
  // r1 and r3 as clobbered, but movc3 also zeroes r2, so a second
  // registry-compiled index for a character already sought skips
  // reloading r2 and searches for 0.
  if (!D.Result.empty() && M == MachineKind::Vax && Registry) {
    std::string Sought;
    for (const GenOp &O : G.Ops) {
      if (O.K != OpKind::StrIndex)
        continue;
      if (O.Result == D.Result)
        return Sought.find(O.Ch) != std::string::npos ? "vax-r2-reuse" : "";
      Sought += O.Ch;
    }
  }
  return std::string();
}

} // namespace

void SideRun::report(Problems &P, const std::string &Where) const {
  if (Ok)
    return;
  if (Defect.empty())
    P.fail(Where + ": " + Error);
  else
    P.defect(Defect, Where + ": " + Error);
}

SideRun compileAndRun(RunContext &R, MachineKind M, bool Registry,
                      const codegen::Target &T, const codegen::Program &P,
                      const GenProgram &G, const RefState &Ref,
                      uint64_t Parent) {
  obs::TraceSink &Sink = R.Trace.sink();
  SideRun Out;
  codegen::CodeGenResult Code;
  {
    obs::ScopedSpan Span(Sink, "codegen.generate", Parent);
    Code = T.generate(P);
  }
  std::vector<std::string> Asm;
  {
    obs::ScopedSpan Span(Sink, "codegen.peephole", Parent);
    Asm = codegen::peephole(std::move(Code.Asm));
  }
  sim::SimResult S;
  {
    obs::ScopedSpan Span(Sink, "sim.run", Parent);
    S = simulate(M, Asm, G);
  }
  obs::ScopedSpan Check(Sink, "bench.check", Parent);
  Out.Exotic = Code.ExoticCount;
  Out.Decomposed = Code.DecomposedCount;
  Out.Lines = sim::codeSize(Asm, ';');
  Out.Dispatches = S.Instructions;
  Out.MicroOps = S.MicroOps;
  if (!S.Ok) {
    Out.Error = "simulation failed: " + S.Error;
    return Out;
  }
  Mismatch D = differs(S, G, Ref);
  Out.Ok = D.Text.empty();
  Out.Error = D.Text;
  if (!Out.Ok)
    Out.Defect = knownDefect(M, Registry, G, D);
  uint64_t H = digest(std::to_string(S.Instructions) + "/" +
                      std::to_string(S.MicroOps));
  for (const std::string &Line : Asm)
    H = digest(Line, H);
  for (const auto &[Name, V] : S.Regs)
    H = digest(Name + "=" + std::to_string(V), H);
  Out.Digest = H;
  return Out;
}

void addSideSums(RunContext &R, const SideRun &Registry, const SideRun &Bare,
                 unsigned Ops) {
  LayerSums &L = R.Layers;
  L.add("cg.ops", Ops);
  L.add("cg.reg.exotic", Registry.Exotic);
  L.add("cg.decomposed", Registry.Decomposed + Bare.Decomposed);
  L.add("cg.reg.lines", Registry.Lines);
  L.add("cg.bare.lines", Bare.Lines);
  L.add("cg.reg.dispatches", double(Registry.Dispatches));
  L.add("cg.bare.dispatches", double(Bare.Dispatches));
  L.add("cg.micro_ops", double(Registry.MicroOps + Bare.MicroOps));
}

void codegenLayers(const RunContext &R, std::map<std::string, double> &Out) {
  double Passes = std::max(1u, R.TracedPasses);
  const LayerSums &L = R.Layers;
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };
  double RegLines = L.get("cg.reg.lines"), BareLines = L.get("cg.bare.lines");
  double RegDisp = L.get("cg.reg.dispatches");
  double BareDisp = L.get("cg.bare.dispatches");
  Out["codegen.exotic_ops"] = L.get("cg.reg.exotic") / Passes;
  Out["codegen.decomposed_ops"] = L.get("cg.decomposed") / Passes;
  Out["codegen.lines"] = (RegLines + BareLines) / Passes;
  Out["codegen.exotic_share"] = Ratio(L.get("cg.reg.exotic"), L.get("cg.ops"));
  Out["codegen.code_size_ratio"] = Ratio(RegLines, BareLines);
  Out["sim.dispatches"] = (RegDisp + BareDisp) / Passes;
  Out["sim.micro_ops"] = L.get("cg.micro_ops") / Passes;
  Out["sim.dispatch_ratio"] = Ratio(RegDisp, BareDisp);
}

} // namespace perfbench
