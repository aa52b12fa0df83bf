//===- Programs.h - Seeded source programs and their reference --*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generated programs in codegen's source language (codegen/Frontend.h)
/// together with an independent reference model of the five string
/// operators — move, copy, clear, index, equal — over a flat byte array.
/// The reference never consults codegen, a target's decomposition rules
/// or a simulator: it is the benchmark's own statement of what each
/// operator means, so both the registry build and the decomposition-only
/// build of every program are checked against it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROGRAMS_H
#define PERFBENCH_PROGRAMS_H

#include "Common.h"

#include "codegen/IR.h"
#include "codegen/Target.h"
#include "interp/Interp.h"
#include "registry/Harness.h"

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using extra::registry::allMachines;
using extra::registry::MachineKind;
using extra::registry::machineName;

/// A fresh bootstrap target with its hand-built table dropped.
std::unique_ptr<extra::codegen::Target> emptyTarget(MachineKind M);

/// How a length operand reaches the code generator: the §6 constraint
/// check passes or fails depending on what the front end knows.
enum class LenForm {
  Literal, ///< move(d, s, 40)
  Const,   ///< const n = 40; move(d, s, n)
  Range,   ///< range n 0 HI; move(d, s, n) — HI may exceed a machine limit
  Unknown, ///< move(d, s, n) with n known only at run time
};

/// One generated operator application.
struct GenOp {
  extra::codegen::OpKind K = extra::codegen::OpKind::StrMove;
  uint64_t A = 0;   ///< dst (move/copy/clear) or the string (index/equal).
  uint64_t B = 0;   ///< src (move/copy) or the second string (equal).
  uint64_t Len = 0; ///< Run-time length.
  LenForm Form = LenForm::Literal;
  int64_t RangeHi = 0;
  char Ch = 'a';          ///< index: the character sought.
  std::string LenSym;     ///< Symbol carrying Len unless Literal.
  std::string Result;     ///< index/equal result symbol.
};

/// One generated program with its initial state.
struct GenProgram {
  std::string Id;
  std::vector<GenOp> Ops;
  bool NoOverlap = false;
  /// Initial memory: the bytes every op reads.
  extra::interp::Memory Init;
  /// Initial symbol values (the run-time lengths).
  std::map<std::string, int64_t> Regs;
  /// One past the highest address any op touches.
  uint64_t Extent = 0;
  /// The program as source text for codegen::parseProgram.
  std::string Source;
  unsigned stringOps() const { return static_cast<unsigned>(Ops.size()); }
};

/// The compile-execute set for one seed: programs stratified so every
/// seed carries the same mix of operators, length classes (below and
/// above the 8086/VAX 16-bit counts and the 370's 256-byte mvc), length
/// forms, overlap assumptions and footprints — only the draws differ.
std::vector<GenProgram> generateProgramSet(uint64_t Seed,
                                           const std::string &Prefix,
                                           unsigned Programs);

/// A small program exercising one operator kind with literal lengths
/// that every exotic binding accepts, under the no-overlap assumption
/// (discover-verify's differential execution of a freshly compiled
/// binding).
GenProgram generateKindProgram(uint64_t Seed, const std::string &Id,
                               extra::codegen::OpKind K);

/// The reference model's final state.
struct RefState {
  std::vector<uint8_t> Mem; ///< Bytes [0, Extent).
  std::map<std::string, int64_t> Results;
};
RefState reference(const GenProgram &P);

/// One compiled-and-executed build of a program on one machine.
struct SideRun {
  bool Ok = false;
  std::string Error;
  uint64_t Dispatches = 0;
  uint64_t MicroOps = 0;
  unsigned Lines = 0;
  unsigned Exotic = 0;
  unsigned Decomposed = 0;
  uint64_t Digest = 0; ///< Digest of the emitted code and final state.
  /// When the final state is wrong and a known defect of the program
  /// explains it, the defect's name.
  std::string Defect;

  /// Adds this build's failure, if any, to \p P.
  void report(Problems &P, const std::string &Where) const;
};

/// Generates, peepholes and simulates \p P on \p T (the registry build
/// when \p Registry), then compares the final memory and result registers
/// with \p Ref. Spans (codegen.generate, codegen.peephole, sim.run,
/// bench.check) go under \p Parent.
SideRun compileAndRun(RunContext &R, MachineKind M, bool Registry,
                      const extra::codegen::Target &T,
                      const extra::codegen::Program &P, const GenProgram &G,
                      const RefState &Ref, uint64_t Parent);

/// Adds one program's two builds (registry, decomposition-only) of
/// \p Ops string operators to the traced sums.
void addSideSums(RunContext &R, const SideRun &Registry, const SideRun &Bare,
                 unsigned Ops);

/// The codegen and sim per-layer counts and ratios from those sums.
void codegenLayers(const RunContext &R, std::map<std::string, double> &Out);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_H
