//===- Nesting.h - Verification time nested in rule application -*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The searcher verifies a step either after the fact (a plain candidate,
/// once the transposition table has let it through) or inline, inside
/// transform::Engine::apply (macro moves and synthesized proposals). An
/// inline verification's time is therefore in both the program's
/// `verify.ns` and `transform.apply_ns` histograms, and splitting the
/// search span by the two would count it twice.
///
/// The benchmark links with GNU ld's `--wrap` on obs::Histogram::record
/// (perfbench/CMakeLists.txt): while a watch is set, every sample recorded
/// into the watched histograms passes through here first. A record marks
/// the end of the timed interval, so a verification sample that ended
/// inside the interval of the next rule application recorded on the same
/// thread was nested in it. Nothing in the program changes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_NESTING_H
#define PERFBENCH_NESTING_H

#include "obs/Metrics.h"

#include <cstdint>

namespace perfbench {

/// Starts watching \p Apply (transform.apply_ns) and \p Verify
/// (verify.ns) of one registry; null stops the watch.
void watchNesting(extra::obs::Histogram *Apply, extra::obs::Histogram *Verify);

/// Verification time, in ns, recorded inside a rule application while
/// the watch was set.
uint64_t nestedVerifyNs();

} // namespace perfbench

#endif // PERFBENCH_NESTING_H
