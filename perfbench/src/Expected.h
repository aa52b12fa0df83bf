//===- Expected.h - The committed expected-counts file ----------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact-count gate. Every deterministic counter the benchmark relies
/// on — per pairing: outcome, script lengths, nodes expanded, candidates
/// tried, table hits, rounds; per generated program: dispatches, code
/// size, exotic count — is committed in `perfbench/expected_counts.txt`,
/// one record per line:
///
///     pairing vax.movc3/pc2.copy outcome=verified op_steps=2 ...
///     program ref-p03/vax/registry dispatches=412 lines=37 exotic=3
///
/// A record that differs is a failed operation whose message names the
/// counter that moved. `perfbench --write-expected` regenerates the file;
/// every intended change to it is explained in CHANGES.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EXPECTED_H
#define PERFBENCH_EXPECTED_H

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered key=value counters of one record.
using Counts = std::vector<std::pair<std::string, std::string>>;

/// Renders one record line.
std::string recordLine(const std::string &Kind, const std::string &Id,
                       const Counts &C);

class ExpectedCounts {
public:
  /// Loads \p Path; false (with \p Error) when unreadable or malformed.
  bool load(const std::string &Path, std::string &Error);
  /// Compares \p Actual with the committed record. Returns an empty
  /// string when equal, else a message naming every counter that moved
  /// (or the missing record).
  std::string compare(const std::string &Kind, const std::string &Id,
                      const Counts &Actual) const;

private:
  std::map<std::string, std::map<std::string, std::string>> Records;
};

} // namespace perfbench

#endif // PERFBENCH_EXPECTED_H
