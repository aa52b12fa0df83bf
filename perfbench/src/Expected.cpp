//===- Expected.cpp - The committed expected-counts file --------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//

#include "Expected.h"

#include <fstream>
#include <sstream>

namespace perfbench {

std::string recordLine(const std::string &Kind, const std::string &Id,
                       const Counts &C) {
  std::string Line = Kind + " " + Id;
  for (const auto &[K, V] : C)
    Line += " " + K + "=" + V;
  return Line;
}

bool ExpectedCounts::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read expected counts '" + Path + "'";
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Words(Line);
    std::string Kind, Id, Field;
    if (!(Words >> Kind >> Id)) {
      Error = Path + ":" + std::to_string(LineNo) + ": malformed record";
      return false;
    }
    auto &Fields = Records[Kind + " " + Id];
    while (Words >> Field) {
      size_t Eq = Field.find('=');
      if (Eq == std::string::npos) {
        Error = Path + ":" + std::to_string(LineNo) + ": field '" + Field +
                "' is not key=value";
        return false;
      }
      Fields[Field.substr(0, Eq)] = Field.substr(Eq + 1);
    }
  }
  return true;
}

std::string ExpectedCounts::compare(const std::string &Kind,
                                    const std::string &Id,
                                    const Counts &Actual) const {
  auto It = Records.find(Kind + " " + Id);
  if (It == Records.end())
    return Kind + " " + Id + ": no expected record";
  std::string Moved;
  for (const auto &[K, V] : Actual) {
    auto F = It->second.find(K);
    std::string Want = F == It->second.end() ? "<absent>" : F->second;
    if (Want != V)
      Moved += (Moved.empty() ? "" : ", ") + K + " expected " + Want +
               " got " + V;
  }
  return Moved.empty() ? std::string() : Kind + " " + Id + ": " + Moved;
}

} // namespace perfbench
