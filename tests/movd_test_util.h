#ifndef MOVD_TESTS_MOVD_TEST_UTIL_H_
#define MOVD_TESTS_MOVD_TEST_UTIL_H_

#include <vector>

#include "model/movd_model.h"

namespace movd {

/// Deep copies of every OVR of `movd`, in order. An OvrTable is
/// append-only, so a test that corrupts, drops or reorders OVRs edits
/// these records and rebuilds the table with FromOvrs.
inline std::vector<Ovr> ToOvrs(const Movd& movd) {
  std::vector<Ovr> out;
  out.reserve(movd.ovrs.size());
  for (const OvrView ovr : movd.ovrs) out.emplace_back(ovr);
  return out;
}

/// A MOVD holding `ovrs`, in order.
inline Movd FromOvrs(const std::vector<Ovr>& ovrs) {
  Movd out;
  for (const Ovr& ovr : ovrs) out.ovrs.push_back(ovr);
  return out;
}

}  // namespace movd

#endif  // MOVD_TESTS_MOVD_TEST_UTIL_H_
