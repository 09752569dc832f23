#include "storage/streaming_overlap.h"

#include <limits>
#include <list>
#include <map>
#include <queue>

#include "core/overlap.h"
#include "storage/movd_file.h"
#include "util/check.h"

namespace movd {
namespace {

// One input's set of OVRs whose y-span intersects the sweep line. Supports
// the three operations the streaming sweep needs: insert a new arrival,
// evict everything that ended above the sweep line, and enumerate
// candidates overlapping an x-range.
class ActiveSet {
 public:
  void Insert(Ovr ovr, uint64_t* bytes_delta) {
    storage_.push_front(std::move(ovr));
    const auto it = storage_.begin();
    const uint64_t size = SerializedOvrSize(*it);
    bytes_ += size;
    *bytes_delta = size;
    const auto map_it = by_min_x_.emplace(it->mbr.min_x, it);
    eviction_.push({it->mbr.min_y, map_it});
  }

  // Removes every OVR whose y-span lies strictly above `y` (min_y > y).
  void EvictAbove(double y) {
    while (!eviction_.empty() && eviction_.top().min_y > y) {
      const auto map_it = eviction_.top().map_it;
      eviction_.pop();
      bytes_ -= SerializedOvrSize(*map_it->second);
      storage_.erase(map_it->second);
      by_min_x_.erase(map_it);
    }
  }

  // Calls fn(ovr) for every active OVR whose x-range intersects
  // [min_x, max_x].
  template <typename Fn>
  void ForEachXOverlap(double min_x, double max_x, Fn fn) const {
    const auto end = by_min_x_.upper_bound(max_x);
    for (auto it = by_min_x_.begin(); it != end; ++it) {
      if (it->second->mbr.max_x >= min_x) fn(*it->second);
    }
  }

  uint64_t bytes() const { return bytes_; }
  size_t size() const { return storage_.size(); }

 private:
  struct Eviction {
    double min_y;
    std::multimap<double, std::list<Ovr>::iterator>::iterator map_it;
    bool operator<(const Eviction& o) const { return min_y < o.min_y; }
  };

  std::list<Ovr> storage_;
  std::multimap<double, std::list<Ovr>::iterator> by_min_x_;
  std::priority_queue<Eviction> eviction_;  // max-heap on min_y
  uint64_t bytes_ = 0;
};

}  // namespace

bool StreamingOverlap(const std::string& sorted_a_path,
                      const std::string& sorted_b_path, BoundaryMode mode,
                      const std::string& output_path,
                      StreamingOverlapStats* stats) {
  MovdFileReader reader_a(sorted_a_path);
  MovdFileReader reader_b(sorted_b_path);
  if (!reader_a.ok() || !reader_b.ok()) return false;
  MovdFileWriter writer(output_path);

  ActiveSet active_a, active_b;
  StreamingOverlapStats local;
  OvrTable hit;  // one pair's result, written out at once

  std::optional<Ovr> head_a = reader_a.Next();
  std::optional<Ovr> head_b = reader_b.Next();
  double prev_y = std::numeric_limits<double>::infinity();

  while (head_a.has_value() || head_b.has_value()) {
    // Pop the stream whose next start event is higher.
    const bool take_a =
        head_a.has_value() &&
        (!head_b.has_value() || head_a->mbr.max_y >= head_b->mbr.max_y);
    Ovr ovr = take_a ? std::move(*head_a) : std::move(*head_b);
    if (take_a) {
      head_a = reader_a.Next();
    } else {
      head_b = reader_b.Next();
    }
    const double y = ovr.mbr.max_y;
    if (y > prev_y) return false;  // input not in sweep order
    prev_y = y;

    ActiveSet& current = take_a ? active_a : active_b;
    ActiveSet& other = take_a ? active_b : active_a;
    // End events: everything that finished strictly above the sweep line.
    current.EvictAbove(y);
    other.EvictAbove(y);

    // Pair the new arrival against the other input's active OVRs.
    other.ForEachXOverlap(ovr.mbr.min_x, ovr.mbr.max_x, [&](const Ovr& cand) {
      ++local.candidate_pairs;
      if (IntersectOvrPair(ovr, cand, mode, &hit)) {
        ++local.output_ovrs;
        writer.Append(hit[0]);
        hit.clear();
      }
    });

    uint64_t delta = 0;
    current.Insert(std::move(ovr), &delta);
    local.peak_active_bytes = std::max(
        local.peak_active_bytes, active_a.bytes() + active_b.bytes());
    local.peak_active_ovrs = std::max<uint64_t>(
        local.peak_active_ovrs, active_a.size() + active_b.size());
  }

  if (stats != nullptr) *stats = local;
  return writer.Close().ok();
}

}  // namespace movd
