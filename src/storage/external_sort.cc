#include "storage/external_sort.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <queue>
#include <vector>

#include "storage/movd_file.h"
#include "util/check.h"

namespace movd {
namespace {

// Sweep start-event order: descending max_y, ties by descending min_y.
bool SweepBefore(const OvrView& a, const OvrView& b) {
  if (a.mbr.max_y != b.mbr.max_y) return a.mbr.max_y > b.mbr.max_y;
  return a.mbr.min_y > b.mbr.min_y;
}

// Writes `buffer` to `path` in sweep order. stable_sort over indices: the
// buffer holds records in deterministic file order, so OVRs tying on
// (max_y, min_y) keep that order regardless of the sort implementation and
// the output is byte-stable.
bool WriteSorted(const OvrTable& buffer, const std::string& path) {
  std::vector<uint32_t> order(buffer.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return SweepBefore(buffer[a], buffer[b]);
  });
  MovdFileWriter writer(path);
  for (const uint32_t i : order) writer.Append(buffer[i]);
  return writer.Close().ok();
}

std::string RunPath(const std::string& output_path, uint64_t run) {
  return output_path + ".run" + std::to_string(run);
}

}  // namespace

bool ExternalSortMovdFile(const std::string& input_path,
                          const std::string& output_path,
                          size_t memory_budget_bytes,
                          ExternalSortStats* stats) {
  MovdFileReader reader(input_path);
  if (!reader.ok()) return false;

  // Phase 1: produce sorted runs under the memory budget.
  std::vector<std::string> run_paths;
  OvrTable buffer;
  size_t buffer_bytes = 0;
  uint64_t records = 0;
  uint64_t peak_bytes = 0;

  const auto spill = [&]() -> bool {
    if (buffer.empty()) return true;
    const std::string path = RunPath(output_path, run_paths.size());
    if (!WriteSorted(buffer, path)) return false;
    run_paths.push_back(path);
    buffer.clear();
    buffer_bytes = 0;
    return true;
  };

  while (auto ovr = reader.Next()) {
    buffer_bytes += SerializedOvrSize(*ovr);
    peak_bytes = std::max<uint64_t>(peak_bytes, buffer_bytes);
    buffer.push_back(*ovr);
    ++records;
    if (buffer_bytes >= memory_budget_bytes) {
      if (!spill()) return false;
    }
  }

  // Single-run fast path: write directly.
  if (run_paths.empty()) {
    if (!WriteSorted(buffer, output_path)) return false;
    if (stats != nullptr) {
      stats->records = records;
      stats->runs = 1;
      stats->peak_bytes = peak_bytes;
    }
    return true;
  }
  if (!spill()) return false;

  // Phase 2: k-way merge of the runs.
  struct Source {
    std::unique_ptr<MovdFileReader> reader;
    Ovr head;
  };
  std::vector<Source> sources;
  sources.reserve(run_paths.size());
  for (const std::string& path : run_paths) {
    Source src;
    src.reader = std::make_unique<MovdFileReader>(path);
    if (!src.reader->ok()) return false;
    if (auto head = src.reader->Next()) {
      src.head = std::move(*head);
      sources.push_back(std::move(src));
    }
  }
  const auto later = [&](size_t a, size_t b) {
    return SweepBefore(sources[b].head, sources[a].head);
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(later)> heap(
      later);
  for (size_t i = 0; i < sources.size(); ++i) heap.push(i);

  MovdFileWriter writer(output_path);
  while (!heap.empty()) {
    const size_t i = heap.top();
    heap.pop();
    writer.Append(sources[i].head);
    if (auto next = sources[i].reader->Next()) {
      sources[i].head = std::move(*next);
      heap.push(i);
    }
  }
  if (!writer.Close()) return false;
  for (const std::string& path : run_paths) std::remove(path.c_str());

  if (stats != nullptr) {
    stats->records = records;
    stats->runs = run_paths.size();
    stats->peak_bytes = peak_bytes;
  }
  return true;
}

}  // namespace movd
