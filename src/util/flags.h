#ifndef MOVD_UTIL_FLAGS_H_
#define MOVD_UTIL_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace movd {

/// Minimal command-line flag parser used by the benchmark and example
/// binaries. Accepts `--name=value` and bare `--name` (boolean true).
/// Unknown arguments are preserved in positional().
///
/// Every Get*/Has call records the queried name; WarnUnused reports flags
/// that were passed but never queried, so a typo'd `--flagname` is loudly
/// surfaced instead of silently ignored. A value that does not parse as
/// the type it is read as (`--threads=four`) is recorded too, and
/// ReportMalformed names it. Binaries call both once at the end of Main,
/// after every flag has been read, and exit 2 on a malformed value.
class Flags {
 public:
  Flags(int argc, char** argv);

  /// Returns the string value of --name, or `def` when absent.
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Returns the integer value of --name, or `def` when absent or malformed
  /// (a malformed value is recorded for ReportMalformed).
  int64_t GetInt(const std::string& name, int64_t def) const;

  /// Returns the double value of --name, or `def` when absent or malformed
  /// (a malformed value is recorded for ReportMalformed).
  double GetDouble(const std::string& name, double def) const;

  /// Returns the comma-separated list of non-negative integers in --name
  /// (`--sizes=16,32`), or the list `def` spells when absent or malformed.
  /// Every element must parse whole: `16,3x` and `16,,32` are malformed and
  /// recorded, never read as a prefix or a zero.
  std::vector<size_t> GetSizeList(const std::string& name,
                                  const std::string& def) const;

  /// As GetSizeList, for a comma-separated list of numbers
  /// (`--epsilons=1e-2,1e-3`).
  std::vector<double> GetDoubleList(const std::string& name,
                                    const std::string& def) const;

  /// Returns the value of --name: true for a bare `--name` or `=true`/`=1`,
  /// false for `=false`/`=0`, `def` when absent. Any other value is
  /// malformed: `def` is returned and the value recorded.
  bool GetBool(const std::string& name, bool def) const;

  /// Whether --name appeared at all.
  bool Has(const std::string& name) const;

  /// Arguments that did not start with `--`.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Prints one warning line to `out` for every flag that was passed on
  /// the command line but never queried through Get*/Has — almost always a
  /// misspelled flag name. Returns the number of warnings printed.
  int WarnUnused(std::FILE* out) const;

  /// Prints one error line to `out` for every flag whose value did not
  /// parse as the type it was read as. Returns the number of such flags.
  int ReportMalformed(std::FILE* out) const;

 private:
  /// The value of --name (null when absent); records the query.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Names queried so far; mutable so the const accessors can record.
  mutable std::set<std::string> queried_;
  /// Flags whose value failed to parse, with the type they were read as.
  mutable std::map<std::string, const char*> malformed_;
};

}  // namespace movd

#endif  // MOVD_UTIL_FLAGS_H_
