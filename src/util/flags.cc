#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace movd {
namespace {

/// Whole-string integer / number parses: empty, partly numeric or
/// out-of-range text fails.
bool ParseInt(const std::string& s, int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const int64_t v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

/// Parses every element of a comma-separated list with `parse`; false when
/// any element (an empty one included) does not parse.
template <typename T, typename Parse>
bool ParseList(const std::string& csv, Parse parse, std::vector<T>* out) {
  out->clear();
  size_t pos = 0;
  while (true) {
    const size_t comma = std::min(csv.find(',', pos), csv.size());
    T v{};
    if (!parse(csv.substr(pos, comma - pos), &v)) return false;
    out->push_back(v);
    if (comma == csv.size()) return true;
    pos = comma + 1;
  }
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

const std::string* Flags::Find(const std::string& name) const {
  queried_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  const std::string* value = Find(name);
  return value == nullptr ? def : *value;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  int64_t v = 0;
  if (!ParseInt(*value, &v)) {
    malformed_.emplace(name, "an integer");
    return def;
  }
  return v;
}

double Flags::GetDouble(const std::string& name, double def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  double v = 0.0;
  if (!ParseDouble(*value, &v)) {
    malformed_.emplace(name, "a number");
    return def;
  }
  return v;
}

std::vector<size_t> Flags::GetSizeList(const std::string& name,
                                       const std::string& def) const {
  const auto parse = [](const std::string& s, size_t* out) {
    int64_t v = 0;
    if (!ParseInt(s, &v) || v < 0) return false;
    *out = static_cast<size_t>(v);
    return true;
  };
  std::vector<size_t> list;
  const std::string* value = Find(name);
  if (value != nullptr && ParseList(*value, parse, &list)) return list;
  if (value != nullptr) {
    malformed_.emplace(name, "a list of non-negative integers");
  }
  ParseList(def, parse, &list);
  return list;
}

std::vector<double> Flags::GetDoubleList(const std::string& name,
                                         const std::string& def) const {
  std::vector<double> list;
  const std::string* value = Find(name);
  if (value != nullptr && ParseList(*value, ParseDouble, &list)) return list;
  if (value != nullptr) malformed_.emplace(name, "a list of numbers");
  ParseList(def, ParseDouble, &list);
  return list;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const std::string* value = Find(name);
  if (value == nullptr) return def;
  if (*value == "true" || *value == "1") return true;
  if (*value == "false" || *value == "0") return false;
  malformed_.emplace(name, "true, false, 1 or 0");
  return def;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int Flags::WarnUnused(std::FILE* out) const {
  int warned = 0;
  for (const auto& [name, value] : values_) {
    if (queried_.count(name)) continue;
    std::fprintf(out,
                 "warning: unknown flag --%s=%s was never read "
                 "(misspelled flag name?)\n",
                 name.c_str(), value.c_str());
    ++warned;
  }
  return warned;
}

int Flags::ReportMalformed(std::FILE* out) const {
  for (const auto& [name, expected] : malformed_) {
    std::fprintf(out, "error: --%s=%s is not %s\n", name.c_str(),
                 values_.at(name).c_str(), expected);
  }
  return static_cast<int>(malformed_.size());
}

}  // namespace movd
