#include "util/args.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>

namespace wavekit {
namespace {

/// True when `text` parses whole as a T (no sign for unsigned types, no
/// leading blanks, no trailing bytes, in range).
template <typename T>
bool ParseWhole(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, *out);
  return error == std::errc() && ptr == end && !text.empty();
}

}  // namespace

Args::Args(int argc, char** argv, int first) {
  if (argc > 0) {
    program_ = argv[0];
    program_ = program_.substr(program_.find_last_of('/') + 1);
  }
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      stray_.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    values_[key] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
    seen_.push_back(key);
  }
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int Args::GetInt(const std::string& key, int fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  int value = 0;
  if (!ParseWhole(it->second, &value)) BadValue(key, "an integer");
  return value;
}

int Args::GetInt(const std::string& key, int fallback, int lo,
                 int hi) const {
  const int value = GetInt(key, fallback);
  if (Has(key) && (value < lo || value > hi)) {
    BadValue(key, "an integer in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
  }
  return value;
}

uint64_t Args::GetU64(const std::string& key, uint64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  uint64_t value = 0;
  if (!ParseWhole(it->second, &value)) {
    BadValue(key, "a non-negative integer");
  }
  return value;
}

double Args::GetDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double value = 0;
  if (!ParseWhole(it->second, &value)) BadValue(key, "a number");
  return value;
}

bool Args::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  BadValue(key, "true or false");
}

std::vector<std::string> Args::Unknown(
    const std::vector<std::string>& allowed) const {
  std::vector<std::string> unknown;
  for (const std::string& key : seen_) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      unknown.push_back("--" + key);
    }
  }
  unknown.insert(unknown.end(), stray_.begin(), stray_.end());
  return unknown;
}

void Args::BadValue(const std::string& key, const std::string& want) const {
  std::cerr << program_ << ": --" << key << "='" << Get(key, "")
            << "' is not " << want << "\n";
  std::exit(2);
}

}  // namespace wavekit
