// Args: the command-line flags of the wavekit tools (waved, wavectl,
// sim_torture).
//
// A flag is `--key=value`, or `--key` alone for "true"; anything else is a
// stray operand. A tool names the keys it understands and rejects the rest
// through Unknown(). The typed getters reject a value that does not parse
// whole as their type. Both are usage errors, which every tool reports with
// exit status 2.

#ifndef WAVEKIT_UTIL_ARGS_H_
#define WAVEKIT_UTIL_ARGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wavekit {

class Args {
 public:
  /// Parses argv[first..argc); argv[0] names the tool in error messages.
  Args(int argc, char** argv, int first = 1);

  std::string Get(const std::string& key, const std::string& fallback) const;

  /// Typed getters: `fallback` when the flag is absent. A malformed or
  /// out-of-range value is a usage error: the getter prints it to stderr and
  /// exits the process with status 2.
  int GetInt(const std::string& key, int fallback) const;
  /// GetInt that also rejects a value outside [lo, hi]; the fallback is not
  /// checked.
  int GetInt(const std::string& key, int fallback, int lo, int hi) const;
  uint64_t GetU64(const std::string& key, uint64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  /// "true" or "1" (and a bare `--key`) is true, "false" or "0" is false.
  bool GetBool(const std::string& key, bool fallback = false) const;

  bool Has(const std::string& key) const { return values_.contains(key); }

  /// Arguments the tool does not understand: every flag whose key is absent
  /// from `allowed` (rendered back as "--key"), then the stray operands, in
  /// command-line order.
  std::vector<std::string> Unknown(
      const std::vector<std::string>& allowed) const;

 private:
  [[noreturn]] void BadValue(const std::string& key,
                             const std::string& want) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> seen_;   // flag keys, in command-line order
  std::vector<std::string> stray_;  // non-flag operands
};

}  // namespace wavekit

#endif  // WAVEKIT_UTIL_ARGS_H_
