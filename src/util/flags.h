// Minimal command-line flag parser for bench/example/tool binaries, and
// the main() wrapper they all share.
//
// Supports `--name value` and `--name=value`; a boolean given bare
// (`--name`, or followed by another flag) means true. An unknown flag or a
// bad value throws UsageError, which run_main turns into exit status 2, so
// typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fedsu::util {

// Misuse of a binary's command line: an unknown flag, a missing or
// malformed value, a positional argument.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Runs a binary's body and returns its exit status. A UsageError prints
// one line to stderr and returns 2; any other exception prints one line and
// returns 1.
int run_main(int argc, char** argv, int (*body)(int argc, char** argv));

class Flags {
 public:
  // Registration returns *this for chaining.
  Flags& add_int(const std::string& name, long long def, const std::string& help);
  Flags& add_double(const std::string& name, double def, const std::string& help);
  Flags& add_string(const std::string& name, const std::string& def,
                    const std::string& help);
  Flags& add_bool(const std::string& name, bool def, const std::string& help);

  // Parses argv. On `--help` prints usage and returns false (caller should
  // exit 0). Throws UsageError on unknown flags or bad values.
  bool parse(int argc, char** argv);

  // Whether a flag named `name` was registered.
  bool has(const std::string& name) const { return entries_.count(name) != 0; }
  // Whether parse() read the registered flag `name` from a command line, as
  // opposed to it keeping its default.
  bool given(const std::string& name) const;

  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  std::string usage(const std::string& program) const;

  // Every flag with its resolved value rendered as text, in registration
  // order — the config block a run manifest records so any run can be
  // replayed from its manifest alone.
  std::vector<std::pair<std::string, std::string>> resolved() const;

 private:
  enum class Type { kInt, kDouble, kString, kBool };
  struct Entry {
    Type type;
    std::string help;
    long long int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
    bool given = false;
  };

  const Entry& find(const std::string& name, Type type) const;

  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace fedsu::util
