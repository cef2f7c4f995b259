#include "util/flags.h"

#include <cstdio>
#include <exception>
#include <sstream>

namespace fedsu::util {

namespace {

// The first line of an exception's message (an unknown flag appends the
// usage listing after it).
std::string first_line(const std::exception& e) {
  const std::string what = e.what();
  return what.substr(0, what.find('\n'));
}

}  // namespace

int run_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  const std::string path = argc > 0 ? argv[0] : "";
  const std::string program = path.substr(path.find_last_of('/') + 1);
  try {
    return body(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s (see --help)\n", program.c_str(),
                 first_line(e).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), first_line(e).c_str());
    return 1;
  }
}

Flags& Flags::add_int(const std::string& name, long long def,
                      const std::string& help) {
  Entry e;
  e.type = Type::kInt;
  e.help = help;
  e.int_value = def;
  entries_[name] = e;
  order_.push_back(name);
  return *this;
}

Flags& Flags::add_double(const std::string& name, double def,
                         const std::string& help) {
  Entry e;
  e.type = Type::kDouble;
  e.help = help;
  e.double_value = def;
  entries_[name] = e;
  order_.push_back(name);
  return *this;
}

Flags& Flags::add_string(const std::string& name, const std::string& def,
                         const std::string& help) {
  Entry e;
  e.type = Type::kString;
  e.help = help;
  e.string_value = def;
  entries_[name] = e;
  order_.push_back(name);
  return *this;
}

Flags& Flags::add_bool(const std::string& name, bool def,
                       const std::string& help) {
  Entry e;
  e.type = Type::kBool;
  e.help = help;
  e.bool_value = def;
  entries_[name] = e;
  order_.push_back(name);
  return *this;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw UsageError("Flags: positional argument not supported: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw UsageError("Flags: unknown flag --" + name + "\n" +
                               usage(argv[0]));
    }
    Entry& entry = it->second;
    if (!has_value) {
      // No binary takes positional arguments, so a boolean reads the next
      // token unless it is another flag; a bare boolean flag means "true".
      if (entry.type == Type::kBool &&
          (i + 1 >= argc || argv[i + 1][0] == '-')) {
        entry.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        throw UsageError("Flags: missing value for --" + name);
      }
      value = argv[++i];
    }
    // The whole token must parse: std::stoll / std::stod stop at the first
    // character they cannot use, so "0.05abc" (or "1e3" for an int) would
    // otherwise pass as its numeric prefix.
    bool ok = true;
    try {
      std::size_t used = 0;
      switch (entry.type) {
        case Type::kInt:
          entry.int_value = std::stoll(value, &used);
          ok = used == value.size();
          break;
        case Type::kDouble:
          entry.double_value = std::stod(value, &used);
          ok = used == value.size();
          break;
        case Type::kString:
          entry.string_value = value;
          break;
        case Type::kBool:
          entry.bool_value = value == "1" || value == "true" || value == "yes";
          ok = entry.bool_value || value == "0" || value == "false" ||
               value == "no";
          break;
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      throw UsageError("Flags: bad value '" + value + "' for --" + name);
    }
  }
  return true;
}

const Flags::Entry& Flags::find(const std::string& name, Type type) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::runtime_error("Flags: flag not registered: --" + name);
  }
  if (it->second.type != type) {
    throw std::runtime_error("Flags: type mismatch for --" + name);
  }
  return it->second;
}

long long Flags::get_int(const std::string& name) const {
  return find(name, Type::kInt).int_value;
}

double Flags::get_double(const std::string& name) const {
  return find(name, Type::kDouble).double_value;
}

const std::string& Flags::get_string(const std::string& name) const {
  return find(name, Type::kString).string_value;
}

bool Flags::get_bool(const std::string& name) const {
  return find(name, Type::kBool).bool_value;
}

std::vector<std::pair<std::string, std::string>> Flags::resolved() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(order_.size());
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    std::string value;
    switch (e.type) {
      case Type::kInt:
        value = std::to_string(e.int_value);
        break;
      case Type::kDouble: {
        // Shortest round-trippable text, locale-independent (matches the
        // JSON number formatting the manifest embeds this in).
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", e.double_value);
        double probe = 0.0;
        std::sscanf(buf, "%lf", &probe);
        for (int precision = 1; precision < 17; ++precision) {
          char shorter[64];
          std::snprintf(shorter, sizeof(shorter), "%.*g", precision,
                        e.double_value);
          std::sscanf(shorter, "%lf", &probe);
          if (probe == e.double_value) {
            std::snprintf(buf, sizeof(buf), "%s", shorter);
            break;
          }
        }
        value = buf;
        break;
      }
      case Type::kString:
        value = e.string_value;
        break;
      case Type::kBool:
        value = e.bool_value ? "true" : "false";
        break;
    }
    out.emplace_back(name, std::move(value));
  }
  return out;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  --" << name;
    switch (e.type) {
      case Type::kInt:
        os << " <int, default " << e.int_value << ">";
        break;
      case Type::kDouble:
        os << " <float, default " << e.double_value << ">";
        break;
      case Type::kString:
        os << " <string, default '" << e.string_value << "'>";
        break;
      case Type::kBool:
        os << " <bool, default " << (e.bool_value ? "true" : "false") << ">";
        break;
    }
    os << "\n      " << e.help << "\n";
  }
  return os.str();
}

}  // namespace fedsu::util
