#include "util/csv.h"

#include <sstream>
#include <stdexcept>

namespace fedsu::util {

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

namespace {
std::string escape(const std::string& raw) {
  if (raw.find_first_of(",\"\n") == std::string::npos) return raw;
  std::string quoted = "\"";
  for (char c : raw) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}
}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(std::initializer_list<std::string> fields) {
  write_row(std::vector<std::string>(fields));
}

void CsvWriter::flush() {
  if (!out_.flush()) throw std::runtime_error("CsvWriter: flush failed");
}

std::string CsvWriter::field(double value) {
  std::ostringstream os;
  os.precision(10);
  os << value;
  return os.str();
}

std::string CsvWriter::field(long long value) { return std::to_string(value); }

}  // namespace fedsu::util
