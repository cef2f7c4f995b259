// Tiny CSV writer used by bench binaries to dump figure series.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace fedsu::util {

// Writes one CSV file. Quotes fields containing separators. Throws
// std::runtime_error if the file cannot be opened.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);

  void write_row(const std::vector<std::string>& fields);
  void write_row(std::initializer_list<std::string> fields);

  // Pushes buffered rows to the OS; throws std::runtime_error if the stream
  // failed. Call after each row for crash durability.
  void flush();

  // Convenience: formats doubles with enough precision for re-plotting.
  static std::string field(double value);
  static std::string field(long long value);

 private:
  std::ofstream out_;
};

}  // namespace fedsu::util
