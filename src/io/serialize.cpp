#include "io/serialize.h"

#include <fstream>

namespace fedsu::io {

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void BinaryWriter::write_raw(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + bytes);
}

void BinaryWriter::save_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("BinaryWriter: cannot open " + path);
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  if (!out) throw std::runtime_error("BinaryWriter: write failed for " + path);
}

BinaryReader BinaryReader::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("BinaryReader: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error("BinaryReader: read failed for " + path);
  return BinaryReader(std::move(bytes));
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

std::int32_t BinaryReader::read_i32() {
  std::int32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

float BinaryReader::read_f32() {
  float v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

double BinaryReader::read_f64() {
  double v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  if (n > remaining()) throw std::runtime_error("BinaryReader: truncated string");
  std::string s(static_cast<std::size_t>(n), '\0');
  read_raw(s.data(), s.size());
  return s;
}

void BinaryReader::expect_magic(std::uint32_t magic, const char* what) {
  const std::uint32_t got = read_u32();
  if (got != magic) {
    throw std::runtime_error(std::string("BinaryReader: bad magic for ") +
                             what);
  }
}

void BinaryReader::read_raw(void* out, std::size_t bytes) {
  if (bytes > remaining()) {
    throw std::runtime_error("BinaryReader: read past end");
  }
  std::memcpy(out, bytes_.data() + cursor_, bytes);
  cursor_ += bytes;
}

}  // namespace fedsu::io
