#include "io/serialize.h"

namespace fedsu::io {

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void BinaryWriter::end_length(std::size_t at) {
  if (counting_) return;
  std::vector<std::uint8_t>& out = sink_ ? *sink_ : own_;
  const std::uint64_t length = out.size() - at - sizeof(std::uint64_t);
  std::memcpy(out.data() + at, &length, sizeof(length));
}

void BinaryWriter::write_raw(const void* data, std::size_t bytes) {
  if (counting_) {
    counted_ += bytes;
    return;
  }
  std::vector<std::uint8_t>& out = sink_ ? *sink_ : own_;
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + bytes);
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

BinaryReader BinaryReader::read_section() {
  const std::size_t n = read_count<std::uint8_t>();
  BinaryReader section(bytes_.subspan(cursor_, n));
  cursor_ += n;
  return section;
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
