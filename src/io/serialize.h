// Minimal binary serialization for checkpoints and protocol snapshots.
//
// Format: little-endian primitives, length-prefixed containers, and a
// caller-supplied magic tag checked on read so mixing snapshot types fails
// loudly instead of producing garbage state.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace fedsu::io {

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v) { write_raw(&v, sizeof(v)); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof(v)); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof(v)); }
  void write_i32(std::int32_t v) { write_raw(&v, sizeof(v)); }
  void write_f32(float v) { write_raw(&v, sizeof(v)); }
  void write_f64(double v) { write_raw(&v, sizeof(v)); }
  void write_bool(bool v) { write_u32(v ? 1 : 0); }

  void write_string(const std::string& s);

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_u64(v.size());
    if (!v.empty()) write_raw(v.data(), v.size() * sizeof(T));
  }

  void write_magic(std::uint32_t magic) { write_u32(magic); }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

  // Writes the buffer to a file; throws on I/O failure.
  void save_to_file(const std::string& path) const;

 private:
  void write_raw(const void* data, std::size_t bytes);
  std::vector<std::uint8_t> buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  static BinaryReader from_file(const std::string& path);

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  float read_f32();
  double read_f64();
  bool read_bool() { return read_u32() != 0; }
  std::string read_string();

  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = read_u64();
    // Divide rather than multiply: n * sizeof(T) wraps for huge n.
    if (n > remaining() / sizeof(T)) {
      throw std::runtime_error("BinaryReader: truncated vector");
    }
    std::vector<T> out(static_cast<std::size_t>(n));
    if (n > 0) read_raw(out.data(), out.size() * sizeof(T));
    return out;
  }

  // read_vector() that also throws unless the vector has `expected`
  // elements — a snapshot field checked against the model it restores into.
  template <typename T>
  std::vector<T> read_vector(std::size_t expected) {
    std::vector<T> out = read_vector<T>();
    if (out.size() != expected) {
      throw std::runtime_error("BinaryReader: vector length mismatch");
    }
    return out;
  }

  // Reads a u32 and throws unless it matches.
  void expect_magic(std::uint32_t magic, const char* what);

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool at_end() const { return remaining() == 0; }

 private:
  void read_raw(void* out, std::size_t bytes);
  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace fedsu::io
