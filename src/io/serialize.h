// Minimal binary serialization for checkpoints and protocol snapshots.
//
// Format: little-endian primitives, length-prefixed containers, and a
// caller-supplied magic tag checked on read so mixing snapshot types fails
// loudly instead of producing garbage state.
//
// A writer appends to its own buffer, to a caller's buffer (which keeps its
// capacity across writes), or only counts: one counting pass through a
// serializer sizes the storing pass exactly. A reader is a bounds-checked
// view over bytes it does not own.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fedsu::io {

class BinaryWriter {
 public:
  // Appends to a buffer of its own (buffer(), take()).
  BinaryWriter() = default;
  // Appends to `sink`, which must outlive the writer.
  explicit BinaryWriter(std::vector<std::uint8_t>& sink) : sink_(&sink) {}
  // Stores nothing: size() after a pass through a serializer is the exact
  // byte count a storing writer gets from the same pass.
  static BinaryWriter counter() {
    BinaryWriter writer;
    writer.counting_ = true;
    return writer;
  }

  void write_u8(std::uint8_t v) { write_raw(&v, sizeof(v)); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof(v)); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof(v)); }
  void write_i32(std::int32_t v) { write_raw(&v, sizeof(v)); }
  void write_f32(float v) { write_raw(&v, sizeof(v)); }
  void write_f64(double v) { write_raw(&v, sizeof(v)); }
  void write_bool(bool v) { write_u32(v ? 1 : 0); }

  void write_string(const std::string& s);

  // u64 element count, then the elements' bytes.
  template <typename T>
  void write_span(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write_u64(v.size());
    if (!v.empty()) write_raw(v.data(), v.size_bytes());
  }
  template <typename T>
  void write_vector(const std::vector<T>& v) {
    write_span(std::span<const T>(v));
  }

  // A section whose u64 byte length precedes it, patched in place once the
  // section is written: `at = begin_length(); ...; end_length(at);` writes
  // the bytes write_vector() of the section's bytes would.
  std::size_t begin_length() {
    const std::size_t at = size();
    write_u64(0);
    return at;
  }
  void end_length(std::size_t at);

  void write_magic(std::uint32_t magic) { write_u32(magic); }

  // Bytes written (or counted) so far.
  std::size_t size() const {
    return counting_ ? counted_ : (sink_ ? sink_->size() : own_.size());
  }
  const std::vector<std::uint8_t>& buffer() const {
    return sink_ ? *sink_ : own_;
  }
  std::vector<std::uint8_t> take() { return std::move(own_); }

 private:
  void write_raw(const void* data, std::size_t bytes);
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* sink_ = nullptr;  // null: own_
  bool counting_ = false;
  std::size_t counted_ = 0;
};

// A non-owning view: the bytes must outlive the reader and every section
// read from it. Every read checks the bytes left first.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  // A view of a temporary would dangle.
  explicit BinaryReader(std::vector<std::uint8_t>&&) = delete;

  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  float read_f32();
  double read_f64();
  bool read_bool() { return read_u32() != 0; }
  std::string read_string();

  // A length-prefixed vector. Given `expected`, it also throws unless the
  // vector has that many elements — a snapshot field checked against the
  // model it restores into.
  template <typename T>
  std::vector<T> read_vector(std::size_t expected = kAnyLength) {
    std::vector<T> out(read_count<T>(expected));
    if (!out.empty()) read_raw(out.data(), out.size() * sizeof(T));
    return out;
  }

  // read_vector(out.size()) straight into `out`.
  template <typename T>
  void read_into(std::span<T> out) {
    read_count<T>(out.size());
    if (!out.empty()) read_raw(out.data(), out.size_bytes());
  }

  // A u64-length-prefixed section (the bytes BinaryWriter::begin_length /
  // end_length frame) as a reader of its own over the same bytes; this
  // reader moves past it.
  BinaryReader read_section();

  // Reads a u32 and throws unless it matches.
  void expect_magic(std::uint32_t magic, const char* what);

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool at_end() const { return remaining() == 0; }

 private:
  static constexpr std::size_t kAnyLength = SIZE_MAX;
  // Reads a u64 element count and throws unless the bytes left hold that
  // many elements (and, given, unless it is `expected`).
  template <typename T>
  std::size_t read_count(std::size_t expected = kAnyLength) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = read_u64();
    // Divide rather than multiply: n * sizeof(T) wraps for huge n.
    if (n > remaining() / sizeof(T)) {
      throw std::runtime_error("BinaryReader: truncated vector");
    }
    if (expected != kAnyLength && n != expected) {
      throw std::runtime_error("BinaryReader: vector length mismatch");
    }
    return static_cast<std::size_t>(n);
  }
  void read_raw(void* out, std::size_t bytes);
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

}  // namespace fedsu::io
