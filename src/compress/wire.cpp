#include "compress/wire.h"

#include <array>
#include <stdexcept>
#include <string>

#include "io/serialize.h"

namespace fedsu::compress::wire {

namespace {
bool g_payload_audit = false;
}  // namespace

void set_payload_audit(bool enabled) { g_payload_audit = enabled; }
bool payload_audit() { return g_payload_audit; }

void audit_bytes(const char* what, std::size_t measured, std::size_t encoded) {
  if (measured != encoded) {
    throw std::logic_error(std::string("wire payload audit: ") + what +
                           ": measured " + std::to_string(measured) +
                           " bytes but encoded " + std::to_string(encoded));
  }
}

std::vector<std::uint8_t> encode_dense(std::span<const float> values) {
  io::BinaryWriter writer;
  for (float v : values) writer.write_f32(v);
  return writer.take();
}

std::vector<std::uint8_t> encode_sparse(std::span<const std::uint32_t> indices,
                                        std::span<const float> values) {
  if (indices.size() != values.size()) {
    throw std::invalid_argument("wire: sparse index/value length mismatch");
  }
  io::BinaryWriter writer;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    writer.write_u32(indices[i]);
    writer.write_f32(values[i]);
  }
  return writer.take();
}

std::vector<std::uint8_t> encode_signs(std::span<const std::uint8_t> signs,
                                       float scale) {
  io::BinaryWriter writer;
  std::uint8_t packed = 0;
  int filled = 0;
  for (std::uint8_t s : signs) {
    packed |= static_cast<std::uint8_t>((s ? 1 : 0) << filled);
    if (++filled == 8) {
      writer.write_u8(packed);
      packed = 0;
      filled = 0;
    }
  }
  if (filled > 0) writer.write_u8(packed);
  writer.write_f32(scale);
  return writer.take();
}

std::vector<std::uint8_t> encode_quantized(std::span<const std::int32_t> levels,
                                           int bits, float scale) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("wire: quantized bits out of [1, 16]");
  }
  const std::int32_t max_level = (1 << (bits - 1)) - 1;
  io::BinaryWriter writer;
  std::uint32_t packed = 0;
  int filled = 0;
  for (std::int32_t level : levels) {
    if (level < -max_level || level > max_level) {
      throw std::invalid_argument("wire: quantized level out of range");
    }
    packed |= static_cast<std::uint32_t>(level + max_level) << filled;
    filled += bits;
    while (filled >= 8) {
      writer.write_u8(static_cast<std::uint8_t>(packed & 0xFF));
      packed >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) writer.write_u8(static_cast<std::uint8_t>(packed & 0xFF));
  writer.write_f32(scale);
  return writer.take();
}

namespace {
// kCrcTables[0] is the bytewise table; kCrcTables[k][b] advances byte b's
// CRC over k more zero bytes, so one step folds 8 bytes at once.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

// Little-endian load, whatever the host's byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace fedsu::compress::wire
