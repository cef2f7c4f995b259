#include "compress/wire.h"

#include <array>
#include <stdexcept>
#include <string>

#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/obs.h"

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

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void record_round_bytes(const char* protocol, std::size_t bytes_up,
                        std::size_t bytes_down) {
  if (!obs::metrics_enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string prefix = std::string("compress.") + protocol;
  registry.counter(prefix + ".rounds").add(1);
  registry.counter(prefix + ".bytes_up").add(bytes_up);
  registry.counter(prefix + ".bytes_down").add(bytes_down);
}

}  // namespace fedsu::compress::wire
