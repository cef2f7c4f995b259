// Wire payload encoders and exact sizing for the synchronization protocols.
//
// Every protocol's SyncResult byte accounting comes from the measure_*
// functions below: closed-form byte counts proven equal to the encoders'
// output size for every shape (tests/test_comm.cpp checks them
// exhaustively, and the payload-audit mode re-checks at runtime). The hot
// path therefore never materializes a wire buffer just to call .size() on
// it — encoding happens only when payload auditing is switched on. There
// are no decoders: client states are handed over in memory, so nothing
// reads these formats back.
//
// Formats (little-endian, no framing — framing belongs to the transport):
//   dense      count x f32
//   sparse     count x (u32 index, f32 value)
//   signs      ceil(count/8) sign-bit bytes (LSB-first), f32 scale
//   quantized  ceil(count*bits/8) level bytes (LSB-first bitstream of
//              unsigned (level + max_level) in `bits` bits), f32 scale
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fedsu::compress::wire {

// --- Exact sizing (no allocation, no encoding) ---------------------------
//
// Each measure_* returns exactly encode_*(...).size() for a payload with
// `count` entries. The formats above are fixed-width, so the size is a pure
// function of the shape — the protocols' byte accounting calls these every
// round instead of building a buffer (DESIGN.md §15).

constexpr std::size_t measure_dense(std::size_t count) {
  return count * sizeof(float);
}

constexpr std::size_t measure_sparse(std::size_t count) {
  return count * (sizeof(std::uint32_t) + sizeof(float));
}

constexpr std::size_t measure_signs(std::size_t count) {
  return (count + 7) / 8 + sizeof(float);
}

constexpr std::size_t measure_quantized(std::size_t count, int bits) {
  return (count * static_cast<std::size_t>(bits) + 7) / 8 + sizeof(float);
}

// --- Payload audit -------------------------------------------------------
//
// With auditing on, every protocol still builds its representative wire
// payload through the encoders and cross-checks the measured size against
// the encoded one, throwing std::logic_error on any mismatch. Off (the
// default) the hot path is sizing-only. Tests flip this on to prove the
// measure/encode split lossless end to end; a debugging session can flip it
// on to dump/inspect real bytes. Not thread-safe: set it before the run.
void set_payload_audit(bool enabled);
bool payload_audit();

// Throws std::logic_error naming `what` unless measured == encoded.
void audit_bytes(const char* what, std::size_t measured, std::size_t encoded);

std::vector<std::uint8_t> encode_dense(std::span<const float> values);

std::vector<std::uint8_t> encode_sparse(
    std::span<const std::uint32_t> indices, std::span<const float> values);

// `signs[i]` is 0 or 1 (1 = positive).
std::vector<std::uint8_t> encode_signs(std::span<const std::uint8_t> signs,
                                       float scale);

// `levels[i]` in [-max_level, max_level] with max_level = 2^(bits-1) - 1.
std::vector<std::uint8_t> encode_quantized(std::span<const std::int32_t> levels,
                                           int bits, float scale);

// CRC-32 (IEEE 802.3 polynomial, bit-reflected) over a byte buffer; any
// single-bit flip changes it. The run-checkpoint frame (io/checkpoint.cpp)
// stamps its body with it, and perfbench fingerprints final models with it.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace fedsu::compress::wire
