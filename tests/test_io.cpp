#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>

#include "compress/fedavg.h"
#include "compress/wire.h"
#include "core/fedsu_manager.h"
#include "io/serialize.h"
#include "util/rng.h"

namespace fedsu {
namespace {

TEST(Serialize, PrimitivesRoundTrip) {
  io::BinaryWriter writer;
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(1234567890123ULL);
  writer.write_i32(-42);
  writer.write_f32(3.5f);
  writer.write_f64(-2.25);
  writer.write_bool(true);
  writer.write_string("hello fedsu");
  writer.write_vector(std::vector<float>{1.0f, 2.0f});

  const std::vector<std::uint8_t> bytes = writer.take();
  io::BinaryReader reader(bytes);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(reader.read_u64(), 1234567890123ULL);
  EXPECT_EQ(reader.read_i32(), -42);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -2.25);
  EXPECT_TRUE(reader.read_bool());
  EXPECT_EQ(reader.read_string(), "hello fedsu");
  EXPECT_EQ(reader.read_vector<float>(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_TRUE(reader.at_end());
}

TEST(Serialize, ReadPastEndThrows) {
  const std::vector<std::uint8_t> bytes{1, 2};
  io::BinaryReader reader(bytes);
  EXPECT_THROW(reader.read_u32(), std::runtime_error);
}

TEST(Serialize, TruncatedVectorThrows) {
  io::BinaryWriter writer;
  writer.write_u64(1000);  // claims 1000 floats, provides none
  const std::vector<std::uint8_t> bytes = writer.take();
  io::BinaryReader reader(bytes);
  EXPECT_THROW(reader.read_vector<float>(), std::runtime_error);

  // Lengths whose byte count wraps modulo 2^64 (to 0 and to 8) must not
  // slip past the check into a huge allocation.
  {
    io::BinaryWriter wraps;
    wraps.write_u64(std::uint64_t{1} << 62);
    const std::vector<std::uint8_t> wrapped = wraps.take();
    io::BinaryReader r(wrapped);
    EXPECT_THROW(r.read_vector<float>(), std::runtime_error);
  }
  {
    io::BinaryWriter wraps;
    wraps.write_u64((std::uint64_t{1} << 61) + 1);
    wraps.write_f64(1.0);
    const std::vector<std::uint8_t> wrapped = wraps.take();
    io::BinaryReader r(wrapped);
    EXPECT_THROW(r.read_vector<double>(), std::runtime_error);
  }
}

TEST(Serialize, MagicMismatchThrows) {
  io::BinaryWriter writer;
  writer.write_magic(0x1111);
  const std::vector<std::uint8_t> bytes = writer.take();
  io::BinaryReader reader(bytes);
  EXPECT_THROW(reader.expect_magic(0x2222, "test"), std::runtime_error);
}

// What one serializer pass writes, whichever writer it goes through: its own
// buffer, a caller's buffer after earlier bytes, or only a count.
void write_sample(io::BinaryWriter& writer) {
  writer.write_magic(0xABCD);
  const std::size_t at = writer.begin_length();
  writer.write_string("section");
  writer.write_vector(std::vector<float>{1.0f, -2.0f, 3.5f});
  writer.end_length(at);
  writer.write_i32(-7);
}

TEST(Serialize, CountingSinkAndOwnWritersAgree) {
  io::BinaryWriter own;
  write_sample(own);
  const std::vector<std::uint8_t> expected = own.take();

  io::BinaryWriter counter = io::BinaryWriter::counter();
  write_sample(counter);
  EXPECT_EQ(counter.size(), expected.size());

  // The patched length prefix is the bytes write_vector() would write.
  io::BinaryWriter inner;
  inner.write_string("section");
  inner.write_vector(std::vector<float>{1.0f, -2.0f, 3.5f});
  io::BinaryWriter framed;
  framed.write_magic(0xABCD);
  framed.write_vector(inner.buffer());
  framed.write_i32(-7);
  EXPECT_EQ(framed.buffer(), expected);

  std::vector<std::uint8_t> sink = {9, 9, 9};
  io::BinaryWriter appender(sink);
  write_sample(appender);
  ASSERT_EQ(sink.size(), 3 + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), sink.begin() + 3));
}

TEST(Serialize, ASectionIsAViewThatKeepsEveryBoundsCheck) {
  io::BinaryWriter writer;
  write_sample(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  io::BinaryReader reader(bytes);
  reader.expect_magic(0xABCD, "sample");
  io::BinaryReader section = reader.read_section();
  EXPECT_EQ(reader.read_i32(), -7);
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(section.read_string(), "section");
  std::vector<float> values(3);
  section.read_into(std::span<float>(values));
  EXPECT_EQ(values, (std::vector<float>{1.0f, -2.0f, 3.5f}));
  EXPECT_TRUE(section.at_end());
  // A section never reads past its own end, even with bytes after it.
  EXPECT_THROW(section.read_u32(), std::runtime_error);

  // read_into() checks the length before it copies.
  io::BinaryReader again(bytes);
  again.expect_magic(0xABCD, "sample");
  io::BinaryReader short_read = again.read_section();
  short_read.read_string();
  std::vector<float> two(2);
  EXPECT_THROW(short_read.read_into(std::span<float>(two)),
               std::runtime_error);

  // A section whose length runs past the buffer is rejected.
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 12);
  io::BinaryReader truncated(cut);
  truncated.expect_magic(0xABCD, "sample");
  EXPECT_THROW(truncated.read_section(), std::runtime_error);
}

// The bytewise CRC-32 the slicing-by-8 one replaced, kept as the reference.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswer) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(compress::wire::crc32(bytes), 0xCBF43926u);
  // Continued over a split, it is the CRC of the whole.
  EXPECT_EQ(compress::wire::crc32(bytes.subspan(5),
                                  compress::wire::crc32(bytes.first(5))),
            0xCBF43926u);
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryAlignment) {
  util::Rng rng(30);
  std::vector<std::uint8_t> buffer(4096 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (int trial = 0; trial < 64; ++trial) {
      const std::size_t n = trial < 17 ? static_cast<std::size_t>(trial)
                                       : rng.uniform_index(4097);
      const std::uint8_t* p = buffer.data() + offset;
      ASSERT_EQ(compress::wire::crc32({p, n}), bytewise_crc32(p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

// Drives a FedSU manager a few rounds so its snapshot is non-trivial.
core::FedSuManager warmed_manager(int rounds) {
  core::FedSuOptions options;
  options.warmup = 3;
  core::FedSuManager manager(2, options);
  std::vector<float> global{0.0f, 0.0f, 0.0f};
  manager.initialize(global);
  util::Rng rng(5);
  std::vector<float> state = global;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t j = 0; j < state.size(); ++j) {
      state[j] += (j == 0) ? 0.125f : static_cast<float>(0.1 * rng.normal());
    }
    compress::RoundContext ctx;
    ctx.round = r;
    ctx.participants = {0, 1};
    std::vector<std::span<const float>> views{state, state};
    state = manager.synchronize(ctx, views).new_global;
  }
  return manager;
}

TEST(FedSuSnapshot, RestoredManagerBehavesIdentically) {
  core::FedSuManager original = warmed_manager(10);
  const auto snapshot = original.snapshot();

  core::FedSuManager restored(2);
  std::vector<float> dummy(3, 0.0f);
  restored.initialize(dummy);
  restored.restore(snapshot);
  EXPECT_EQ(restored.predictable_mask(), original.predictable_mask());
  EXPECT_EQ(restored.rounds_seen(), original.rounds_seen());

  // Both must produce bit-identical results on identical future inputs.
  util::Rng rng(9);
  std::vector<float> state{1.0f, 2.0f, 3.0f};
  for (int r = 0; r < 8; ++r) {
    for (auto& v : state) v += static_cast<float>(0.05 * rng.normal());
    compress::RoundContext ctx;
    ctx.round = 10 + r;
    ctx.participants = {0, 1};
    std::vector<std::span<const float>> views{state, state};
    const auto a = original.synchronize(ctx, views);
    const auto b = restored.synchronize(ctx, views);
    ASSERT_EQ(a.new_global, b.new_global) << "round " << r;
    ASSERT_EQ(a.bytes_up, b.bytes_up) << "round " << r;
  }
}

TEST(FedSuSnapshot, RejectsForeignBuffers) {
  core::FedSuManager manager(2);
  std::vector<float> global(3, 0.0f);
  manager.initialize(global);
  io::BinaryWriter writer;
  writer.write_magic(0x12345678);
  EXPECT_THROW(manager.restore(writer.take()), std::runtime_error);
}

TEST(Checkpoint, StatelessProtocolHasEmptySnapshot) {
  compress::FedAvg fedavg;
  std::vector<float> global(4, 0.0f);
  fedavg.initialize(global);
  EXPECT_TRUE(fedavg.snapshot().empty());
  EXPECT_NO_THROW(fedavg.restore({}));
  EXPECT_THROW(fedavg.restore({1, 2, 3}), std::logic_error);
}

}  // namespace
}  // namespace fedsu
