#include <gtest/gtest.h>

#include <cstdio>

#include "compress/fedavg.h"
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

  io::BinaryReader reader(writer.take());
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
  io::BinaryReader reader({1, 2});
  EXPECT_THROW(reader.read_u32(), std::runtime_error);
}

TEST(Serialize, TruncatedVectorThrows) {
  io::BinaryWriter writer;
  writer.write_u64(1000);  // claims 1000 floats, provides none
  io::BinaryReader reader(writer.take());
  EXPECT_THROW(reader.read_vector<float>(), std::runtime_error);

  // Lengths whose byte count wraps modulo 2^64 (to 0 and to 8) must not
  // slip past the check into a huge allocation.
  {
    io::BinaryWriter wraps;
    wraps.write_u64(std::uint64_t{1} << 62);
    io::BinaryReader r(wraps.take());
    EXPECT_THROW(r.read_vector<float>(), std::runtime_error);
  }
  {
    io::BinaryWriter wraps;
    wraps.write_u64((std::uint64_t{1} << 61) + 1);
    wraps.write_f64(1.0);
    io::BinaryReader r(wraps.take());
    EXPECT_THROW(r.read_vector<double>(), std::runtime_error);
  }
}

TEST(Serialize, MagicMismatchThrows) {
  io::BinaryWriter writer;
  writer.write_magic(0x1111);
  io::BinaryReader reader(writer.take());
  EXPECT_THROW(reader.expect_magic(0x2222, "test"), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fedsu_serialize_test.bin";
  io::BinaryWriter writer;
  writer.write_string("file payload");
  writer.save_to_file(path);
  io::BinaryReader reader = io::BinaryReader::from_file(path);
  EXPECT_EQ(reader.read_string(), "file payload");
  std::remove(path.c_str());
  EXPECT_THROW(io::BinaryReader::from_file("/no/such/dir/x.bin"),
               std::runtime_error);
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
