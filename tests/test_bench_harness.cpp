// The bench harness (bench/harness.h): the median/MAD statistics every
// bench reports, the synthetic cohort's warm-up, and write_json's rule that
// a rejected document never replaces a good file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "compress/fedavg.h"
#include "harness.h"

namespace {

using fedsu::bench::Stats;
using fedsu::bench::stats_of;

TEST(BenchStats, OddCount) {
  const Stats s = stats_of({5.0, 1.0, 3.0, 9.0, 4.0});
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  // |deviations| = 1, 3, 1, 5, 0 -> sorted 0 1 1 3 5.
  EXPECT_DOUBLE_EQ(s.mad, 1.0);
}

TEST(BenchStats, EvenCountAveragesTheMiddlePair) {
  const Stats s = stats_of({4.0, 1.0, 2.0, 10.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  // |deviations| = 1, 2, 1, 7 -> sorted 1 1 2 7.
  EXPECT_DOUBLE_EQ(s.mad, 1.5);
}

TEST(BenchStats, SingleSampleHasNoSpread) {
  const Stats s = stats_of({2.5});
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
}

TEST(BenchStats, EmptyIsZero) {
  const Stats s = stats_of({});
  EXPECT_DOUBLE_EQ(s.median, 0.0);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
}

TEST(BenchStats, MeasureReportsPositivePerCallTime) {
  volatile double sink = 0.0;
  const Stats s = fedsu::bench::measure(
      [&] {
        for (int i = 0; i < 100; ++i) sink = sink + i;
      },
      /*smoke=*/true);
  EXPECT_GT(s.median, 0.0);
  EXPECT_GE(s.mad, 0.0);
}

TEST(SyntheticCohort, ReportsOnlyRoundsAfterTheWarmup) {
  fedsu::bench::SyntheticCohort cohort(std::vector<float>(64, 0.5f), 4,
                                       fedsu::util::Rng(7));
  fedsu::compress::FedAvg fedavg;
  int reported = 0;
  cohort.run(fedavg, 3, [&](const fedsu::bench::CohortRound& round) {
    ++reported;
    EXPECT_EQ(round.result.new_global.size(), 64u);
    EXPECT_EQ(round.result.bytes_up.size(), 4u);
    EXPECT_GE(round.sync_ms, 0.0);
  });
  EXPECT_EQ(reported, 3);
}

class WriteJson : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/fedsu_write_json_test.json";
    std::ofstream(path_) << kGood;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string contents() const {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static constexpr const char* kGood = "{\"bench\": \"good\"}\n";
  std::string path_;
};

TEST_F(WriteJson, UnparsableDocumentLeavesTheFileByteIdentical) {
  EXPECT_THROW(fedsu::bench::write_json("{\"bench\": ", path_,
                                        [](const fedsu::obs::JsonValue&) {}),
               std::runtime_error);
  EXPECT_EQ(contents(), kGood);
}

TEST_F(WriteJson, FailedCheckLeavesTheFileByteIdentical) {
  EXPECT_THROW(fedsu::bench::write_json(
                   "{\"bench\": \"new\"}\n", path_,
                   [](const fedsu::obs::JsonValue& doc) {
                     doc.at("cells");  // absent: throws
                   }),
               std::runtime_error);
  EXPECT_EQ(contents(), kGood);
}

TEST_F(WriteJson, AcceptedDocumentReplacesTheFile) {
  fedsu::bench::write_json("{\"bench\": \"new\"}\n", path_,
                           [](const fedsu::obs::JsonValue& doc) {
                             doc.at("bench").as_string();
                           });
  EXPECT_EQ(contents(), "{\"bench\": \"new\"}\n");
}

}  // namespace
