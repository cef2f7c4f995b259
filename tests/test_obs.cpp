// Observability subsystem tests: level gate, span nesting/export,
// per-round telemetry invariants, and the must-not-perturb-results
// contract (DESIGN.md §8).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/fedsu_manager.h"
#include "fl/protocol_factory.h"
#include "fl/simulation.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace fedsu {
namespace {

// Every test leaves the process-wide level as it found it (kOff by default)
// so test order cannot leak instrumentation into unrelated suites.
struct LevelGuard {
  obs::Level old = obs::level();
  ~LevelGuard() { obs::set_level(old); }
};

TEST(ObsLevel, ParseRoundTripsAndRejectsTypos) {
  EXPECT_EQ(obs::parse_level("off"), obs::Level::kOff);
  EXPECT_EQ(obs::parse_level("metrics"), obs::Level::kMetrics);
  EXPECT_EQ(obs::parse_level("trace"), obs::Level::kTrace);
  EXPECT_THROW(obs::parse_level("verbose"), std::invalid_argument);
  EXPECT_STREQ(obs::level_name(obs::Level::kMetrics), "metrics");
}

TEST(ObsLevel, GuardsFollowTheLevel) {
  LevelGuard guard;
  obs::set_level(obs::Level::kOff);
  EXPECT_EQ(obs::level(), obs::Level::kOff);
  obs::set_level(obs::Level::kMetrics);
  EXPECT_EQ(obs::level(), obs::Level::kMetrics);
  obs::set_level(obs::Level::kTrace);
  EXPECT_EQ(obs::level(), obs::Level::kTrace);
}

TEST(Tracer, SpanNestingAndOrdering) {
  LevelGuard guard;
  obs::set_level(obs::Level::kTrace);
  obs::Tracer::global().reset();
  {
    OBS_SPAN("test.outer");
    {
      OBS_SPAN("test.inner_a");
    }
    {
      OBS_SPAN("test.inner_b");
    }
  }
  obs::set_level(obs::Level::kOff);
  const std::vector<obs::SpanEvent> events = obs::Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  // snapshot() orders by begin time: outer, then the inners in call order.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner_a");
  EXPECT_STREQ(events[2].name, "test.inner_b");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 1);
  // The outer interval contains both inner intervals.
  EXPECT_LE(events[0].begin_ns, events[1].begin_ns);
  EXPECT_GE(events[0].end_ns, events[2].end_ns);
  EXPECT_LE(events[1].end_ns, events[2].begin_ns);  // sequential inners
  obs::Tracer::global().reset();
}

TEST(Tracer, DisabledSpansRecordNothing) {
  LevelGuard guard;
  obs::set_level(obs::Level::kOff);
  obs::Tracer::global().reset();
  {
    OBS_SPAN("test.should_not_appear");
  }
  EXPECT_TRUE(obs::Tracer::global().snapshot().empty());
}

TEST(Tracer, ChromeJsonExportParses) {
  LevelGuard guard;
  obs::set_level(obs::Level::kTrace);
  obs::Tracer::global().reset();
  {
    OBS_SPAN("test.export");
  }
  obs::set_level(obs::Level::kOff);
  const obs::JsonValue root =
      obs::json_parse(obs::Tracer::global().chrome_json());
  bool found = false;
  for (const obs::JsonValue& event : root.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() != "X") continue;
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    if (event.at("name").as_string() == "test.export") found = true;
  }
  EXPECT_TRUE(found);
  obs::Tracer::global().reset();
}

fl::SimulationOptions tiny_options() {
  fl::SimulationOptions options;
  options.model.arch = "mlp";
  options.model.image_size = 10;
  options.model.hidden = 16;
  options.dataset.image_size = 10;
  options.dataset.train_count = 400;
  options.dataset.test_count = 120;
  options.num_clients = 4;
  options.local.iterations = 4;
  options.local.batch_size = 8;
  options.local.learning_rate = 0.05f;
  options.eval_every = 2;
  return options;
}

std::unique_ptr<compress::SyncProtocol> proto_for(const std::string& name,
                                                  int clients) {
  fl::ProtocolConfig config;
  config.name = name;
  config.num_clients = clients;
  return make_protocol(config);
}

TEST(Telemetry, ThreeRoundSimulationInvariants) {
  LevelGuard guard;
  obs::set_level(obs::Level::kMetrics);
  const std::string path = ::testing::TempDir() + "/fedsu_obs_telemetry.jsonl";

  // A clean FedSU run, then FedAvg under upload loss 0.5 and churn 0.2
  // with a quorum of 3 of 6, through each engine. Those stall most rounds,
  // and a stalled round is still a whole round to the wall phases and the
  // telemetry. Each run checkpoints every round; the async one into a path
  // that cannot be a directory, so every write fails.
  const std::string ckpt_dir = ::testing::TempDir() + "/fedsu_obs_ckpt";
  const std::string blocker = ::testing::TempDir() + "/fedsu_obs_not_a_dir";
  std::ofstream(blocker) << "x";
  struct Case {
    const char* protocol;
    fl::SimulationOptions options;
    bool expect_stalls;
  };
  std::vector<Case> cases = {{"fedsu", tiny_options(), false}};
  for (bool async : {false, true}) {
    fl::SimulationOptions stalling = tiny_options();
    stalling.num_clients = 6;
    stalling.faults.upload_loss_probability = 0.5;
    stalling.faults.crash_probability = 0.2;
    stalling.faults.min_quorum = 3;
    stalling.async.enabled = async;
    cases.push_back({"fedavg", stalling, true});
  }
  for (Case& c : cases) {
    c.options.checkpoint.every = 1;
    c.options.checkpoint.dir =
        c.options.async.enabled ? blocker + "/ckpt" : ckpt_dir;
  }

  int onsets = 0, checkpoint_failures = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.protocol) +
                 (c.options.async.enabled ? " async" : " sync"));
    fl::Simulation sim(c.options, proto_for(c.protocol, c.options.num_clients));
    obs::TelemetryWriter telemetry(path, c.protocol);
    sim.set_round_hook(telemetry.hook());
    const std::vector<fl::RoundRecord> records = sim.run(3);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(telemetry.rows_written(), 3);

    int stalls = 0;
    for (const fl::RoundRecord& r : records) {
      EXPECT_EQ(r.bytes_up > 0, r.num_participants > 0);
      if (r.num_participants == 0) ++stalls;
      if (r.faults) onsets += r.faults->onsets;
      EXPECT_TRUE(r.checkpoint.has_value());
      if (r.checkpoint && !r.checkpoint->ok) ++checkpoint_failures;
      EXPECT_GE(r.speculated_fraction, 0.0);
      EXPECT_LE(r.speculated_fraction, 1.0);
      EXPECT_GE(r.fallback_syncs, 0);
      const double phase_sum = r.wall.select_s + r.wall.train_s +
                               r.wall.sync_s + r.wall.timing_s +
                               r.wall.eval_s;
      EXPECT_GT(r.wall.total_s, 0.0);
      EXPECT_LE(phase_sum, r.wall.total_s * 1.0001 + 1e-9);
    }
    EXPECT_EQ(stalls > 0, c.expect_stalls);

    // The JSONL re-parses and carries the same invariants.
    std::ifstream in(path);
    std::string line;
    int rows = 0;
    while (std::getline(in, line)) {
      const obs::JsonValue record = obs::json_parse(line);
      EXPECT_EQ(record.at("protocol").as_string(), c.protocol);
      EXPECT_EQ(record.at("bytes_up").as_number() > 0.0,
                record.at("participants").as_number() > 0.0);
      const double spec = record.at("speculated_fraction").as_number();
      EXPECT_GE(spec, 0.0);
      EXPECT_LE(spec, 1.0);
      EXPECT_EQ(static_cast<int>(record.at("round").as_number()), rows);
      ++rows;
    }
    EXPECT_EQ(rows, 3);
    std::remove(path.c_str());
  }
  // The churn and the failing checkpoint directory both happened.
  EXPECT_GT(onsets, 0);
  EXPECT_GT(checkpoint_failures, 0);
  std::remove(blocker.c_str());
  std::filesystem::remove_all(ckpt_dir);
}

// The sim.* spans are the round's only phase clock: each record's wall
// fields are its round's span durations, and every span one level below
// sim.round on the simulation thread is one of the five phases — in the
// synchronous engine and in the async one under churn and upload loss.
TEST(Telemetry, WallPhasesAreTheRoundSpans) {
  LevelGuard guard;
  obs::set_level(obs::Level::kTrace);
  fl::SimulationOptions async_options = tiny_options();
  async_options.num_clients = 6;
  async_options.faults.crash_probability = 0.2;
  async_options.faults.upload_loss_probability = 0.3;
  async_options.async.enabled = true;
  async_options.async.buffer_k = 2;
  const std::pair<const char*, fl::SimulationOptions> cases[] = {
      {"fedsu", tiny_options()}, {"fedavg", async_options}};
  const std::set<std::string> phases = {"sim.select", "sim.train", "sim.sync",
                                        "sim.timing", "sim.eval"};
  for (const auto& [protocol, options] : cases) {
    SCOPED_TRACE(protocol);
    fl::Simulation sim(options, proto_for(protocol, options.num_clients));
    obs::Tracer::global().reset();
    const std::vector<fl::RoundRecord> records = sim.run(4);
    const std::vector<obs::SpanEvent> events =
        obs::Tracer::global().snapshot();
    std::vector<const obs::SpanEvent*> rounds;
    for (const obs::SpanEvent& e : events) {
      if (std::string(e.name) == "sim.round") rounds.push_back(&e);
    }
    ASSERT_EQ(rounds.size(), records.size());
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const obs::SpanEvent& round = *rounds[r];
      EXPECT_EQ(round.depth, 0);
      std::map<std::string, double> seconds;
      for (const obs::SpanEvent& e : events) {
        if (e.tid != round.tid || e.depth != 1 ||
            e.begin_ns < round.begin_ns || e.end_ns > round.end_ns) {
          continue;
        }
        EXPECT_TRUE(phases.count(e.name)) << e.name << " in round " << r;
        seconds[e.name] += static_cast<double>(e.end_ns - e.begin_ns) * 1e-9;
      }
      const fl::RoundRecord::WallPhases& wall = records[r].wall;
      EXPECT_GT(wall.select_s, 0.0) << r;
      EXPECT_DOUBLE_EQ(wall.select_s, seconds["sim.select"]) << r;
      EXPECT_DOUBLE_EQ(wall.train_s, seconds["sim.train"]) << r;
      EXPECT_DOUBLE_EQ(wall.sync_s, seconds["sim.sync"]) << r;
      EXPECT_DOUBLE_EQ(wall.timing_s, seconds["sim.timing"]) << r;
      EXPECT_DOUBLE_EQ(wall.eval_s, seconds["sim.eval"]) << r;
      EXPECT_DOUBLE_EQ(
          wall.total_s,
          static_cast<double>(round.end_ns - round.begin_ns) * 1e-9)
          << r;
    }
  }
  obs::Tracer::global().reset();
}

// Telemetry bytes must equal the protocol's exact serialized payload: for
// FedSU, one f32 per unpredictable parameter plus one per expiring error
// scalar, per participant (pinned independently in test_invariants.cpp).
TEST(Telemetry, BytesMatchSerializedPayload) {
  fl::Simulation sim(tiny_options(), proto_for("fedavg", 4));
  const fl::RoundRecord record = sim.step();
  // FedAvg round 0: everyone uploads/downloads the dense f32 model.
  const std::size_t per_client = sim.model_state_size() * sizeof(float);
  EXPECT_EQ(record.bytes_up,
            per_client * static_cast<std::size_t>(record.num_participants));
  EXPECT_EQ(record.bytes_down, record.bytes_up);
}

// FedSU's promotions are a round-record field: each round's count is the
// manager's own diagnosis of that round, the JSONL line carries the same
// integer, and a scheme without speculation reports 0.
TEST(Telemetry, PromotionsAreTheManagersDiagnosis) {
  const std::string path =
      ::testing::TempDir() + "/fedsu_obs_promotions.jsonl";
  for (const char* protocol : {"fedsu", "fedavg"}) {
    SCOPED_TRACE(protocol);
    fl::Simulation sim(tiny_options(), proto_for(protocol, 4));
    const auto* manager =
        dynamic_cast<const core::FedSuManager*>(&sim.protocol());
    ASSERT_EQ(manager != nullptr, std::string(protocol) == "fedsu");
    obs::TelemetryWriter telemetry(path, protocol);
    std::vector<int> diagnosed;
    sim.set_round_hook([&](const fl::RoundRecord& record) {
      diagnosed.push_back(
          manager ? static_cast<int>(
                        manager->last_round_diagnostics().promotions)
                  : 0);
      telemetry.append(record);
    });
    const std::vector<fl::RoundRecord> records = sim.run(10);
    ASSERT_EQ(diagnosed.size(), records.size());
    int total = 0;
    for (std::size_t r = 0; r < records.size(); ++r) {
      EXPECT_EQ(records[r].promotions, diagnosed[r]) << r;
      total += records[r].promotions;
    }
    if (manager) {
      EXPECT_GT(total, 0);
    } else {
      EXPECT_EQ(total, 0);
    }

    std::ifstream in(path);
    std::string line;
    std::size_t row = 0;
    while (std::getline(in, line)) {
      ASSERT_LT(row, records.size());
      const obs::JsonValue promotions =
          obs::json_parse(line).at("promotions");
      EXPECT_EQ(promotions.as_number(),
                static_cast<double>(records[row].promotions))
          << row;
      ++row;
    }
    EXPECT_EQ(row, records.size());
    std::remove(path.c_str());
  }
}

fl::RoundRecord health_record(int round, double loss) {
  fl::RoundRecord r;
  r.round = round;
  r.train_loss = loss;
  r.num_participants = 4;
  r.bytes_up = 100;
  r.bytes_down = 100;
  return r;
}

// Convenience: all alerts of one rule, in emission order.
std::vector<obs::Alert> alerts_for(const obs::HealthMonitor& monitor,
                                   const std::string& rule) {
  std::vector<obs::Alert> out;
  for (const obs::Alert& a : monitor.alerts()) {
    if (a.rule == rule) out.push_back(a);
  }
  return out;
}

TEST(Health, NonFiniteLossIsEdgeTriggered) {
  obs::HealthMonitor monitor;
  monitor.begin_run("fedsu", 0);
  monitor.observe_round(health_record(0, 1.0));
  EXPECT_TRUE(monitor.healthy());
  EXPECT_TRUE(monitor.alerts().empty());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  monitor.observe_round(health_record(1, nan));
  EXPECT_FALSE(monitor.healthy());
  monitor.observe_round(health_record(2, nan));  // persists: no second edge
  monitor.observe_round(health_record(3, 0.9));  // recovers: one clear edge

  const auto edges = alerts_for(monitor, "non_finite_loss");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].raised);
  EXPECT_EQ(edges[0].round, 1);
  EXPECT_EQ(edges[0].severity, obs::AlertSeverity::kCritical);
  EXPECT_FALSE(edges[1].raised);
  EXPECT_EQ(edges[1].round, 3);
  EXPECT_TRUE(monitor.healthy());
  EXPECT_EQ(monitor.raised_count(obs::AlertSeverity::kCritical), 1);
}

TEST(Health, PlateauRaisesAndImprovementClears) {
  obs::HealthOptions options;
  options.plateau_window = 3;
  obs::HealthMonitor monitor(options);
  monitor.begin_run("fedsu", 0);
  monitor.observe_round(health_record(0, 1.0));
  for (int r = 1; r <= 3; ++r) {  // three stale rounds fill the window
    monitor.observe_round(health_record(r, 1.0));
  }
  monitor.observe_round(health_record(4, 0.5));  // real improvement clears

  const auto edges = alerts_for(monitor, "loss_plateau");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].raised);
  EXPECT_EQ(edges[0].round, 3);
  EXPECT_EQ(edges[0].severity, obs::AlertSeverity::kWarning);
  EXPECT_FALSE(edges[1].raised);
  EXPECT_EQ(edges[1].round, 4);
}

TEST(Health, DivergenceNeedsAFullWindowAndIsCritical) {
  obs::HealthOptions options;
  options.divergence_window = 2;
  obs::HealthMonitor monitor(options);
  monitor.begin_run("fedsu", 0);
  monitor.observe_round(health_record(0, 1.0));  // best = 1.0
  monitor.observe_round(health_record(1, 4.0));  // streak 1: not yet
  EXPECT_TRUE(alerts_for(monitor, "loss_divergence").empty());
  monitor.observe_round(health_record(2, 4.0));  // streak 2: raised
  EXPECT_FALSE(monitor.healthy());
  monitor.observe_round(health_record(3, 1.0));  // back near best: cleared
  EXPECT_TRUE(monitor.healthy());

  const auto edges = alerts_for(monitor, "loss_divergence");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].severity, obs::AlertSeverity::kCritical);
  EXPECT_EQ(edges[0].round, 2);
  EXPECT_EQ(edges[1].round, 3);
}

TEST(Health, FallbackStormScalesWithModelSize) {
  obs::HealthOptions options;
  options.fallback_storm_window = 2;  // fraction 0.05 x 1000 = 50 scalars
  obs::HealthMonitor monitor(options);
  monitor.begin_run("fedsu", 1000);
  fl::RoundRecord storm = health_record(0, 1.0);
  storm.fallback_syncs = 100;
  monitor.observe_round(storm);
  storm.round = 1;
  monitor.observe_round(storm);  // second consecutive burst: raised
  fl::RoundRecord calm = health_record(2, 1.0);
  monitor.observe_round(calm);  // streak resets: cleared

  const auto edges = alerts_for(monitor, "fallback_storm");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].raised);
  EXPECT_EQ(edges[0].round, 1);
  EXPECT_DOUBLE_EQ(edges[0].threshold, 50.0);
  EXPECT_FALSE(edges[1].raised);
}

TEST(Health, SpeculationOscillationStorm) {
  obs::HealthMonitor monitor;  // osc_window 6, 3 flips of >= 0.05
  monitor.begin_run("fedsu", 0);
  // Promote/demote flapping: the speculated fraction ping-pongs.
  const double flapping[] = {0.2, 0.8, 0.2, 0.8, 0.2};
  int round = 0;
  for (const double spec : flapping) {
    fl::RoundRecord r = health_record(round++, 1.0);
    r.speculated_fraction = spec;
    monitor.observe_round(r);
  }
  auto edges = alerts_for(monitor, "speculation_oscillation");
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(edges[0].raised);
  EXPECT_EQ(edges[0].round, 4);  // third reversal lands on the fifth round

  // A steady fraction slides the flaps out of the window and clears.
  for (int i = 0; i < 8; ++i) {
    fl::RoundRecord r = health_record(round++, 1.0);
    r.speculated_fraction = 0.5;
    monitor.observe_round(r);
  }
  edges = alerts_for(monitor, "speculation_oscillation");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_FALSE(edges[1].raised);
}

TEST(Health, StragglerDriftOverFaultWindow) {
  obs::HealthOptions options;
  options.straggler_window = 2;  // fraction threshold stays 0.5
  obs::HealthMonitor monitor(options);
  monitor.begin_run("fedsu", 0);
  for (int r = 0; r < 2; ++r) {
    fl::RoundRecord rec = health_record(r, 1.0);
    rec.faults.emplace();
    rec.faults->selected = 10;
    rec.faults->stragglers = 8;
    monitor.observe_round(rec);
  }
  fl::RoundRecord rec = health_record(2, 1.0);
  rec.faults.emplace();
  rec.faults->selected = 10;  // windowed fraction drops to 8/20
  monitor.observe_round(rec);

  const auto edges = alerts_for(monitor, "straggler_drift");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].raised);
  EXPECT_EQ(edges[0].round, 1);  // fires only once the window is full
  EXPECT_DOUBLE_EQ(edges[0].value, 0.8);
  EXPECT_FALSE(edges[1].raised);
}

TEST(Health, StalenessBlowupAndByteBudget) {
  obs::HealthOptions options;
  options.staleness_max = 2;
  options.byte_budget_per_round = 150;
  obs::HealthMonitor monitor(options);
  monitor.begin_run("async/fedsu", 0);
  fl::RoundRecord hot = health_record(0, 1.0);  // 200 bytes > 150 budget
  hot.async.emplace();
  hot.async->max_staleness = 5;
  monitor.observe_round(hot);
  fl::RoundRecord cool = health_record(1, 1.0);
  cool.async.emplace();
  cool.async->max_staleness = 1;
  cool.bytes_up = cool.bytes_down = 50;
  monitor.observe_round(cool);

  const auto staleness = alerts_for(monitor, "staleness_blowup");
  const auto budget = alerts_for(monitor, "byte_budget_overrun");
  ASSERT_EQ(staleness.size(), 2u);
  ASSERT_EQ(budget.size(), 2u);
  EXPECT_TRUE(staleness[0].raised);
  EXPECT_DOUBLE_EQ(staleness[0].value, 5.0);
  EXPECT_FALSE(staleness[1].raised);
  EXPECT_TRUE(budget[0].raised);
  EXPECT_DOUBLE_EQ(budget[0].value, 200.0);
  EXPECT_FALSE(budget[1].raised);
  EXPECT_EQ(monitor.raised_count(obs::AlertSeverity::kWarning), 2);
}

TEST(Health, ModelProbeCatchesNaNInjection) {
  obs::HealthMonitor monitor;
  monitor.begin_run("fedsu", 0);
  std::vector<float> state{1.0f, 2.0f, 3.0f};
  monitor.observe_model(0, state);
  EXPECT_TRUE(monitor.alerts().empty());

  state[1] = std::numeric_limits<float>::quiet_NaN();
  monitor.observe_model(1, state);
  EXPECT_FALSE(monitor.healthy());
  state[1] = 2.0f;
  // One probe after recovery the update norm is still NaN-vs-NaN; the rule
  // clears on the next fully finite delta.
  monitor.observe_model(2, state);
  monitor.observe_model(3, state);
  EXPECT_TRUE(monitor.healthy());

  const auto edges = alerts_for(monitor, "non_finite_update");
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].raised);
  EXPECT_EQ(edges[0].severity, obs::AlertSeverity::kCritical);
  EXPECT_EQ(edges[0].round, 1);
  EXPECT_FALSE(edges[1].raised);
  EXPECT_EQ(edges[1].round, 3);
}

TEST(Health, RuleStateResetsAcrossRuns) {
  obs::HealthMonitor monitor;
  monitor.begin_run("fedsu", 0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  monitor.observe_round(health_record(0, nan));
  EXPECT_FALSE(monitor.healthy());
  // A new segment must not inherit the active edge: no spurious "cleared"
  // alert for the next scheme, and health is fresh.
  monitor.begin_run("fedavg", 0);
  EXPECT_TRUE(monitor.healthy());
  monitor.observe_round(health_record(0, 1.0));
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].scheme, "fedsu");
}

TEST(Health, AlertsJsonlMatchesProductionEncoding) {
  const std::string path = ::testing::TempDir() + "/fedsu_obs_alerts.jsonl";
  obs::HealthMonitor monitor;
  monitor.open_alerts_file(path);
  monitor.begin_run("baseline/fedsu", 0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  monitor.observe_round(health_record(0, nan));
  monitor.observe_round(health_record(1, 1.0));

  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ASSERT_LT(rows, monitor.alerts().size());
    EXPECT_EQ(line, obs::HealthMonitor::to_json_line(monitor.alerts()[rows]));
    const obs::JsonValue parsed = obs::json_parse(line);
    EXPECT_EQ(parsed.at("scheme").as_string(), "baseline/fedsu");
    EXPECT_EQ(parsed.at("rule").as_string(), "non_finite_loss");
    EXPECT_EQ(parsed.at("severity").as_string(), "critical");
    EXPECT_EQ(parsed.at("state").as_string(), rows == 0 ? "raised" : "cleared");
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
  std::remove(path.c_str());
}

// Full-stack integration: a buffered-async run under 100% straggler faults,
// monitored through the round hook, raises the expected alert rules.
TEST(Health, FaultsAndAsyncIntegrationRaisesAlerts) {
  fl::SimulationOptions options = tiny_options();
  options.async.enabled = true;
  options.async.buffer_k = 2;
  options.faults.straggler_probability = 1.0;

  obs::HealthOptions health;
  health.byte_budget_per_round = 1;  // every cycle overruns
  health.straggler_fraction = 0.25;
  health.straggler_window = 2;
  obs::HealthMonitor monitor(health);

  fl::Simulation sim(options, proto_for("fedsu", options.num_clients));
  monitor.begin_run("async/fedsu", sim.model_state_size());
  sim.set_round_hook(monitor.hook());
  for (int cycle = 0; cycle < 6; ++cycle) sim.step();

  EXPECT_FALSE(alerts_for(monitor, "byte_budget_overrun").empty());
  EXPECT_FALSE(alerts_for(monitor, "straggler_drift").empty());
  EXPECT_GE(monitor.raised_count(obs::AlertSeverity::kWarning), 2);
  EXPECT_TRUE(monitor.healthy());  // noisy, but not critical
}

// The §5b determinism contract for the monitor: observing every round AND
// probing the model each round must not perturb the weights — sync path.
TEST(Health, MonitoredSyncRunIsBitwiseIdenticalToUnmonitored) {
  fl::Simulation plain(tiny_options(), proto_for("fedsu", 4));
  plain.run(3);

  obs::HealthMonitor monitor;
  fl::Simulation watched(tiny_options(), proto_for("fedsu", 4));
  monitor.begin_run("fedsu", watched.model_state_size());
  watched.set_round_hook(monitor.hook());
  for (int round = 0; round < 3; ++round) {
    watched.step();
    monitor.observe_model(round, watched.global_state());
  }
  EXPECT_EQ(plain.global_state(), watched.global_state());
}

// Same contract on the buffered-async path (per-cycle records).
TEST(Health, MonitoredAsyncRunIsBitwiseIdenticalToUnmonitored) {
  fl::SimulationOptions options = tiny_options();
  options.async.enabled = true;
  options.async.buffer_k = 2;
  fl::Simulation plain(options, proto_for("fedsu", options.num_clients));
  for (int cycle = 0; cycle < 3; ++cycle) plain.step();

  obs::HealthMonitor monitor;
  fl::Simulation watched(options, proto_for("fedsu", options.num_clients));
  monitor.begin_run("async/fedsu", watched.model_state_size());
  watched.set_round_hook(monitor.hook());
  for (int cycle = 0; cycle < 3; ++cycle) {
    watched.step();
    monitor.observe_model(cycle, watched.global_state());
  }
  EXPECT_EQ(plain.global_state(), watched.global_state());
}

TEST(Manifest, SchemaRoundTripsAndTotalsSum) {
  obs::RunManifest manifest("test_bench");
  obs::RunEnvironment env;
  env.seed = 7;
  env.threads = 2;
  env.isa = "avx2-fma";
  env.build = "release";
  env.obs_level = "metrics";
  manifest.set_environment(env);
  manifest.set_config({{"rounds", "6"}, {"scheme", "fedsu"}});

  obs::RunAggregates cell;
  cell.scheme = "fedsu";
  cell.setting = "baseline";
  cell.rounds = 6;
  cell.bytes_up = 100;
  cell.bytes_down = 50;
  cell.final_accuracy = 0.5;
  cell.best_accuracy = 0.6;
  cell.alerts_warning = 2;
  cell.fault_totals["crashed"] = 1;
  manifest.add_run(cell);
  obs::RunAggregates reached = cell;
  reached.scheme = "fedavg";
  reached.time_to_target_s = 12.5;
  reached.gigabytes_to_target = 0.25;
  reached.alerts_critical = 1;
  manifest.add_run(reached);
  manifest.set_outcome("ok");

  const obs::JsonValue root = obs::json_parse(manifest.to_json());
  EXPECT_EQ(root.at("schema").as_string(), obs::RunManifest::kSchema);
  EXPECT_EQ(root.at("outcome").as_string(), "ok");
  EXPECT_GE(root.at("end_unix_s").as_number(),
            root.at("start_unix_s").as_number());
  EXPECT_EQ(root.at("environment").at("isa").as_string(), "avx2-fma");
  EXPECT_EQ(root.at("config").at("scheme").as_string(), "fedsu");

  const auto& runs = root.at("runs").as_array();
  ASSERT_EQ(runs.size(), 2u);
  // Negative to-target sentinels serialize as null ("never reached").
  EXPECT_TRUE(runs[0].at("time_to_target_s").is_null());
  EXPECT_TRUE(runs[0].at("gigabytes_to_target").is_null());
  EXPECT_DOUBLE_EQ(runs[1].at("time_to_target_s").as_number(), 12.5);
  EXPECT_EQ(runs[0].at("faults").at("crashed").as_number(), 1.0);
  EXPECT_EQ(runs[0].at("alerts").at("warning").as_number(), 2.0);

  const obs::JsonValue& totals = root.at("totals");
  EXPECT_EQ(totals.at("rounds").as_number(), 12.0);
  EXPECT_EQ(totals.at("bytes_up").as_number(), 200.0);
  EXPECT_EQ(totals.at("bytes_down").as_number(), 100.0);
  EXPECT_EQ(totals.at("alerts_warning").as_number(), 4.0);
  EXPECT_EQ(totals.at("alerts_critical").as_number(), 1.0);
}

// The determinism contract: instrumentation only observes. A traced run
// must produce bit-identical weights to an untraced one.
TEST(Obs, TracedRunIsBitwiseIdenticalToUntraced) {
  LevelGuard guard;
  obs::set_level(obs::Level::kOff);
  fl::Simulation off(tiny_options(), proto_for("fedsu", 4));
  off.run(3);

  obs::set_level(obs::Level::kTrace);
  fl::Simulation on(tiny_options(), proto_for("fedsu", 4));
  on.run(3);
  obs::set_level(obs::Level::kOff);
  obs::Tracer::global().reset();

  EXPECT_EQ(off.global_state(), on.global_state());
}

}  // namespace
}  // namespace fedsu
