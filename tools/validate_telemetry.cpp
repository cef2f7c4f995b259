// Validates the observability outputs of a run — the CI telemetry gate.
//
//   ./validate_telemetry [--trace trace.json] [--telemetry telemetry.jsonl]
//       [--alerts alerts.jsonl] [--manifest manifest.json]
//       [--expect-rounds N]
//
// Checks, per file (each optional; pass what the run produced):
//   * trace: well-formed chrome://tracing JSON with >= 4 distinct span
//     names, across >= 2 distinct threads when it holds client.train
//     spans, every event with ts/dur >= 0;
//   * telemetry: every JSONL line parses, rounds are consecutive within a
//     scheme segment (a reset to 0 starts the next segment in multi-cell
//     bench files), bytes_up > 0, speculated_fraction in [0,1], promotions
//     a non-negative integer, and the per-phase wall durations sum to at
//     most the round's total;
//   * alerts: every line parses against the obs::HealthMonitor schema
//     (severity enum, raised|cleared state), rounds are monotone per
//     scheme, and every "cleared" follows a "raised" of the same rule;
//   * manifest: obs::RunManifest schema (environment, config, per-cell
//     aggregates, the optional crash-recovery object), with totals equal to
//     the sums over the cells.
//
// When both the manifest and the telemetry / alerts files of the SAME run
// are given, their aggregates are cross-reconciled: manifest total rounds
// and bytes must equal the telemetry sums, and manifest alert totals must
// equal the raised edges in the alert stream. With the trace, row i's wall
// phases must be the i-th sim.round span's phase spans (within 1 ns), and
// nothing else may sit one level below a sim.round on its thread; the two
// files must cover the same rounds. Each row's checkpoint.wall_s must be the
// duration of the sim.checkpoint span right after its sim.round span, and
// there must be one such span per checkpoint object.
//
// A line or event that parses but lacks a key it needs fails that check.
// Exits 0 when every requested check passes, 1 otherwise, 2 on misuse — no
// Python needed in CI.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/flags.h"

namespace {

using fedsu::obs::JsonValue;

int g_failures = 0;

void fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  ++g_failures;
}

void check(bool ok, const std::string& message) {
  if (!ok) fail(message);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return "";
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// One complete ("X") trace event, in the trace's microseconds.
struct Span {
  std::string name;
  int tid = 0;
  int depth = 0;
  double ts = 0.0;
  double dur = 0.0;
};

std::vector<Span> validate_trace(const std::string& path) {
  std::vector<Span> spans;
  const std::string text = read_file(path);
  if (text.empty()) return spans;
  JsonValue root;
  try {
    root = fedsu::obs::json_parse(text);
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
    return spans;
  }
  if (!root.has("traceEvents") || !root.at("traceEvents").is_array()) {
    fail(path + ": no traceEvents array");
    return spans;
  }
  std::set<std::string> span_names;
  std::set<int> span_tids;
  std::size_t index = 0;
  for (const JsonValue& event : root.at("traceEvents").as_array()) {
    ++index;
    try {
      const std::string ph = event.at("ph").as_string();
      if (ph != "X") continue;  // skip metadata rows
      Span span;
      span.name = event.at("name").as_string();
      span.tid = static_cast<int>(event.at("tid").as_number());
      span.depth = static_cast<int>(event.at("args").at("depth").as_number());
      span.ts = event.at("ts").as_number();
      span.dur = event.at("dur").as_number();
      span_names.insert(span.name);
      span_tids.insert(span.tid);
      check(span.ts >= 0.0, path + ": negative ts");
      check(span.dur >= 0.0, path + ": negative dur");
      spans.push_back(std::move(span));
    } catch (const std::exception& e) {
      fail(path + ": event " + std::to_string(index) + ": " + e.what());
    }
  }
  check(span_names.size() >= 4,
        path + ": expected >= 4 distinct span names, got " +
            std::to_string(span_names.size()));
  // Simulations train clients on pool workers; a trace with no training
  // (e.g. bench_comm's, whose protocols run on the main thread) may sit on
  // one thread.
  if (span_names.count("client.train") > 0) {
    check(span_tids.size() >= 2,
          path + ": expected client.train spans on >= 2 threads, got " +
              std::to_string(span_tids.size()));
  }
  std::printf("%s: %zu span names across %zu threads\n", path.c_str(),
              span_names.size(), span_tids.size());
  return spans;
}

// The wall object's fields, in this order, and the span each one is.
constexpr const char* kWallFields[] = {"select_s", "train_s", "sync_s",
                                       "timing_s", "eval_s", "total_s"};
constexpr const char* kWallSpans[] = {"sim.select", "sim.train", "sim.sync",
                                      "sim.timing", "sim.eval", "sim.round"};
constexpr int kPhases = 5;  // the first five; total_s is sim.round itself

// Telemetry aggregates handed back for cross-reconciliation.
struct TelemetryTotals {
  int rows = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::vector<std::array<double, kPhases + 1>> walls;  // per row, seconds
  // (index into walls, checkpoint.wall_s) of every row with a checkpoint
  // object.
  std::vector<std::pair<std::size_t, double>> checkpoints;
};

TelemetryTotals validate_telemetry(const std::string& path,
                                   int expect_rounds) {
  TelemetryTotals totals;
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return totals;
  }
  std::string line;
  int rows = 0;
  int prev_round = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue record;
    try {
      record = fedsu::obs::json_parse(line);
    } catch (const std::exception& e) {
      fail(path + " line " + std::to_string(rows + 1) + ": " + e.what());
      return totals;
    }
    ++rows;
    // A line that parses but lacks a key fails the check, not the tool.
    try {
      const int round = static_cast<int>(record.at("round").as_number());
      // A reset to round 0 starts the next (setting, scheme) segment of a
      // multi-cell bench file; within a segment rounds are consecutive.
      check(rows == 1 || round == prev_round + 1 || round == 0,
            path + ": rounds not consecutive at row " + std::to_string(rows));
      prev_round = round;
      totals.bytes_up +=
          static_cast<std::uint64_t>(record.at("bytes_up").as_number());
      totals.bytes_down +=
          static_cast<std::uint64_t>(record.at("bytes_down").as_number());
      const double participants = record.at("participants").as_number();
      const double spec = record.at("speculated_fraction").as_number();
      if (participants > 0.0) {
        check(record.at("bytes_up").as_number() > 0.0,
              path + ": bytes_up not positive in round " +
                  std::to_string(round));
      } else {
        // Stalled round (every upload lost / quorum missed / all crashed):
        // nothing was aggregated, so nothing may claim to have speculated.
        check(record.at("bytes_up").as_number() == 0.0,
              path + ": stalled round " + std::to_string(round) +
                  " reports bytes_up");
        check(spec == 0.0, path + ": stalled round " + std::to_string(round) +
                               " reports speculated_fraction != 0");
      }
      check(spec >= 0.0 && spec <= 1.0,
            path + ": speculated_fraction outside [0,1] in round " +
                std::to_string(round));
      const double promotions =
          record.has("promotions") ? record.at("promotions").as_number() : -1.0;
      check(promotions >= 0.0 && promotions == std::floor(promotions),
            path + ": promotions missing or not a non-negative integer in "
                   "round " + std::to_string(round));
      double checkpoint_wall_s = -1.0;  // no checkpoint object
      const bool is_async = record.has("async");
      if (is_async) {
        // Buffered-async cycle object: the staleness histogram must account
        // for every aggregated upload, and the discount weights are each in
        // (0, 1], so their sum is positive and at most `consumed`.
        const JsonValue& as = record.at("async");
        const double consumed = as.at("consumed").as_number();
        check(consumed == participants,
              path + ": async.consumed != participants in round " +
                  std::to_string(round));
        check(as.at("fill_time_s").as_number() >= 0.0,
              path + ": negative async.fill_time_s in round " +
                  std::to_string(round));
        check(as.at("inflight").as_number() >= 0.0,
              path + ": negative async.inflight in round " +
                  std::to_string(round));
        double hist_sum = 0.0;
        for (const JsonValue& bucket : as.at("staleness_hist").as_array()) {
          hist_sum += bucket.as_number();
        }
        check(hist_sum == consumed,
              path + ": async.staleness_hist does not sum to consumed in "
                     "round " + std::to_string(round));
        const double weight_sum = as.at("weight_sum").as_number();
        check(weight_sum <= consumed + 1e-9 &&
                  (consumed == 0.0 || weight_sum > 0.0),
              path + ": async.weight_sum outside (0, consumed] in round " +
                  std::to_string(round));
      }
      if (record.has("faults")) {
        const JsonValue& fc = record.at("faults");
        if (!is_async) {
          // Synchronous fault bookkeeping must balance per round: every
          // selected client is accounted for exactly once (aggregated, lost,
          // corrupt, late, or delivered-but-unused). Async cycles consume
          // uploads dispatched in earlier cycles, so their reconciliation is
          // cumulative and checked by bench_robustness instead.
          const double accounted = participants +
                                   record.at("uploads_lost").as_number() +
                                   fc.at("corrupt").as_number() +
                                   fc.at("deadline_missed").as_number() +
                                   fc.at("unused").as_number();
          check(fc.at("selected").as_number() == accounted,
                path + ": fault tallies do not sum to selected in round " +
                    std::to_string(round));
        }
        check(fc.at("quorum_met").as_bool() == (participants > 0.0),
              path + ": quorum_met inconsistent with participants in round " +
                  std::to_string(round));
      }
      if (record.has("checkpoint")) {
        // Periodic run-checkpoint outcome (docs/RECOVERY.md): present only on
        // rounds where the cadence fired. Its round is the rounds completed
        // in the snapshot, one past the row's 0-based round.
        const JsonValue& cp = record.at("checkpoint");
        const bool ok = cp.at("ok").as_bool();
        check(static_cast<int>(cp.at("round").as_number()) == round + 1,
              path + ": checkpoint.round != round + 1 in round " +
                  std::to_string(round));
        if (ok) {
          check(cp.at("bytes").as_number() > 0.0,
                path + ": successful checkpoint with zero bytes in round " +
                    std::to_string(round));
          check(!cp.at("path").as_string().empty(),
                path + ": successful checkpoint with empty path in round " +
                    std::to_string(round));
        } else {
          check(!cp.at("error").as_string().empty(),
                path + ": failed checkpoint without an error in round " +
                    std::to_string(round));
        }
        checkpoint_wall_s = cp.at("wall_s").as_number();
        check(checkpoint_wall_s >= 0.0,
              path + ": negative checkpoint.wall_s in round " +
                  std::to_string(round));
      }
      const JsonValue& wall = record.at("wall");
      std::array<double, kPhases + 1> phases{};
      double phase_sum = 0.0;
      for (int f = 0; f <= kPhases; ++f) {
        phases[f] = wall.at(kWallFields[f]).as_number();
        if (f < kPhases) phase_sum += phases[f];
      }
      // The phases are disjoint spans inside the round's span.
      check(phase_sum <= phases[kPhases] + 1e-9,
            path + ": wall phases exceed round total in round " +
                std::to_string(round));
      totals.walls.push_back(phases);
      if (checkpoint_wall_s >= 0.0) {
        totals.checkpoints.emplace_back(totals.walls.size() - 1,
                                        checkpoint_wall_s);
      }
    } catch (const std::exception& e) {
      fail(path + " line " + std::to_string(rows) + ": " + e.what());
    }
  }
  check(rows > 0, path + ": no telemetry rows");
  if (expect_rounds > 0) {
    check(rows == expect_rounds,
          path + ": expected " + std::to_string(expect_rounds) +
              " rounds, got " + std::to_string(rows));
  }
  std::printf("%s: %d telemetry rows\n", path.c_str(), rows);
  totals.rows = rows;
  return totals;
}

// The i-th sim.round span is the i-th telemetry row: its wall fields must
// be the durations of the round's phase spans (one level down, on the
// round's thread), and nothing else may sit at that level.
void reconcile_wall_with_trace(const std::vector<Span>& spans,
                               const TelemetryTotals& telemetry,
                               const std::string& what) {
  std::vector<const Span*> rounds;
  for (const Span& s : spans) {
    if (s.name == "sim.round") rounds.push_back(&s);
  }
  if (rounds.size() != telemetry.walls.size()) {
    fail(what + ": " + std::to_string(rounds.size()) +
         " sim.round spans but " + std::to_string(telemetry.walls.size()) +
         " telemetry rows");
    return;
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const Span& round = *rounds[r];
    std::array<double, kPhases + 1> traced{};
    traced[kPhases] = round.dur;
    for (const Span& s : spans) {
      if (s.tid != round.tid || s.depth != round.depth + 1 ||
          s.ts < round.ts || s.ts > round.ts + round.dur) {
        continue;
      }
      const int f = static_cast<int>(
          std::find(kWallSpans, kWallSpans + kPhases, s.name) - kWallSpans);
      if (f == kPhases) {
        fail(what + ": span '" + s.name + "' inside sim.round " +
             std::to_string(r) + " is not a phase");
        continue;
      }
      traced[f] += s.dur;
    }
    for (int f = 0; f <= kPhases; ++f) {
      // Trace durations are microseconds; 1e-3 us is 1 ns.
      const double wall_us = telemetry.walls[r][f] * 1e6;
      check(std::abs(traced[f] - wall_us) <= 1e-3,
            what + ": row " + std::to_string(r) + " wall." + kWallFields[f] +
                " is " + std::to_string(wall_us) + " us, its " +
                kWallSpans[f] + " spans " + std::to_string(traced[f]) + " us");
    }
  }
  // A checkpoint is written after its round's span closes: its
  // sim.checkpoint span follows that sim.round on the same thread, before
  // the next round begins.
  std::vector<const Span*> writes;
  for (const Span& s : spans) {
    if (s.name == "sim.checkpoint") writes.push_back(&s);
  }
  if (writes.size() != telemetry.checkpoints.size()) {
    fail(what + ": " + std::to_string(writes.size()) +
         " sim.checkpoint spans but " +
         std::to_string(telemetry.checkpoints.size()) +
         " telemetry checkpoint objects");
    return;
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const auto [row, wall_s] = telemetry.checkpoints[i];
    const Span& round = *rounds[row];
    const Span& write = *writes[i];
    const bool follows = write.tid == round.tid &&
                         write.ts + 1e-3 >= round.ts + round.dur &&
                         (row + 1 == rounds.size() ||
                          write.ts < rounds[row + 1]->ts);
    check(follows, what + ": sim.checkpoint span " + std::to_string(i) +
                       " does not follow row " + std::to_string(row) +
                       "'s sim.round");
    check(std::abs(write.dur - wall_s * 1e6) <= 1e-3,
          what + ": row " + std::to_string(row) + " checkpoint.wall_s is " +
              std::to_string(wall_s * 1e6) + " us, its sim.checkpoint span " +
              std::to_string(write.dur) + " us");
  }
  std::printf("%s: %zu rounds' wall phases and %zu checkpoint writes checked "
              "against their spans\n",
              what.c_str(), rounds.size(), writes.size());
}

// Raised-edge counts per severity, for manifest cross-reconciliation.
struct AlertTotals {
  bool validated = false;
  std::uint64_t info = 0;
  std::uint64_t warning = 0;
  std::uint64_t critical = 0;
};

AlertTotals validate_alerts(const std::string& path) {
  AlertTotals totals;
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return totals;
  }
  std::string line;
  int rows = 0;
  // Active (raised, not yet cleared) rules and the last round seen, per
  // scheme label — edges must alternate and rounds must be monotone.
  std::map<std::string, std::set<std::string>> active;
  std::map<std::string, int> last_round;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue alert;
    try {
      alert = fedsu::obs::json_parse(line);
    } catch (const std::exception& e) {
      fail(path + " line " + std::to_string(rows + 1) + ": " + e.what());
      return totals;
    }
    ++rows;
    const std::string where = path + " line " + std::to_string(rows);
    try {
      const std::string scheme = alert.at("scheme").as_string();
      const std::string rule = alert.at("rule").as_string();
      check(!rule.empty(), where + ": empty rule");
      const int round = static_cast<int>(alert.at("round").as_number());
      check(round >= 0, where + ": negative round");
      auto [it, fresh] = last_round.emplace(scheme, round);
      check(fresh || round >= it->second,
            where + ": rounds not monotone within scheme '" + scheme + "'");
      it->second = round;
      const std::string severity = alert.at("severity").as_string();
      if (severity == "info") ++totals.info;
      else if (severity == "warning") ++totals.warning;
      else if (severity == "critical") ++totals.critical;
      else fail(where + ": unknown severity '" + severity + "'");
      const std::string state = alert.at("state").as_string();
      std::set<std::string>& raised = active[scheme];
      if (state == "raised") {
        check(raised.insert(rule).second,
              where + ": rule '" + rule + "' raised twice without clearing");
      } else if (state == "cleared") {
        check(raised.erase(rule) == 1,
              where + ": rule '" + rule + "' cleared without being raised");
        // A cleared edge is not a raised alert; count raised edges only.
        if (severity == "info") --totals.info;
        else if (severity == "warning") --totals.warning;
        else if (severity == "critical") --totals.critical;
      } else {
        fail(where + ": state must be raised | cleared, got '" + state + "'");
      }
      alert.at("message").as_string();
      check(alert.has("value") && alert.has("threshold"),
            where + ": missing value/threshold");
    } catch (const std::exception& e) {
      fail(where + ": " + e.what());
    }
  }
  std::printf("%s: %d alert edges (%llu info / %llu warning / %llu critical "
              "raised)\n",
              path.c_str(), rows,
              static_cast<unsigned long long>(totals.info),
              static_cast<unsigned long long>(totals.warning),
              static_cast<unsigned long long>(totals.critical));
  totals.validated = true;
  return totals;
}

// Manifest totals handed back for cross-reconciliation.
struct ManifestTotals {
  bool validated = false;
  std::uint64_t rounds = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t alerts_info = 0;
  std::uint64_t alerts_warning = 0;
  std::uint64_t alerts_critical = 0;
};

ManifestTotals validate_manifest(const std::string& path) {
  ManifestTotals totals;
  const std::string text = read_file(path);
  if (text.empty()) return totals;
  JsonValue root;
  try {
    root = fedsu::obs::json_parse(text);
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
    return totals;
  }
  try {
    check(root.at("schema").as_string() == "fedsu.run_manifest.v1",
          path + ": unexpected schema tag");
    check(!root.at("bench").as_string().empty(), path + ": empty bench name");
    const double start = root.at("start_unix_s").as_number();
    const double end = root.at("end_unix_s").as_number();
    check(start > 0 && end >= start, path + ": start/end times inconsistent");
    const std::string outcome = root.at("outcome").as_string();
    check(outcome == "ok" || outcome == "failed" || outcome == "running",
          path + ": outcome must be ok | failed | running");
    const JsonValue& env = root.at("environment");
    check(env.at("threads").as_number() >= 1, path + ": threads < 1");
    check(!env.at("isa").as_string().empty(), path + ": empty isa");
    const std::string build = env.at("build").as_string();
    check(build == "release" || build == "debug",
          path + ": build must be release | debug");
    const std::string level = env.at("obs_level").as_string();
    check(level == "off" || level == "metrics" || level == "trace",
          path + ": bad obs_level");
    root.at("config").as_object();  // present and an object
    if (root.has("recovery")) {
      // Crash-recovery summary (docs/RECOVERY.md): present only when the
      // run checkpointed and/or resumed.
      const JsonValue& rec = root.at("recovery");
      const bool resumed = rec.at("resumed").as_bool();
      if (resumed) {
        check(rec.at("resumed_from_round").as_number() >= 0,
              path + ": resumed run with negative resumed_from_round");
        check(!rec.at("resumed_path").as_string().empty(),
              path + ": resumed run with empty resumed_path");
      }
      check(rec.at("checkpoint_every").as_number() >= 0,
            path + ": negative recovery.checkpoint_every");
      const double written = rec.at("checkpoints_written").as_number();
      const double failed = rec.at("checkpoint_failures").as_number();
      check(written >= 0 && failed >= 0,
            path + ": negative recovery checkpoint counts");
      check(resumed || rec.at("checkpoint_every").as_number() > 0,
            path + ": recovery object present but neither resumed nor "
                   "checkpointing");
    }
    const auto& runs = root.at("runs").as_array();
    check(!runs.empty(), path + ": no runs recorded");
    for (const JsonValue& run : runs) {
      const std::string scheme = run.at("scheme").as_string();
      check(!scheme.empty(), path + ": run with empty scheme");
      const double rounds = run.at("rounds").as_number();
      check(rounds >= 0, path + ": negative rounds");
      for (const char* key : {"final_accuracy", "best_accuracy"}) {
        const double acc = run.at(key).as_number();
        check(acc >= 0.0 && acc <= 1.0,
              path + ": " + key + " outside [0,1] for " + scheme);
      }
      // time/gigabytes-to-target are null when the target was not reached.
      for (const char* key : {"time_to_target_s", "gigabytes_to_target"}) {
        const JsonValue& v = run.at(key);
        check(v.is_null() || v.as_number() >= 0.0,
              path + ": negative " + key + " for " + scheme);
      }
      run.at("faults").as_object();
      const JsonValue& alerts = run.at("alerts");
      totals.rounds += static_cast<std::uint64_t>(rounds);
      totals.bytes_up +=
          static_cast<std::uint64_t>(run.at("bytes_up").as_number());
      totals.bytes_down +=
          static_cast<std::uint64_t>(run.at("bytes_down").as_number());
      totals.alerts_info +=
          static_cast<std::uint64_t>(alerts.at("info").as_number());
      totals.alerts_warning +=
          static_cast<std::uint64_t>(alerts.at("warning").as_number());
      totals.alerts_critical +=
          static_cast<std::uint64_t>(alerts.at("critical").as_number());
    }
    // The embedded totals must equal the sums over the cells.
    const JsonValue& t = root.at("totals");
    check(static_cast<std::uint64_t>(t.at("rounds").as_number()) ==
              totals.rounds,
          path + ": totals.rounds does not sum over runs");
    check(static_cast<std::uint64_t>(t.at("bytes_up").as_number()) ==
              totals.bytes_up,
          path + ": totals.bytes_up does not sum over runs");
    check(static_cast<std::uint64_t>(t.at("bytes_down").as_number()) ==
              totals.bytes_down,
          path + ": totals.bytes_down does not sum over runs");
    check(static_cast<std::uint64_t>(t.at("alerts_info").as_number()) ==
                  totals.alerts_info &&
              static_cast<std::uint64_t>(
                  t.at("alerts_warning").as_number()) ==
                  totals.alerts_warning &&
              static_cast<std::uint64_t>(
                  t.at("alerts_critical").as_number()) ==
                  totals.alerts_critical,
          path + ": alert totals do not sum over runs");
    std::printf("%s: %zu runs, %llu rounds, outcome %s\n", path.c_str(),
                runs.size(), static_cast<unsigned long long>(totals.rounds),
                outcome.c_str());
    totals.validated = true;
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
  }
  return totals;
}

}  // namespace

int run(int argc, char** argv) {
  fedsu::util::Flags flags;
  flags.add_string("trace", "", "chrome://tracing JSON to validate")
      .add_string("telemetry", "", "per-round telemetry JSONL to validate")
      .add_string("alerts", "", "health-monitor alerts JSONL to validate")
      .add_string("manifest", "", "run manifest JSON to validate")
      .add_int("expect-rounds", 0,
               "expected telemetry row count (0 = any non-zero)");
  if (!flags.parse(argc, argv)) return 0;

  const std::string trace = flags.get_string("trace");
  const std::string telemetry = flags.get_string("telemetry");
  const std::string alerts = flags.get_string("alerts");
  const std::string manifest = flags.get_string("manifest");
  if (trace.empty() && telemetry.empty() && alerts.empty() &&
      manifest.empty()) {
    throw fedsu::util::UsageError(
        "nothing to validate (pass --trace / --telemetry / --alerts / "
        "--manifest)");
  }
  std::vector<Span> spans;
  if (!trace.empty()) spans = validate_trace(trace);
  TelemetryTotals telemetry_totals;
  if (!telemetry.empty()) {
    telemetry_totals = validate_telemetry(
        telemetry, static_cast<int>(flags.get_int("expect-rounds")));
    if (!trace.empty()) {
      reconcile_wall_with_trace(spans, telemetry_totals,
                                trace + " + " + telemetry);
    }
  }
  AlertTotals alert_totals;
  if (!alerts.empty()) alert_totals = validate_alerts(alerts);
  if (!manifest.empty()) {
    const ManifestTotals m = validate_manifest(manifest);
    // Cross-reconciliation (same-run files only): the manifest's aggregates
    // must match what the streams actually recorded.
    if (m.validated && telemetry_totals.rows > 0) {
      check(m.rounds == static_cast<std::uint64_t>(telemetry_totals.rows),
            manifest + ": totals.rounds != telemetry row count");
      check(m.bytes_up == telemetry_totals.bytes_up,
            manifest + ": totals.bytes_up != telemetry sum");
      check(m.bytes_down == telemetry_totals.bytes_down,
            manifest + ": totals.bytes_down != telemetry sum");
    }
    if (m.validated && alert_totals.validated) {
      check(m.alerts_info == alert_totals.info &&
                m.alerts_warning == alert_totals.warning &&
                m.alerts_critical == alert_totals.critical,
            manifest + ": alert totals != raised edges in " + alerts);
    }
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}

int main(int argc, char** argv) {
  return fedsu::util::run_main(argc, argv, run);
}
