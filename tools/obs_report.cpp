// Offline run analyzer and cross-run regression sentinel (DESIGN.md §12).
//
// Report mode — ingest the observability artifacts of one run and render a
// human-readable report:
//
//   ./obs_report --manifest m.json [--telemetry t.jsonl] [--alerts a.jsonl]
//       [--faults-trace faults.csv] [--out report.md] [--format md|json]
//
// The report carries the headline table (per-cell time/bytes-to-target,
// final accuracy, alert counts), the per-phase wall breakdown summed from
// telemetry (with the round time no phase covers as its own row), the
// raised/cleared alert log, and fault-event totals. --fail-on-critical
// makes the exit code reflect run health (any critical alert => exit 1),
// which turns a report invocation into a CI gate.
//
// Diff mode — the regression gate:
//
//   ./obs_report --diff baseline.json --against current.json
//       [--tol-accuracy 0.05] [--tol-bytes-rel 0.10] [--tol-time-rel 0.25]
//       [--tol-speedup-rel 0] [--tol-mem-rel 0.30]
//
// Both files may be bench_robustness/bench_scale JSON (cells matched by
// setting+scheme), bench_comm JSON (cells matched by setting+scheme,
// gated on exact wire bytes and synchronize wall ms), bench_gemm JSON
// (shapes matched by name+variant), or run manifests (runs matched by
// setting+scheme); the kind is sniffed from the document. Every baseline entry must exist in the current file, and
// accuracy (absolute), gigabytes and simulated time (relative) must stay
// within tolerance. Entries that carry a "memory" object on both sides are
// additionally gated on peak-RSS growth (--tol-mem-rel; one-sided, so a
// memory win never fails the diff). GEMM shapes are checked structurally
// (speedup finite and positive) because shared CI runners are too noisy
// for GFLOP/s gates; --tol-speedup-rel > 0 opts into a throughput floor
// for quiet machines. Exit 0 = no regression, 1 = regression or error.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
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

bool parse_json(const std::string& path, const std::string& text,
                JsonValue& out) {
  try {
    out = fedsu::obs::json_parse(text);
    return true;
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
    return false;
  }
}

double num_or(const JsonValue& v, const char* key, double fallback) {
  if (!v.has(key)) return fallback;
  const JsonValue& field = v.at(key);
  return field.is_null() ? fallback : field.as_number();
}

std::string fmt(double value, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

// --- diff mode -----------------------------------------------------------

struct Tolerances {
  double accuracy = 0.05;    // absolute, on final accuracy
  double bytes_rel = 0.10;   // relative, on total gigabytes
  double time_rel = 0.25;    // relative, on simulated seconds
  double speedup_rel = 0.0;  // relative GEMM speedup floor; 0 = structural
  double mem_rel = 0.30;     // relative, on peak RSS (when both report it)
};

double rel_diff(double baseline, double current) {
  if (baseline == 0.0) return current == 0.0 ? 0.0 : 1.0;
  return std::abs(current - baseline) / std::abs(baseline);
}

void diff_metric(const std::string& label, const char* metric,
                 double baseline, double current, double tolerance,
                 bool relative) {
  const double delta =
      relative ? rel_diff(baseline, current) : std::abs(current - baseline);
  if (delta > tolerance) {
    fail(label + ": " + metric + " moved " +
         (relative ? fmt(100.0 * delta, 1) + "%" : fmt(delta)) +
         " (baseline " + fmt(baseline) + ", current " + fmt(current) +
         ", tolerance " + (relative ? fmt(100.0 * tolerance, 1) + "%"
                                    : fmt(tolerance)) + ")");
  } else {
    std::printf("ok   %-40s %-18s %s -> %s\n", label.c_str(), metric,
                fmt(baseline).c_str(), fmt(current).c_str());
  }
}

// One comparable entry of either file kind.
struct DiffEntry {
  double accuracy = 0.0;
  double gigabytes = 0.0;
  double sim_time_s = 0.0;
  double speedup = 0.0;       // gemm only
  double peak_rss_bytes = 0;  // 0 = document predates memory reporting
  double bytes_up = 0.0;      // comm only: exact per-round wire traffic
  double bytes_down = 0.0;
  double wall_ms = 0.0;       // comm only: synchronize() wall ms per round
  bool is_gemm = false;
  bool is_comm = false;
};

// Optional nested {"memory": {"peak_rss_bytes": ...}} object shared by run
// manifests and bench_scale cells. Absent (older documents, platforms that
// cannot sample) leaves the field 0, which disables the memory gate below.
double load_peak_rss(const JsonValue& node) {
  if (!node.has("memory")) return 0.0;
  const JsonValue& mem = node.at("memory");
  return mem.has("peak_rss_bytes") ? mem.at("peak_rss_bytes").as_number()
                                   : 0.0;
}

std::map<std::string, DiffEntry> load_entries(const std::string& path,
                                              const JsonValue& root) {
  std::map<std::string, DiffEntry> entries;
  if (root.has("shapes")) {  // bench_gemm
    for (const JsonValue& shape : root.at("shapes").as_array()) {
      DiffEntry e;
      e.is_gemm = true;
      e.speedup = shape.at("speedup").as_number();
      entries[shape.at("name").as_string() + "/" +
              shape.at("variant").as_string()] = e;
    }
  } else if (root.has("bench") && root.at("bench").as_string() == "comm") {
    // bench_comm: no training, so no accuracy — the gated quantities are
    // the exact per-round wire bytes (deterministic, so any drift is a
    // real accounting change) and the synchronize() wall clock.
    for (const JsonValue& cell : root.at("cells").as_array()) {
      DiffEntry e;
      e.is_comm = true;
      e.bytes_up = cell.at("bytes_up_per_round").as_number();
      e.bytes_down = cell.at("bytes_down_per_round").as_number();
      e.wall_ms = cell.at("wall_ms_per_round").as_number();
      entries[cell.at("setting").as_string() + "/" +
              cell.at("scheme").as_string()] = e;
    }
  } else if (root.has("cells")) {  // bench_robustness
    for (const JsonValue& cell : root.at("cells").as_array()) {
      DiffEntry e;
      e.accuracy = cell.at("final_accuracy").as_number();
      e.gigabytes = cell.at("total_gigabytes").as_number();
      e.sim_time_s = cell.at("total_time_s").as_number();
      e.peak_rss_bytes = load_peak_rss(cell);
      entries[cell.at("setting").as_string() + "/" +
              cell.at("scheme").as_string()] = e;
    }
  } else if (root.has("runs")) {  // run manifest
    for (const JsonValue& run : root.at("runs").as_array()) {
      DiffEntry e;
      e.accuracy = run.at("final_accuracy").as_number();
      e.gigabytes = run.at("total_gigabytes").as_number();
      e.sim_time_s = run.at("sim_time_s").as_number();
      e.peak_rss_bytes = load_peak_rss(run);
      const std::string setting = run.at("setting").as_string();
      entries[(setting.empty() ? "" : setting + "/") +
              run.at("scheme").as_string()] = e;
    }
  } else {
    fail(path +
         ": not a bench_gemm / bench_comm / bench_robustness / manifest "
         "document");
  }
  return entries;
}

int run_diff(const std::string& baseline_path,
             const std::string& current_path, const Tolerances& tol) {
  JsonValue baseline, current;
  const std::string btext = read_file(baseline_path);
  const std::string ctext = read_file(current_path);
  if (g_failures || !parse_json(baseline_path, btext, baseline) ||
      !parse_json(current_path, ctext, current)) {
    return 1;
  }
  const auto base_entries = load_entries(baseline_path, baseline);
  const auto cur_entries = load_entries(current_path, current);
  if (g_failures) return 1;
  for (const auto& [key, base] : base_entries) {
    const auto it = cur_entries.find(key);
    if (it == cur_entries.end()) {
      fail(key + ": present in baseline, missing from current");
      continue;
    }
    const DiffEntry& cur = it->second;
    if (base.is_gemm) {
      // Structural check always; the throughput floor only on request
      // (shared CI runners are too noisy for GFLOP/s gates).
      if (!(cur.speedup > 0.0) || !std::isfinite(cur.speedup)) {
        fail(key + ": speedup not positive/finite (" + fmt(cur.speedup) +
             ")");
      } else if (tol.speedup_rel > 0.0 &&
                 cur.speedup < base.speedup * (1.0 - tol.speedup_rel)) {
        fail(key + ": speedup regressed below floor (baseline " +
             fmt(base.speedup) + ", current " + fmt(cur.speedup) + ")");
      } else {
        std::printf("ok   %-40s speedup %sx -> %sx\n", key.c_str(),
                    fmt(base.speedup, 2).c_str(), fmt(cur.speedup, 2).c_str());
      }
      continue;
    }
    if (base.is_comm) {
      diff_metric(key, "bytes_up_per_round", base.bytes_up, cur.bytes_up,
                  tol.bytes_rel, /*relative=*/true);
      diff_metric(key, "bytes_down_per_round", base.bytes_down,
                  cur.bytes_down, tol.bytes_rel, /*relative=*/true);
      diff_metric(key, "wall_ms_per_round", base.wall_ms, cur.wall_ms,
                  tol.time_rel, /*relative=*/true);
      continue;
    }
    diff_metric(key, "final_accuracy", base.accuracy, cur.accuracy,
                tol.accuracy, /*relative=*/false);
    diff_metric(key, "total_gigabytes", base.gigabytes, cur.gigabytes,
                tol.bytes_rel, /*relative=*/true);
    diff_metric(key, "sim_time_s", base.sim_time_s, cur.sim_time_s,
                tol.time_rel, /*relative=*/true);
    // Gated only when both documents report memory: older baselines and
    // platforms without /proc stay comparable. One-sided — peak RSS going
    // DOWN is progress, not drift.
    if (base.peak_rss_bytes > 0.0 && cur.peak_rss_bytes > 0.0 &&
        tol.mem_rel > 0.0) {
      if (cur.peak_rss_bytes > base.peak_rss_bytes * (1.0 + tol.mem_rel)) {
        fail(key + ": peak_rss_bytes grew " +
             fmt(100.0 * rel_diff(base.peak_rss_bytes, cur.peak_rss_bytes),
                 1) +
             "% (baseline " + fmt(base.peak_rss_bytes) + ", current " +
             fmt(cur.peak_rss_bytes) + ", tolerance " +
             fmt(100.0 * tol.mem_rel, 1) + "%)");
      } else {
        std::printf("ok   %-40s %-18s %s -> %s\n", key.c_str(),
                    "peak_rss_bytes", fmt(base.peak_rss_bytes).c_str(),
                    fmt(cur.peak_rss_bytes).c_str());
      }
    }
  }
  if (g_failures) {
    std::fprintf(stderr, "REGRESSION: %d check(s) failed against %s\n",
                 g_failures, baseline_path.c_str());
    return 1;
  }
  std::printf("no regression: %zu entries within tolerance of %s\n",
              base_entries.size(), baseline_path.c_str());
  return 0;
}

// --- report mode ---------------------------------------------------------

struct PhaseTotals {
  double select_s = 0, train_s = 0, sync_s = 0, timing_s = 0, eval_s = 0,
         total_s = 0;
  int rows = 0;
};

PhaseTotals sum_phases(const std::string& path) {
  PhaseTotals t;
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return t;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue record;
    if (!parse_json(path, line, record)) return t;
    const JsonValue& wall = record.at("wall");
    t.select_s += wall.at("select_s").as_number();
    t.train_s += wall.at("train_s").as_number();
    t.sync_s += wall.at("sync_s").as_number();
    t.timing_s += wall.at("timing_s").as_number();
    t.eval_s += wall.at("eval_s").as_number();
    t.total_s += wall.at("total_s").as_number();
    ++t.rows;
  }
  return t;
}

struct AlertLine {
  std::string scheme, rule, severity, state, message;
  int round = 0;
  double value = 0, threshold = 0;
};

std::vector<AlertLine> load_alerts(const std::string& path,
                                   int* critical_raised) {
  std::vector<AlertLine> alerts;
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return alerts;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue a;
    if (!parse_json(path, line, a)) return alerts;
    AlertLine al;
    al.scheme = a.at("scheme").as_string();
    al.rule = a.at("rule").as_string();
    al.severity = a.at("severity").as_string();
    al.state = a.at("state").as_string();
    al.message = a.at("message").as_string();
    al.round = static_cast<int>(a.at("round").as_number());
    al.value = a.at("value").as_number();
    al.threshold = a.at("threshold").as_number();
    if (al.severity == "critical" && al.state == "raised") {
      ++*critical_raised;
    }
    alerts.push_back(std::move(al));
  }
  return alerts;
}

std::map<std::string, long long> count_fault_events(const std::string& path) {
  std::map<std::string, long long> counts;
  std::ifstream in(path);
  if (!in) {
    fail("cannot open " + path);
    return counts;
  }
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {  // round,client,event,value
      header = false;
      continue;
    }
    std::size_t from = 0;
    std::string event;
    for (int field = 0; field < 3 && from != std::string::npos; ++field) {
      const std::size_t comma = line.find(',', from);
      if (field == 2) {
        event = line.substr(
            from, comma == std::string::npos ? comma : comma - from);
      }
      from = comma == std::string::npos ? comma : comma + 1;
    }
    if (!event.empty()) ++counts[event];
  }
  return counts;
}

int run_report(const fedsu::util::Flags& flags) {
  const std::string manifest_path = flags.get_string("manifest");
  const std::string text = read_file(manifest_path);
  JsonValue manifest;
  if (g_failures || !parse_json(manifest_path, text, manifest)) return 1;

  const std::string format = flags.get_string("format");
  const bool as_json = format == "json";
  if (!as_json && format != "md") {
    fail("--format must be md | json, got '" + format + "'");
    return 1;
  }

  std::ostringstream out;
  int critical_raised = 0;

  const JsonValue& env = manifest.at("environment");
  const auto& runs = manifest.at("runs").as_array();
  const double duration = manifest.at("end_unix_s").as_number() -
                          manifest.at("start_unix_s").as_number();

  if (as_json) {
    // JSON mode re-emits the manifest verbatim (it already is the machine-
    // readable report) with the derived sections appended by re-parse
    // consumers; keep it simple and just echo the manifest.
    out << text;
  } else {
    out << "# Run report: " << manifest.at("bench").as_string() << "\n\n";
    out << "- outcome: **" << manifest.at("outcome").as_string() << "**, "
        << "wall " << fmt(duration, 0) << "s\n";
    out << "- build: " << env.at("build").as_string() << ", isa: "
        << env.at("isa").as_string() << ", threads: "
        << static_cast<int>(env.at("threads").as_number()) << ", seed: "
        << static_cast<long long>(env.at("seed").as_number())
        << ", obs level: " << env.at("obs_level").as_string() << "\n\n";

    out << "## Headline aggregates\n\n";
    out << "| setting | scheme | rounds | final acc | best acc | GB total | "
           "sim s | s to target | GB to target | alerts i/w/c |\n";
    out << "|---|---|---|---|---|---|---|---|---|---|\n";
    for (const JsonValue& run : runs) {
      const JsonValue& alerts = run.at("alerts");
      const double tta = num_or(run, "time_to_target_s", -1.0);
      const double gbt = num_or(run, "gigabytes_to_target", -1.0);
      out << "| " << run.at("setting").as_string() << " | "
          << run.at("scheme").as_string() << " | "
          << static_cast<int>(run.at("rounds").as_number()) << " | "
          << fmt(run.at("final_accuracy").as_number()) << " | "
          << fmt(run.at("best_accuracy").as_number()) << " | "
          << fmt(run.at("total_gigabytes").as_number(), 4) << " | "
          << fmt(run.at("sim_time_s").as_number(), 1) << " | "
          << (tta < 0 ? std::string("—") : fmt(tta, 1)) << " | "
          << (gbt < 0 ? std::string("—") : fmt(gbt, 4)) << " | "
          << static_cast<int>(alerts.at("info").as_number()) << "/"
          << static_cast<int>(alerts.at("warning").as_number()) << "/"
          << static_cast<int>(alerts.at("critical").as_number()) << " |\n";
    }
    out << "\n";

    const std::string telemetry_path = flags.get_string("telemetry");
    if (!telemetry_path.empty()) {
      const PhaseTotals t = sum_phases(telemetry_path);
      out << "## Wall-phase breakdown (" << t.rows << " rounds)\n\n";
      out << "| phase | seconds | share |\n|---|---|---|\n";
      const double denom = t.total_s > 0 ? t.total_s : 1.0;
      const double attributed =
          t.select_s + t.train_s + t.sync_s + t.timing_s + t.eval_s;
      const std::pair<const char*, double> phases[] = {
          {"select", t.select_s}, {"train", t.train_s}, {"sync", t.sync_s},
          {"timing", t.timing_s}, {"eval", t.eval_s},
          {"unattributed", t.total_s - attributed}};
      for (const auto& [name, seconds] : phases) {
        out << "| " << name << " | " << fmt(seconds) << " | "
            << fmt(100.0 * seconds / denom, 1) << "% |\n";
      }
      out << "| **total** | " << fmt(t.total_s) << " | 100% |\n\n";
    }

    const std::string alerts_path = flags.get_string("alerts");
    if (!alerts_path.empty()) {
      const auto alerts = load_alerts(alerts_path, &critical_raised);
      out << "## Alerts (" << alerts.size() << " edges)\n\n";
      if (alerts.empty()) {
        out << "No alerts raised.\n\n";
      } else {
        out << "| scheme | round | rule | severity | state | value | "
               "threshold | message |\n|---|---|---|---|---|---|---|---|\n";
        for (const AlertLine& a : alerts) {
          out << "| " << a.scheme << " | " << a.round << " | " << a.rule
              << " | " << a.severity << " | " << a.state << " | "
              << fmt(a.value) << " | " << fmt(a.threshold) << " | "
              << a.message << " |\n";
        }
        out << "\n";
      }
    }

    const std::string faults_path = flags.get_string("faults-trace");
    if (!faults_path.empty()) {
      const auto counts = count_fault_events(faults_path);
      out << "## Fault events\n\n| event | count |\n|---|---|\n";
      for (const auto& [event, count] : counts) {
        out << "| " << event << " | " << count << " |\n";
      }
      out << "\n";
    }
  }

  const std::string out_path = flags.get_string("out");
  if (out_path.empty() || out_path == "-") {
    std::fputs(out.str().c_str(), stdout);
  } else {
    std::ofstream file(out_path, std::ios::trunc);
    if (!file) {
      fail("cannot open " + out_path);
      return 1;
    }
    file << out.str();
    if (!file.flush()) {
      fail("write failed for " + out_path);
      return 1;
    }
    std::printf("report written to %s\n", out_path.c_str());
  }

  if (flags.get_bool("fail-on-critical")) {
    // Manifest alert totals cover monitor-without-alert-file runs too.
    const JsonValue& totals = manifest.at("totals");
    critical_raised = std::max(
        critical_raised,
        static_cast<int>(totals.at("alerts_critical").as_number()));
    if (critical_raised > 0) {
      fail(std::to_string(critical_raised) + " critical alert(s) raised");
    }
    if (manifest.at("outcome").as_string() != "ok") {
      fail("run outcome is not ok");
    }
  }
  return g_failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  fedsu::util::Flags flags;
  flags.add_string("manifest", "", "run manifest JSON (report mode input)")
      .add_string("telemetry", "", "per-round telemetry JSONL (optional)")
      .add_string("alerts", "", "health alerts JSONL (optional)")
      .add_string("faults-trace", "", "fault trace CSV (optional)")
      .add_string("out", "", "report output path (empty or '-' = stdout)")
      .add_string("format", "md", "report format: md | json")
      .add_bool("fail-on-critical", false,
                "exit 1 when the run raised any critical alert")
      .add_string("diff", "", "baseline JSON: switches to regression-diff mode")
      .add_string("against", "", "current JSON to compare to --diff baseline")
      .add_double("tol-accuracy", 0.05,
                  "max absolute final-accuracy drift in diff mode")
      .add_double("tol-bytes-rel", 0.10,
                  "max relative total-gigabytes drift in diff mode")
      .add_double("tol-time-rel", 0.25,
                  "max relative simulated-time drift in diff mode")
      .add_double("tol-speedup-rel", 0.0,
                  "GEMM speedup floor vs baseline (0 = structural only)")
      .add_double("tol-mem-rel", 0.30,
                  "max relative peak-RSS growth in diff mode (0 = off)");
  if (!flags.parse(argc, argv)) return 0;

  const std::string baseline = flags.get_string("diff");
  if (!baseline.empty()) {
    const std::string current = flags.get_string("against");
    if (current.empty()) {
      std::fprintf(stderr, "--diff needs --against <current.json>\n");
      return 1;
    }
    Tolerances tol;
    tol.accuracy = flags.get_double("tol-accuracy");
    tol.bytes_rel = flags.get_double("tol-bytes-rel");
    tol.time_rel = flags.get_double("tol-time-rel");
    tol.speedup_rel = flags.get_double("tol-speedup-rel");
    tol.mem_rel = flags.get_double("tol-mem-rel");
    return run_diff(baseline, current, tol);
  }
  if (flags.get_string("manifest").empty()) {
    std::fprintf(stderr,
                 "report mode needs --manifest (or use --diff/--against)\n");
    return 1;
  }
  return run_report(flags);
}
