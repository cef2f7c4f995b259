// Crash-recovery driver: server crashes, periodic checkpoints, byte-exact
// resume (docs/RECOVERY.md).
//
// Two modes:
//
//  * Run mode (default): one FL run that honors --checkpoint-every /
//    --checkpoint-dir / --resume / --faults-server-crash-at. A scheduled
//    server crash aborts the round loop and the process exits 42 — a
//    sentinel distinct from ordinary failures — exactly like the process
//    death it simulates; the checkpoints on disk are the only survivors.
//    The final global model's CRC-32 is printed (and written to
//    --model-crc-out when set) so shell scripts can compare an
//    interrupted-then-resumed run against an uninterrupted one:
//
//      ./bench_recovery --rounds 12 --model-crc-out a.crc
//      ck="--rounds 12 --checkpoint-every 2 --checkpoint-dir d"
//      ./bench_recovery $ck --faults-server-crash-at 7; test $? -eq 42
//      ./bench_recovery $ck --resume --model-crc-out b.crc
//      cmp a.crc b.crc   # identical: §5b extended across the crash
//
//    (--resume clears the server-crash knobs: the crash plan described the
//    life of the process that died — docs/FAULT_MODEL.md §7.)
//
//  * --smoke: the same kill/snapshot/restore/compare ladder in-process,
//    sync and async, for a single-command sanity check with no shell
//    plumbing. Exits nonzero if any resumed model diverges bitwise.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "compress/wire.h"
#include "io/checkpoint.h"

namespace {

using fedsu::bench::BenchConfig;

namespace bench = fedsu::bench;
namespace fl = fedsu::fl;
namespace io = fedsu::io;

std::uint32_t model_crc(const fl::Simulation& sim) {
  const std::vector<float>& state = sim.global_state();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(state.data());
  return fedsu::compress::wire::crc32({bytes, state.size() * sizeof(float)});
}

fl::Simulation make_simulation(const BenchConfig& config,
                               const std::string& scheme) {
  return fl::Simulation(bench::simulation_options(config),
                        fl::make_protocol(bench::protocol_config(config,
                                                                 scheme)));
}

int run_mode(const BenchConfig& config, const fedsu::util::Flags& flags,
             const std::string& scheme, const std::string& crc_out) {
  fl::Simulation sim = make_simulation(config, scheme);
  bench::RunObservatory observatory(config, "bench_recovery", &flags);
  int start_round = 0;
  if (config.resume) {
    const std::string latest =
        io::find_latest_run_checkpoint(config.checkpoint_dir);
    if (latest.empty()) {
      std::printf("no checkpoint under '%s'; starting from round 0\n",
                  config.checkpoint_dir.c_str());
    } else {
      sim.restore_state(io::load_run_checkpoint(latest));
      start_round = sim.rounds_completed();
      observatory.note_resumed(start_round, latest);
      std::printf("resumed from %s (%d rounds already complete)\n",
                  latest.c_str(), start_round);
    }
  }
  observatory.begin_scheme(sim, scheme);
  bench::SchemeRun run;
  run.scheme = scheme;
  run.threads = fedsu::util::ThreadPool::resolve_threads(config.threads);
  fedsu::util::Stopwatch wall;
  try {
    for (int r = start_round; r < config.rounds; ++r) {
      run.records.push_back(sim.step());
      observatory.after_round(sim, run.records.back());
    }
  } catch (const fl::ServerCrashed& crash) {
    std::printf("%s -- exiting 42\n", crash.what());
    observatory.finish(false);
    return 42;
  }
  run.wall_seconds = wall.elapsed_seconds();
  run.summary = fedsu::metrics::summarize(run.records);
  observatory.record(run, "");
  const std::uint32_t crc = model_crc(sim);
  std::printf("rounds %d..%d complete; final model crc32 %08x\n", start_round,
              config.rounds, crc);
  if (!crc_out.empty()) {
    std::ofstream out(crc_out, std::ios::trunc);
    char line[16];
    std::snprintf(line, sizeof(line), "%08x\n", crc);
    out << line;
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", crc_out.c_str());
      return 1;
    }
  }
  observatory.finish(true);
  return 0;
}

int smoke_mode(const BenchConfig& base, const std::string& scheme) {
  int failures = 0;
  for (const bool async_mode : {false, true}) {
    BenchConfig config = base;
    config.async_mode = async_mode;
    config.checkpoint_every = 0;  // in-memory snapshots; no files needed
    config.resume = false;
    config.faults.server_crash_at = -1;
    config.faults.server_crash_probability = 0.0;
    const char* label = async_mode ? "async" : "sync";
    const int kill_at = std::max(1, config.rounds / 2);

    // Reference: the uninterrupted run.
    fl::Simulation reference = make_simulation(config, scheme);
    for (int r = 0; r < config.rounds; ++r) reference.step();

    // Interrupted: run to the kill round, snapshot, destroy the simulation,
    // restore into a fresh one, and finish the remaining rounds.
    std::vector<std::uint8_t> snapshot;
    {
      fl::Simulation first = make_simulation(config, scheme);
      for (int r = 0; r < kill_at; ++r) first.step();
      snapshot = first.snapshot_state();
    }
    fl::Simulation resumed = make_simulation(config, scheme);
    resumed.restore_state(snapshot);
    for (int r = kill_at; r < config.rounds; ++r) resumed.step();

    const std::vector<float>& a = reference.global_state();
    const std::vector<float>& b = resumed.global_state();
    const bool equal =
        a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    std::printf("[%s] killed at round %d of %d: resumed model %s "
                "(crc %08x vs %08x)\n",
                label, kill_at, config.rounds,
                equal ? "byte-exact" : "DIVERGED", model_crc(reference),
                model_crc(resumed));
    if (!equal) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig defaults;
  defaults.rounds = 12;
  fedsu::util::Flags flags = fedsu::bench::make_flags(defaults);
  fedsu::bench::add_observatory_flags(flags, defaults);
  flags.add_string("scheme", "fedsu", "protocol to run (fedavg | fedsu | ...)")
      .add_string("model-crc-out", "",
                  "write the final model CRC-32 (hex) to this file")
      .add_bool("smoke", false,
                "in-process kill/restore/bitwise-compare ladder, sync + async");
  if (!flags.parse(argc, argv)) return 0;
  const BenchConfig config = fedsu::bench::config_from_flags(flags);
  const std::string scheme = flags.get_string("scheme");
  fedsu::bench::print_header("Crash recovery (docs/RECOVERY.md)");
  const int code =
      flags.get_bool("smoke")
          ? smoke_mode(config, scheme)
          : run_mode(config, flags, scheme, flags.get_string("model-crc-out"));
  fedsu::bench::export_observability(config);
  return code;
}
