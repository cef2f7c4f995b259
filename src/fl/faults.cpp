#include "fl/faults.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace fedsu::fl {

namespace {

void check_probability(double p, const char* name) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " outside [0, 1]");
  }
}

FaultPlan::RoundSummary summarize(const std::vector<ClientFault>& faults) {
  FaultPlan::RoundSummary summary;
  for (const ClientFault& f : faults) {
    if (f.absent) ++summary.absent;
    if (f.rejoined) ++summary.rejoined;
    if (f.straggler) ++summary.stragglers;
  }
  return summary;
}

}  // namespace

FaultPlan::FaultPlan(FaultOptions options) : options_(std::move(options)) {
  check_probability(options_.crash_probability, "crash_probability");
  check_probability(options_.straggler_probability, "straggler_probability");
  check_probability(options_.upload_loss_probability,
                    "upload_loss_probability");
  check_probability(options_.corruption_probability, "corruption_probability");
  check_probability(options_.over_select_fraction, "over_select_fraction");
  check_probability(options_.server_crash_probability,
                    "server_crash_probability");
  if (options_.crash_rounds_max < 1) {
    throw std::invalid_argument("FaultPlan: crash_rounds_max must be >= 1");
  }
  if (options_.straggler_compute_factor <= 0.0 ||
      options_.straggler_comm_factor <= 0.0) {
    throw std::invalid_argument("FaultPlan: straggler factors must be > 0");
  }
  if (options_.max_retries < 0 || options_.retry_backoff_s < 0.0 ||
      options_.deadline_s < 0.0) {
    throw std::invalid_argument(
        "FaultPlan: retries/backoff/deadline must be non-negative");
  }
  if (options_.min_quorum < 1) {
    throw std::invalid_argument("FaultPlan: min_quorum must be >= 1");
  }

  if (!options_.trace_csv.empty()) {
    std::ifstream in(options_.trace_csv);
    if (!in) {
      throw std::runtime_error("FaultPlan: cannot open trace " +
                               options_.trace_csv);
    }
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') continue;
      std::istringstream row(line);
      std::string round_s, client_s, event, value_s;
      if (!std::getline(row, round_s, ',') ||
          !std::getline(row, client_s, ',') ||
          !std::getline(row, event, ',')) {
        throw std::runtime_error("FaultPlan: malformed trace line " +
                                 std::to_string(line_no));
      }
      std::getline(row, value_s, ',');  // optional (corrupt ignores it)
      if (round_s == "round") continue;  // header
      TraceEvent ev;
      int round = 0;
      try {
        round = std::stoi(round_s);
        ev.client = std::stoi(client_s);
        ev.value = value_s.empty() ? 0.0 : std::stod(value_s);
      } catch (const std::exception&) {
        throw std::runtime_error("FaultPlan: bad number on trace line " +
                                 std::to_string(line_no));
      }
      if (event == "crash") {
        ev.kind = TraceEvent::Kind::kCrash;
      } else if (event == "straggle-compute") {
        ev.kind = TraceEvent::Kind::kStraggleCompute;
      } else if (event == "straggle-comm") {
        ev.kind = TraceEvent::Kind::kStraggleComm;
      } else if (event == "lose-upload") {
        ev.kind = TraceEvent::Kind::kLoseUpload;
      } else if (event == "corrupt") {
        ev.kind = TraceEvent::Kind::kCorrupt;
      } else if (event == "server-crash") {
        ev.kind = TraceEvent::Kind::kServerCrash;
      } else {
        throw std::runtime_error("FaultPlan: unknown event '" + event +
                                 "' on trace line " + std::to_string(line_no));
      }
      if (round < 0 || ev.client < 0) {
        throw std::runtime_error("FaultPlan: negative round/client on line " +
                                 std::to_string(line_no));
      }
      trace_[round].push_back(ev);
    }
  }

  // enabled_ gates only the *client*-fault machinery: server-crash events
  // (knobs or trace lines) must not engage it, or a server-faults-only run
  // would change its telemetry/record format.
  bool trace_has_client_events = false;
  bool trace_has_server_crash = false;
  for (const auto& [round, events] : trace_) {
    for (const TraceEvent& ev : events) {
      if (ev.kind == TraceEvent::Kind::kServerCrash) {
        trace_has_server_crash = true;
      } else {
        trace_has_client_events = true;
      }
    }
  }
  enabled_ = options_.crash_probability > 0.0 ||
             options_.straggler_probability > 0.0 ||
             options_.upload_loss_probability > 0.0 ||
             options_.corruption_probability > 0.0 ||
             options_.deadline_s > 0.0 ||
             options_.over_select_fraction > 0.0 || trace_has_client_events;
  server_faults_enabled_ = options_.server_crash_at >= 0 ||
                           options_.server_crash_probability > 0.0 ||
                           trace_has_server_crash;
  // Both engines apply the quorum only while a client fault is enabled; on
  // its own it would be accepted and silently ignored.
  if (options_.min_quorum > 1 && !enabled_) {
    throw std::invalid_argument(
        "FaultPlan: min_quorum > 1 needs a client fault enabled (it applies "
        "only to rounds with client faults)");
  }
}

bool FaultPlan::server_crash(int round) const {
  if (round < 0 || !server_faults_enabled_) return false;
  if (options_.server_crash_at >= 0 && round == options_.server_crash_at) {
    return true;
  }
  if (auto it = trace_.find(round); it != trace_.end()) {
    for (const TraceEvent& ev : it->second) {
      if (ev.kind == TraceEvent::Kind::kServerCrash) return true;
    }
  }
  if (options_.server_crash_probability > 0.0) {
    // Same stateless (seed, round) keying as the client families, salted so
    // the server stream never collides with a client's (client streams XOR
    // in 0xbf58476d1ce4e5b9 * (c + 1); this salt is outside that family).
    util::Rng draw(options_.seed ^ 0x5e12c7a5d00dfeedULL ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(round) + 1)));
    return draw.bernoulli(options_.server_crash_probability);
  }
  return false;
}

void FaultPlan::begin_round(int round, int num_clients) {
  if (round < 0 || num_clients < 0) {
    throw std::invalid_argument("FaultPlan::begin_round: negative argument");
  }
  const auto n = static_cast<std::size_t>(num_clients);
  if (down_until_.size() < n) down_until_.resize(n, 0);  // late joiners
  current_.assign(n, ClientFault{});
  summary_ = RoundSummary{};

  // Crash state machine + rejoin detection. A client whose absence window
  // ended (at or before this round) rejoins exactly once.
  for (std::size_t c = 0; c < n; ++c) {
    ClientFault& f = current_[c];
    if (round < down_until_[c]) {
      f.absent = true;
      f.delivered = false;  // a crashed client uploads nothing
    } else if (down_until_[c] > 0) {
      f.rejoined = true;
      down_until_[c] = 0;
    }
  }

  // Explicit trace crashes first: they drive the same state machine and
  // override a same-round rejoin (the client never actually came back).
  if (auto it = trace_.find(round); it != trace_.end()) {
    for (const TraceEvent& ev : it->second) {
      if (ev.kind != TraceEvent::Kind::kCrash) continue;
      if (ev.client >= num_clients) continue;  // not in the population yet
      const int duration = std::max(1, static_cast<int>(ev.value));
      down_until_[static_cast<std::size_t>(ev.client)] = round + duration;
      ClientFault& f = current_[static_cast<std::size_t>(ev.client)];
      if (!f.absent) ++summary_.onsets;
      f.absent = true;
      f.delivered = false;
      f.rejoined = false;
    }
  }

  // Probabilistic realizations: one fresh generator per (seed, round,
  // client), drawn in a fixed order, so the schedule is a pure function of
  // the key — threading and call order cannot perturb it.
  for (std::size_t c = 0; c < n; ++c) {
    ClientFault& f = current_[c];
    if (f.absent) continue;
    util::Rng draw(options_.seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(round) + 1)) ^
                   (0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(c) + 1)));
    // Rejoining rounds are protected from a fresh onset: the forced re-sync
    // must complete before the client can crash again.
    if (!f.rejoined && options_.crash_probability > 0.0 &&
        draw.bernoulli(options_.crash_probability)) {
      const int duration =
          1 + static_cast<int>(draw.uniform_index(
                  static_cast<std::uint64_t>(options_.crash_rounds_max)));
      down_until_[c] = round + duration;
      f.absent = true;
      f.delivered = false;
      ++summary_.onsets;
      continue;
    }
    if (options_.straggler_probability > 0.0 &&
        draw.bernoulli(options_.straggler_probability)) {
      f.straggler = true;
      f.compute_factor = options_.straggler_compute_factor;
      f.comm_factor = options_.straggler_comm_factor;
    }
    if (options_.upload_loss_probability > 0.0) {
      f.delivered = false;
      for (int attempt = 1; attempt <= options_.max_retries + 1; ++attempt) {
        f.upload_attempts = attempt;
        if (!draw.bernoulli(options_.upload_loss_probability)) {
          f.delivered = true;
          break;
        }
      }
    }
    if (f.delivered && options_.corruption_probability > 0.0 &&
        draw.bernoulli(options_.corruption_probability)) {
      f.corrupt = true;
    }
  }

  // Non-crash trace events override the probabilistic draws. Server
  // crashes are not per-client events; begin_round ignores them entirely.
  if (auto it = trace_.find(round); it != trace_.end()) {
    for (const TraceEvent& ev : it->second) {
      if (ev.kind == TraceEvent::Kind::kCrash ||
          ev.kind == TraceEvent::Kind::kServerCrash) {
        continue;
      }
      if (ev.client >= num_clients) continue;
      ClientFault& f = current_[static_cast<std::size_t>(ev.client)];
      if (f.absent) continue;  // a crashed client has no round to perturb
      switch (ev.kind) {
        case TraceEvent::Kind::kStraggleCompute:
          f.straggler = true;
          f.compute_factor = ev.value > 0.0 ? ev.value : 1.0;
          break;
        case TraceEvent::Kind::kStraggleComm:
          f.straggler = true;
          f.comm_factor = ev.value > 0.0 ? ev.value : 1.0;
          break;
        case TraceEvent::Kind::kLoseUpload: {
          const int attempts = static_cast<int>(ev.value);
          if (attempts < 1 || attempts > options_.max_retries + 1) {
            f.upload_attempts = options_.max_retries + 1;
            f.delivered = false;
          } else {
            f.upload_attempts = attempts;
            f.delivered = true;
          }
          f.corrupt = f.corrupt && f.delivered;
          break;
        }
        case TraceEvent::Kind::kCorrupt:
          f.corrupt = f.delivered;
          break;
        case TraceEvent::Kind::kCrash:
        case TraceEvent::Kind::kServerCrash:
          break;
      }
    }
  }

  const RoundSummary tallies = summarize(current_);
  summary_.absent = tallies.absent;
  summary_.rejoined = tallies.rejoined;
  summary_.stragglers = tallies.stragglers;
}

}  // namespace fedsu::fl
