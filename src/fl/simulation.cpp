#include "fl/simulation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "io/checkpoint.h"
#include "io/serialize.h"
#include "net/round_timeline.h"
#include "nn/loss.h"
#include "obs/trace.h"

namespace fedsu::fl {

double staleness_weight(int staleness, double alpha) {
  // alpha == 0 is the unweighted-buffering ablation: exactly 1.0 for every
  // staleness, so an alpha-0 run is a pure FedBuff mean over raw deltas.
  if (staleness <= 0 || alpha == 0.0) return 1.0;
  return std::pow(1.0 + static_cast<double>(staleness), -alpha);
}

namespace {
// Evaluation scores the test set in blocks of this many samples, each
// block's accuracy weighted by its size.
constexpr std::size_t kEvalBlock = 64;
}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> eval_sub_batches(
    std::size_t test_size, int batch_size) {
  // A sample's logits do not depend on the rows beside it (conv GEMMs run
  // per sample, and the m >= 4 kNT paths give each row the same FMA chain
  // where the GEMM bits are pinned, DESIGN.md §5b), with one exception: a
  // product of fewer than 4 rows takes the unfused small-GEMM path. So no
  // piece has fewer than 4 rows unless its whole block has, which is how
  // that block always ran.
  constexpr std::size_t kMinRows = 4;
  const std::size_t rows = std::clamp(static_cast<std::size_t>(batch_size),
                                      kMinRows, kEvalBlock);
  std::vector<std::pair<std::size_t, std::size_t>> pieces;
  for (std::size_t begin = 0; begin < test_size; begin += kEvalBlock) {
    const std::size_t end = std::min(test_size, begin + kEvalBlock);
    for (std::size_t pos = begin; pos < end;) {
      std::size_t size = std::min(rows, end - pos);
      if (end - pos - size < kMinRows) size = end - pos;
      pieces.emplace_back(pos, pos + size);
      pos += size;
    }
  }
  return pieces;
}

Simulation::Simulation(SimulationOptions options,
                       std::unique_ptr<compress::SyncProtocol> protocol)
    : options_(std::move(options)),
      protocol_(std::move(protocol)),
      scratch_model_(nn::build_model(options_.model, util::Rng(options_.seed))),
      network_(options_.num_clients, options_.network) {
  if (!protocol_) throw std::invalid_argument("Simulation: null protocol");
  if (options_.num_clients <= 0) {
    throw std::invalid_argument("Simulation: num_clients <= 0");
  }
  if (util::ThreadPool::resolve_threads(options_.threads) > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
  if (options_.participation_fraction <= 0.0 ||
      options_.participation_fraction > 1.0) {
    throw std::invalid_argument("Simulation: participation fraction out of (0,1]");
  }
  if (options_.async.buffer_k < 0) {
    throw std::invalid_argument("Simulation: async.buffer_k < 0");
  }
  if (options_.async.staleness_alpha < 0.0) {
    throw std::invalid_argument("Simulation: async.staleness_alpha < 0");
  }
  if (options_.async.enabled) {
    // Async dispatches every active client continuously: the synchronous
    // participation cut does not exist. Forcing the fraction to 1 also makes
    // the barrier-degenerate route (step_sync below) aggregate the full
    // cohort, which is what a K >= cohort buffer does.
    options_.participation_fraction = 1.0;
    // Overlapping uploads only exist in the flow-level timing model.
    options_.timing = TimingModel::kFlowLevel;
    uplink_ = std::make_unique<net::AsyncUplink>(
        options_.network.server_bandwidth_bps);
  }
  client_busy_.assign(static_cast<std::size_t>(options_.num_clients), 0);
  client_ready_s_.assign(static_cast<std::size_t>(options_.num_clients), 0.0);

  // The fault stream is salted with the simulation seed: two runs differing
  // only in `seed` see different fault realizations, while fixing both
  // seeds pins the schedule for controlled comparisons.
  FaultOptions fault_options = options_.faults;
  fault_options.seed ^= options_.seed;
  faults_ = FaultPlan(fault_options);

  // With K >= cohort and no faults the arrival buffer only fills when every
  // client has arrived — structurally the synchronous barrier — so the run
  // routes to the exact synchronous path (DESIGN.md §11 explains why the
  // general engine cannot reproduce it bit-for-bit: absolute-time
  // water-filling arithmetic is not shift-invariant in floating point).
  const bool barrier = !faults_.enabled() && options_.async.buffer_k > 0 &&
                       options_.async.buffer_k >= options_.num_clients;
  async_engine_ = options_.async.enabled && !barrier;

  // Generate the data once; clients share the training set through views.
  {
    data::TrainTest data =
        data::generate_synthetic(options_.dataset, pool_.get());
    train_data_ = std::make_shared<const data::Dataset>(std::move(data.train));
    test_data_ = std::move(data.test);
  }

  // Partition the training data across clients (Dirichlet label skew). Each
  // shard becomes a zero-copy DatasetView over the shared dataset: the
  // images are stored exactly once no matter how many clients exist, and
  // view-backed gather copies the identical bytes the legacy per-client
  // subset() copies did, so results are unchanged bit-for-bit.
  data::PartitionOptions part;
  part.num_clients = options_.num_clients;
  part.alpha = options_.dirichlet_alpha;
  part.seed = options_.seed ^ 0x5bd1e995;
  auto shards = data::dirichlet_partition(*train_data_, part);

  util::Rng client_rng(options_.seed ^ 0x2545f491);
  clients_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    clients_.push_back(std::make_unique<Client>(
        static_cast<int>(i),
        data::DatasetView(train_data_, std::move(shards[i])),
        options_.local.batch_size, client_rng.fork(i)));
  }
  active_.assign(clients_.size(), true);

  global_ = scratch_model_.state_vector();
  protocol_->initialize(global_);
  last_mean_payload_bytes_ = static_cast<double>(global_.size()) * sizeof(float);
}

double Simulation::model_flops_per_round() const {
  // Forward + backward is roughly 3x a forward pass.
  return 3.0 * options_.model.flops_per_sample * options_.local.batch_size *
         options_.local.iterations;
}

std::vector<int> Simulation::open_round(int round,
                                        RoundRecord::FaultCounters& fc,
                                        std::size_t& resync_bytes) {
  if (faults_.enabled()) {
    faults_.begin_round(round, static_cast<int>(clients_.size()));
    const FaultPlan::RoundSummary& summary = faults_.round_summary();
    fc.crashed = summary.absent;
    fc.onsets = summary.onsets;
  }
  std::vector<int> ids;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const int id = static_cast<int>(i);
    if (active_[i] && !client_busy_[i] && !faults_.is_absent(id)) {
      ids.push_back(id);
    }
  }
  // A client back from a crash is stale: force a full re-sync (model +
  // protocol speculation state) before it may work again, so it never
  // speculates from a stale slope or contributes a stale error accumulator.
  // The download is billed to the round that starts it.
  for (int id : ids) {
    if (!faults_.fault(id).rejoined) continue;
    ++fc.rejoined;
    ++fc.resyncs;
    resync_bytes +=
        global_.size() * sizeof(float) + protocol_->on_client_rejoin(id);
  }
  return ids;
}

std::vector<int> Simulation::select_participants(
    int round, const std::vector<int>& present) {
  // All present clients start the round; the server keeps the fraction that
  // finishes earliest. Finish times are estimated with the previous round's
  // mean payload (payload differences across clients within a protocol are
  // second-order; compute heterogeneity dominates the ordering).
  if (present.empty()) {
    // With churn this is a legitimate (if bleak) state — every client is
    // down and the round stalls; without it, it is caller error.
    if (faults_.enabled()) {
      select_target_ = 0;
      return {};
    }
    throw std::logic_error("Simulation: no active clients");
  }
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(options_.participation_fraction *
                       static_cast<double>(present.size()))));
  select_target_ = target;
  // Over-selection: the server starts extra clients beyond the aggregation
  // target so lost/late uploads can be backfilled. Without it this is
  // `target` exactly: ceil(fraction * n) <= target <= n.
  const std::size_t take = std::min(
      present.size(),
      std::max(target, static_cast<std::size_t>(std::ceil(
                           (options_.participation_fraction +
                            faults_.options().over_select_fraction) *
                           static_cast<double>(present.size())))));
  std::vector<int> chosen;
  chosen.reserve(take);
  const double flops = model_flops_per_round();
  const auto est_bytes = static_cast<std::size_t>(last_mean_payload_bytes_);
  std::vector<std::pair<double, int>> finish;
  finish.reserve(present.size());
  for (int id : present) {
    // Straggler multipliers feed the estimate, so the earliest cut
    // reshuffles when a fast client has a slow round.
    const ClientFault& f = faults_.fault(id);
    finish.emplace_back(
        network_.compute_time(id, round, flops) * f.compute_factor +
            network_.comm_time(id, est_bytes, est_bytes,
                               static_cast<int>(present.size())) *
                f.comm_factor,
        id);
  }
  std::sort(finish.begin(), finish.end());
  for (std::size_t i = 0; i < take; ++i) chosen.push_back(finish[i].second);
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

RoundRecord Simulation::step() {
  // Server-crash fault family (docs/FAULT_MODEL.md §7): the server dies at
  // the start of the round, before any client is dispatched — the previous
  // round's state (and its checkpoint, if one was written) is the recovery
  // frontier.
  if (faults_.server_faults_enabled() && faults_.server_crash(round_)) {
    throw ServerCrashed(round_);
  }
  RoundRecord record;
  {
    OBS_SPAN("sim.round", &record.wall.total_s);
    record = async_engine_ ? step_async() : step_sync();
  }
  // Checkpoint before the hook fires so telemetry and the health monitor
  // see the write outcome on the round it happened.
  maybe_checkpoint(record);
  if (round_hook_) round_hook_(record);
  return record;
}

void Simulation::maybe_checkpoint(RoundRecord& record) {
  const int every = options_.checkpoint.every;
  if (every <= 0 || round_ % every != 0) return;
  RoundRecord::CheckpointEvent ev;
  ev.round = round_;
  try {
    const std::vector<std::uint8_t> payload = snapshot_state();
    ev.bytes = payload.size();
    ev.path = io::save_run_checkpoint(options_.checkpoint.dir, round_, payload);
    ev.ok = true;
    // Retention runs only after a successful write: a failed write must
    // never cost an older, still-good checkpoint its slot.
    if (options_.checkpoint.keep > 0) {
      io::prune_run_checkpoints(options_.checkpoint.dir,
                                options_.checkpoint.keep);
    }
  } catch (const std::exception& e) {
    // A failed write never kills the run (losing training to a full disk
    // would invert the feature's purpose); the record carries the
    // diagnostic and the health monitor raises a critical alert.
    ev.ok = false;
    ev.error = e.what();
  }
  record.checkpoint = std::move(ev);
}

RoundRecord Simulation::close_round(RoundRecord record,
                                    RoundRecord::FaultCounters fc,
                                    std::size_t resync_bytes) {
  const bool aggregated = record.num_participants > 0;
  if (aggregated) {
    last_mean_payload_bytes_ =
        static_cast<double>(record.bytes_up + record.bytes_down) /
        (2.0 * static_cast<double>(record.num_participants));
    record.sparsification_ratio = protocol_->last_sparsification_ratio();
    const compress::SyncProtocol::Telemetry tele =
        protocol_->last_round_telemetry();
    record.speculated_fraction = tele.speculated_fraction;
    record.fallback_syncs = static_cast<int>(tele.fallback_syncs);
    record.promotions = static_cast<int>(tele.promotions);
  }
  record.bytes_down += resync_bytes;
  record.elapsed_time_s = elapsed_time_s_;
  ++round_;
  if (faults_.enabled()) {
    fc.quorum_met = aggregated;
    record.faults = fc;
  }
  if (options_.eval_every > 0 && (round_ % options_.eval_every == 0)) {
    OBS_SPAN("sim.eval", &record.wall.eval_s);
    record.test_accuracy = evaluate();
  }
  return record;
}

compress::SyncResult Simulation::synchronize(
    compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& views) {
  ctx.global = global_;
  compress::SyncResult sync = protocol_->synchronize(ctx, views);
  if (sync.new_global.size() != global_.size()) {
    throw std::logic_error("Simulation: protocol changed state size");
  }
  global_ = std::move(sync.new_global);
  return sync;
}

RoundRecord Simulation::step_sync() {
  const int round = round_;
  RoundRecord record;
  record.round = round;

  RoundRecord::FaultCounters fc;
  std::size_t resync_bytes = 0;
  // What a rejoiner re-downloads: the model plus the protocol's join state.
  const std::size_t resync_bytes_each =
      global_.size() * sizeof(float) + protocol_->join_state_bytes();
  const double flops = model_flops_per_round();
  const FaultOptions& fo = faults_.options();

  // Selection, then the delivery cut: resolve which uploads the server
  // aggregates. Delivery order uses estimated times (actual payload bytes
  // exist only after synchronization, but the cut must be made before it);
  // the simulated clock below charges actual bytes. Under the neutral
  // ClientFault{} every selected upload arrives, the target is the whole
  // selection and the quorum is 1, so the cut keeps every participant.
  std::vector<int> kept;       // the aggregation set
  std::vector<int> train_ids;  // kept plus the corrupt deliveries
  bool stalled = false;
  {
  OBS_SPAN("sim.select", &record.wall.select_s);
  const std::vector<int> participants =
      select_participants(round, open_round(round, fc, resync_bytes));
  fc.selected = static_cast<int>(participants.size());
  const auto est_bytes = static_cast<std::size_t>(last_mean_payload_bytes_);
  const int concurrent = static_cast<int>(participants.size());
  double last_giveup_s = 0.0;  // when the slowest selected client stopped
  std::vector<std::pair<double, int>> arrivals;
  arrivals.reserve(participants.size());
  for (int id : participants) {
    const ClientFault& f = faults_.fault(id);
    if (f.straggler) ++fc.stragglers;
    fc.retries += f.upload_attempts - 1;
    // Retries re-send the payload and wait out the backoff in between —
    // all on the simulated clock.
    const double est =
        network_.compute_time(id, round, flops) * f.compute_factor +
        static_cast<double>(f.upload_attempts) *
            network_.upload_time(id, est_bytes, concurrent) * f.comm_factor +
        static_cast<double>(f.upload_attempts - 1) * fo.retry_backoff_s;
    last_giveup_s = std::max(last_giveup_s, est);
    if (!f.delivered) {
      ++record.uploads_lost;
      continue;
    }
    if (fo.deadline_s > 0.0 && est > fo.deadline_s) {
      ++fc.deadline_missed;
      continue;
    }
    arrivals.emplace_back(est, id);
  }
  std::sort(arrivals.begin(), arrivals.end());
  // The server consumes uploads in (estimated) arrival order until the
  // aggregation target is met. A corrupt payload fails its CRC-32 on
  // receipt and is discarded, never counting toward the target — the next
  // arrival backfills. Whatever lands after the target is met goes unused.
  kept.reserve(select_target_);
  std::vector<int> corrupt_ids;  // delivered, but fail the CRC
  for (const auto& [est, id] : arrivals) {
    (void)est;
    if (kept.size() >= select_target_) {
      ++fc.unused;
      continue;
    }
    if (faults_.fault(id).corrupt) {
      corrupt_ids.push_back(id);
    } else {
      kept.push_back(id);
    }
  }
  fc.corrupt = static_cast<int>(corrupt_ids.size());
  const int quorum = faults_.enabled() ? fo.min_quorum : 1;
  if (kept.size() < static_cast<std::size_t>(quorum)) {
    // Below quorum: the round stalls. Time still passes — until the server
    // deadline if one is set, else until the slowest selected client
    // finished or gave up; a fully-crashed population costs one latency
    // heartbeat.
    double stall_time = fo.deadline_s > 0.0 ? fo.deadline_s : last_giveup_s;
    if (stall_time <= 0.0) stall_time = options_.network.base_latency_s;
    fc.unused += static_cast<int>(kept.size());
    elapsed_time_s_ += stall_time;
    record.round_time_s = stall_time;
    stalled = true;
  }
  std::sort(kept.begin(), kept.end());  // protocol contract: ascending ids
  std::sort(corrupt_ids.begin(), corrupt_ids.end());
  // Who trains: the aggregation set plus the corrupt deliveries. Their
  // compute is spent, and training advances their batch loaders exactly as
  // a clean round would.
  train_ids = kept;
  train_ids.insert(train_ids.end(), corrupt_ids.begin(), corrupt_ids.end());
  std::sort(train_ids.begin(), train_ids.end());
  }  // OBS_SPAN sim.select
  if (stalled) return close_round(std::move(record), fc, resync_bytes);

  std::vector<std::vector<float>> states;
  std::vector<double> losses;
  train_participants(train_ids, states, losses, &record.wall.train_s);

  // Synchronization through the protocol under test.
  compress::SyncResult sync;
  {
  OBS_SPAN("sim.sync", &record.wall.sync_s);
  compress::RoundContext ctx;
  ctx.round = round;
  ctx.participants = kept;
  std::vector<std::span<const float>> views;
  views.reserve(kept.size());
  double loss_sum = 0.0;
  std::size_t ti = 0;
  for (int id : kept) {
    while (train_ids[ti] != id) ++ti;  // both ascending; kept ⊆ train_ids
    views.emplace_back(states[ti]);
    loss_sum += losses[ti];
    ++ti;
  }
  sync = synchronize(ctx, views);
  record.num_participants = static_cast<int>(kept.size());
  record.train_loss = loss_sum / static_cast<double>(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    record.bytes_up += sync.bytes_up[i];
    record.bytes_down += sync.bytes_down[i];
  }
  }  // OBS_SPAN sim.sync

  // Simulated time: the round ends when the slowest used client finishes.
  {
  OBS_SPAN("sim.timing", &record.wall.timing_s);
  double round_time = 0.0;
  if (options_.timing == TimingModel::kFlowLevel) {
    net::RoundTimelineInput timeline;
    timeline.server_bps = options_.network.server_bandwidth_bps;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const int id = kept[i];
      const ClientFault& f = faults_.fault(id);
      // Retries re-cross the link; backoffs delay the flow start. Comm
      // slowdown maps onto a proportionally thinner client link.
      double down_bytes = static_cast<double>(sync.bytes_down[i]);
      if (f.rejoined) down_bytes += static_cast<double>(resync_bytes_each);
      timeline.compute_done_s.push_back(
          network_.compute_time(id, round, flops) * f.compute_factor +
          static_cast<double>(f.upload_attempts - 1) * fo.retry_backoff_s);
      timeline.bytes_up.push_back(static_cast<double>(sync.bytes_up[i]) *
                                  static_cast<double>(f.upload_attempts));
      timeline.bytes_down.push_back(down_bytes);
      timeline.client_rate_bps.push_back(network_.client_bandwidth_bps(id) /
                                         f.comm_factor);
    }
    round_time = net::simulate_round(timeline).round_end_s;
  } else {
    const int concurrent = static_cast<int>(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      const int id = kept[i];
      double t;
      if (faults_.enabled()) {
        const ClientFault& f = faults_.fault(id);
        const std::size_t down_bytes =
            sync.bytes_down[i] + (f.rejoined ? resync_bytes_each : 0);
        t = network_.compute_time(id, round, flops) * f.compute_factor +
            static_cast<double>(f.upload_attempts) *
                network_.upload_time(id, sync.bytes_up[i], concurrent) *
                f.comm_factor +
            static_cast<double>(f.upload_attempts - 1) * fo.retry_backoff_s +
            network_.download_time(id, down_bytes, concurrent) * f.comm_factor;
      } else {
        // Not the faulty sum at unit factors: that associates as
        // (compute + up) + down, which can differ by an ulp.
        t = network_.client_round_time(id, round, flops, sync.bytes_up[i],
                                       sync.bytes_down[i], concurrent);
      }
      round_time = std::max(round_time, t);
    }
  }
  if (fc.deadline_missed > 0) {
    // The server waited out its deadline for the uploads that missed it.
    round_time = std::max(round_time, fo.deadline_s);
  }
  elapsed_time_s_ += round_time;
  record.round_time_s = round_time;
  }  // OBS_SPAN sim.timing
  return close_round(std::move(record), fc, resync_bytes);
}

// One buffered-async aggregation cycle (DESIGN.md §11). The barrier is
// gone: every idle client is dispatched against the current model version,
// uploads contend on the shared ingress link across cycles (AsyncUplink
// keeps the full flow history), and the server aggregates as soon as the
// first K deliverable uploads have arrived on the simulated clock. Stale
// updates are re-based onto the current model with the 1/(1+s)^alpha
// discount; aggregation order is (arrival time, seed-keyed tiebreak,
// client id), so results are bitwise identical for every --threads value.
RoundRecord Simulation::step_async() {
  const int round = round_;
  RoundRecord record;
  record.round = round;

  const double cycle_start_s = elapsed_time_s_;
  const double flops = model_flops_per_round();
  const FaultOptions& fo = faults_.options();

  // Dispatch: every idle, present client starts a new leg against the
  // current model version. Clients mid-upload keep traveling against the
  // version they were handed; crashed clients wait until they rejoin, and
  // a rejoiner's re-sync is billed at its next dispatch.
  RoundRecord::FaultCounters fc;
  std::size_t resync_bytes = 0;
  std::vector<int> dispatch_ids;
  {
  OBS_SPAN("sim.select", &record.wall.select_s);
  dispatch_ids = open_round(round, fc, resync_bytes);
  fc.selected = static_cast<int>(dispatch_ids.size());
  }  // OBS_SPAN sim.select

  // Local training for the new legs. They all read the same current
  // global_, so the per-worker-replica pool path applies unchanged and the
  // §5b thread-count determinism argument carries over verbatim.
  std::vector<std::vector<float>> states;
  std::vector<double> losses;
  train_participants(dispatch_ids, states, losses, &record.wall.train_s);

  // The delivery rule's outcome, read by the sync and both timing stages.
  auto free_client = [&](const InFlight& leg, double when) {
    client_busy_[static_cast<std::size_t>(leg.client)] = 0;
    client_ready_s_[static_cast<std::size_t>(leg.client)] = when;
  };
  double t_end = cycle_start_s;
  std::vector<std::size_t> consumed_entries;
  std::vector<std::size_t> remove_entries;
  bool stalled = false;
  RoundRecord::AsyncStats as;
  {
  OBS_SPAN("sim.timing", &record.wall.timing_s);
  // Register the new upload flows. Flow timing uses the dispatch-time
  // payload estimate (actual bytes exist only after synchronization — the
  // same convention the synchronous selection estimate relies on); the byte
  // accounting below charges actual bytes. Every leg starts at or after the
  // cycle start, so it is the uplink's start-time floor.
  uplink_->raise_floor(cycle_start_s);
  std::shared_ptr<const std::vector<float>> snapshot;
  const double est_bytes = last_mean_payload_bytes_;
  for (std::size_t k = 0; k < dispatch_ids.size(); ++k) {
    const int id = dispatch_ids[k];
    const ClientFault& f = faults_.fault(id);
    if (f.straggler) ++fc.stragglers;
    fc.retries += f.upload_attempts - 1;
    InFlight leg;
    leg.client = id;
    leg.version = model_version_;
    leg.dispatch_cycle = round;
    leg.dispatch_s = std::max(cycle_start_s, client_ready_s_[id]);
    leg.attempts = f.upload_attempts;
    leg.comm_factor = f.comm_factor;
    leg.delivered = f.delivered;
    leg.corrupt = f.corrupt;
    const double compute_done =
        leg.dispatch_s +
        network_.compute_time(id, round, flops) * f.compute_factor +
        static_cast<double>(f.upload_attempts - 1) * fo.retry_backoff_s;
    leg.flow = uplink_->add(compute_done,
                            est_bytes * static_cast<double>(f.upload_attempts),
                            network_.client_bandwidth_bps(id) / f.comm_factor);
    leg.loss = losses[k];
    leg.state = std::move(states[k]);
    if (!snapshot) {
      snapshot = std::make_shared<const std::vector<float>>(global_);
    }
    leg.dispatch_global = snapshot;
    client_busy_[static_cast<std::size_t>(id)] = 1;
    inflight_.push_back(std::move(leg));
  }

  // Arrival ordering under the full contention history: (arrival time,
  // seed-keyed tiebreak, client id) — deterministic for any thread count.
  struct Candidate {
    double arrival_s = 0.0;
    std::uint64_t tiebreak = 0;
    int client = 0;
    std::size_t entry = 0;
    bool deliverable = false;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(inflight_.size());
  for (std::size_t e = 0; e < inflight_.size(); ++e) {
    const InFlight& leg = inflight_[e];
    Candidate c;
    c.arrival_s = uplink_->completion_s(leg.flow);
    c.tiebreak = net::arrival_tiebreak(options_.seed, leg.client, leg.version);
    c.client = leg.client;
    c.entry = e;
    // In async mode deadline_s bounds an upload's AGE (arrival minus
    // dispatch): there is no per-round barrier for an absolute deadline
    // to anchor to (docs/FAULT_MODEL.md).
    const bool late = fo.deadline_s > 0.0 &&
                      (c.arrival_s - leg.dispatch_s) > fo.deadline_s;
    c.deliverable = leg.delivered && !leg.corrupt && !late;
    candidates.push_back(c);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
              if (a.tiebreak != b.tiebreak) return a.tiebreak < b.tiebreak;
              return a.client < b.client;
            });
  if (candidates.empty() && !faults_.enabled()) {
    throw std::logic_error("Simulation: no active clients");
  }

  const int deliverable_count = static_cast<int>(
      std::count_if(candidates.begin(), candidates.end(),
                    [](const Candidate& c) { return c.deliverable; }));
  const int cohort =
      static_cast<int>(std::count(active_.begin(), active_.end(), true));
  const int base_k = [&] {
    const int k = options_.async.buffer_k;
    if (k <= 0) return std::max(1, cohort / 2);  // default: half the cohort
    return std::min(k, std::max(cohort, 1));     // clamp: K > cohort is a barrier
  }();
  // The buffer needs min(min_quorum, K) deliverable uploads: a buffer
  // smaller than the quorum still aggregates once it is full.
  const int quorum = std::min(faults_.enabled() ? fo.min_quorum : 1, base_k);
  const int k_eff = std::min(base_k, deliverable_count);
  stalled = k_eff < quorum;
  as.buffer_k = base_k;

  // Settle arrivals in order. A cycle that can reach its quorum consumes
  // deliverable uploads until the buffer holds K; one that cannot stalls,
  // leaving every deliverable leg buffered for a later cycle. Lost, corrupt
  // (discarded on their CRC-32 mismatch) and late legs met on the way are
  // waited out, so their clients come back as dispatchable; anything
  // ordered after the K-th consumed arrival stays in flight.
  for (const Candidate& c : candidates) {
    if (c.deliverable && stalled) continue;
    const InFlight& leg = inflight_[c.entry];
    t_end = std::max(t_end, c.arrival_s);
    remove_entries.push_back(c.entry);
    if (c.deliverable) {
      consumed_entries.push_back(c.entry);
      if (static_cast<int>(consumed_entries.size()) == k_eff) break;
      continue;
    }
    if (!leg.delivered) {
      ++record.uploads_lost;
    } else if (leg.corrupt) {
      ++fc.corrupt;
    } else {
      ++fc.deadline_missed;
    }
    free_client(leg, c.arrival_s);
  }
  // A stalled cycle with nothing to wait for costs one latency heartbeat.
  if (stalled && remove_entries.empty()) {
    t_end = cycle_start_s + options_.network.base_latency_s;
  }
  }  // OBS_SPAN sim.timing

  compress::SyncResult sync;
  if (!stalled) {
    // Aggregate. The protocol contract wants ascending client ids;
    // staleness is the number of aggregations since the leg's version was
    // dispatched.
    OBS_SPAN("sim.sync", &record.wall.sync_s);
    std::sort(consumed_entries.begin(), consumed_entries.end(),
              [&](std::size_t a, std::size_t b) {
                return inflight_[a].client < inflight_[b].client;
              });
    const int consumed = static_cast<int>(consumed_entries.size());
    compress::RoundContext ctx;
    ctx.round = round;
    as.consumed = consumed;
    std::vector<std::vector<float>> virtuals;
    virtuals.reserve(consumed_entries.size());
    std::vector<std::span<const float>> views;
    views.reserve(consumed_entries.size());
    // Stale legs re-base off the pool below; each job fills one pre-sized
    // virtual vector (disjoint outputs, §5b).
    struct RebaseJob {
      const InFlight* leg = nullptr;
      double weight = 1.0;
      std::size_t slot = 0;
    };
    std::vector<RebaseJob> rebase_jobs;
    double loss_sum = 0.0;
    int staleness_sum = 0;
    for (std::size_t e : consumed_entries) {
      const InFlight& leg = inflight_[e];
      ctx.participants.push_back(leg.client);
      ctx.dispatch_rounds.push_back(leg.version);
      loss_sum += leg.loss;
      const int s = model_version_ - leg.version;
      as.max_staleness = std::max(as.max_staleness, s);
      staleness_sum += s;
      if (static_cast<int>(as.staleness_hist.size()) <= s) {
        as.staleness_hist.resize(static_cast<std::size_t>(s) + 1, 0);
      }
      ++as.staleness_hist[static_cast<std::size_t>(s)];
      const double w = staleness_weight(s, options_.async.staleness_alpha);
      as.weight_sum += w;
      if (s == 0) {
        // Fresh update: hand the raw state through, so an all-fresh cycle
        // is bit-identical to a synchronous aggregation of the same clients
        // (global + (state - global) != state in float arithmetic).
        views.emplace_back(leg.state);
        continue;
      }
      // Stale update: re-base its delta onto the current model under the
      // staleness discount — virtual = global + w * (state - dispatch_global)
      // — which turns the protocol's plain mean into the FedBuff buffered
      // update rule. Accumulated in double, stored as float like every
      // other aggregation path in the repo. The fill happens below,
      // possibly across the pool: per-element arithmetic with disjoint
      // output vectors, so the bits cannot depend on the thread count.
      rebase_jobs.push_back(RebaseJob{&leg, w, virtuals.size()});
      virtuals.emplace_back(global_.size());
      views.emplace_back(virtuals.back());
    }
    auto rebase = [&](std::size_t begin, std::size_t end) {
      for (std::size_t k = begin; k < end; ++k) {
        const RebaseJob& job = rebase_jobs[k];
        const std::vector<float>& state = job.leg->state;
        const std::vector<float>& base = *job.leg->dispatch_global;
        std::vector<float>& virt = virtuals[job.slot];
        for (std::size_t j = 0; j < virt.size(); ++j) {
          virt[j] = static_cast<float>(
              static_cast<double>(global_[j]) +
              job.weight * (static_cast<double>(state[j]) -
                            static_cast<double>(base[j])));
        }
      }
    };
    if (pool_) {
      pool_->parallel_for(0, rebase_jobs.size(), rebase);
    } else {
      rebase(0, rebase_jobs.size());
    }
    as.mean_staleness =
        static_cast<double>(staleness_sum) / static_cast<double>(consumed);
    sync = synchronize(ctx, views);
    ++model_version_;
    record.num_participants = consumed;
    record.train_loss = loss_sum / static_cast<double>(consumed);
  }

  {
  OBS_SPAN("sim.timing", &record.wall.timing_s);
  if (!stalled) {
    // The consumed clients download the new model starting at the
    // aggregation instant; their next dispatch waits for that download.
    // Egress is simulated per aggregation batch (the same shape as the
    // synchronous phase 2); cross-cycle egress contention is not modeled —
    // the server link dwarfs the client caps, so batches barely interact.
    std::vector<net::Flow> downloads(consumed_entries.size());
    for (std::size_t i = 0; i < consumed_entries.size(); ++i) {
      const InFlight& leg = inflight_[consumed_entries[i]];
      record.bytes_up += sync.bytes_up[i];
      record.bytes_down += sync.bytes_down[i];
      downloads[i].start_time_s = t_end;
      downloads[i].bytes = static_cast<double>(sync.bytes_down[i]);
      // A straggler's thin link covers its whole leg, the upload and the
      // following model download alike.
      downloads[i].rate_cap_bps =
          network_.client_bandwidth_bps(leg.client) / leg.comm_factor;
    }
    const auto finished = net::simulate_shared_link(
        downloads, options_.network.server_bandwidth_bps);
    for (std::size_t i = 0; i < consumed_entries.size(); ++i) {
      free_client(inflight_[consumed_entries[i]], finished[i].finish_time_s);
    }
  }

  // Retire every settled and consumed leg.
  std::sort(remove_entries.begin(), remove_entries.end());
  std::vector<InFlight> keep;
  keep.reserve(inflight_.size() - remove_entries.size());
  for (std::size_t e = 0, ri = 0; e < inflight_.size(); ++e) {
    if (ri < remove_entries.size() && remove_entries[ri] == e) {
      ++ri;
      continue;
    }
    keep.push_back(std::move(inflight_[e]));
  }
  inflight_ = std::move(keep);
  as.inflight = static_cast<int>(inflight_.size());
  record.round_time_s = t_end - cycle_start_s;
  as.fill_time_s = record.round_time_s;
  record.async = std::move(as);
  elapsed_time_s_ = t_end;
  }  // OBS_SPAN sim.timing
  return close_round(std::move(record), fc, resync_bytes);
}

std::vector<std::unique_ptr<nn::Model>>& Simulation::replicas() const {
  // A replica built from the same spec+seed as scratch_model_ has the
  // identical parameter layout, and every user overwrites all its
  // parameters (weights and BN buffers alike) via load_state_vector before
  // running it, so which replica runs a client or a sub-batch cannot change
  // any bit of the result.
  if (replicas_.size() < static_cast<std::size_t>(pool_->size())) {
    replicas_.clear();
    for (int w = 0; w < pool_->size(); ++w) {
      nn::ModelSpec spec = options_.model;
      replicas_.push_back(std::make_unique<nn::Model>(
          nn::build_model(spec, util::Rng(options_.seed))));
    }
  }
  return replicas_;
}

void Simulation::train_participants(const std::vector<int>& participants,
                                    std::vector<std::vector<float>>& states,
                                    std::vector<double>& losses,
                                    double* seconds) {
  OBS_SPAN("sim.train", seconds);
  // The state vectors are allocated here, on the calling thread, so they
  // come from its heap rather than a per-worker malloc arena; the workers
  // only write into them.
  states.resize(participants.size());
  for (std::vector<float>& state : states) state.resize(global_.size());
  losses.assign(participants.size(), 0.0);
  auto train_one = [&](std::size_t idx, nn::Model& model) {
    model.load_state_vector(global_);
    losses[idx] = clients_[static_cast<std::size_t>(participants[idx])]
                      ->train_round(model, options_.local);
    model.write_state(states[idx]);
  };

  if (!pool_ || participants.size() <= 1) {
    for (std::size_t i = 0; i < participants.size(); ++i) {
      train_one(i, scratch_model_);
    }
    return;
  }

  // Each client is trained by exactly one worker, on that worker's
  // replica, and its own batch-loader RNG advances exactly as it would
  // sequentially.
  std::vector<std::unique_ptr<nn::Model>>& models = replicas();
  pool_->parallel_pull(participants.size(),
                       [&](std::size_t i, std::size_t worker) {
                         train_one(i, *models[worker]);
                       });
}

std::vector<RoundRecord> Simulation::run(int rounds) {
  std::vector<RoundRecord> records;
  records.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) records.push_back(step());
  return records;
}

float Simulation::evaluate() const {
  const data::Dataset& test = test_data_;
  const std::size_t n = test.size();
  if (n == 0) return 0.0f;

  // The pieces are sub-batches of the training batch size, so the models'
  // buffers stay at their training shape.
  const std::vector<std::pair<std::size_t, std::size_t>> pieces =
      eval_sub_batches(n, options_.local.batch_size);
  std::vector<int> correct(pieces.size(), 0);
  struct Worker {
    nn::Model* model = nullptr;
    tensor::Tensor batch;
    std::vector<int> labels;
    std::vector<std::size_t> idx;
  };
  std::vector<Worker> workers(pool_ ? static_cast<std::size_t>(pool_->size())
                                    : 1);
  for (std::size_t w = 0; w < workers.size(); ++w) {
    workers[w].model = pool_ ? replicas()[w].get() : &scratch_model_;
    workers[w].model->load_state_vector(global_);
  }
  auto score = [&](std::size_t p, std::size_t w) {
    Worker& worker = workers[w];
    const auto [begin, end] = pieces[p];
    worker.idx.resize(end - begin);
    std::iota(worker.idx.begin(), worker.idx.end(), begin);
    test.gather(worker.idx, worker.batch, worker.labels);
    correct[p] = nn::count_correct(
        worker.model->forward(worker.batch, /*train=*/false), worker.labels);
  };
  if (pool_) {
    pool_->parallel_pull(pieces.size(), score);
  } else {
    for (std::size_t p = 0; p < pieces.size(); ++p) score(p, 0);
  }

  // Per block, in block order: the block's accuracy as a float, times its
  // size, exactly as the whole-block loop summed it.
  double correct_weighted = 0.0;
  for (std::size_t p = 0; p < pieces.size();) {
    const std::size_t block = pieces[p].first / kEvalBlock;
    const std::size_t take = std::min(kEvalBlock, n - block * kEvalBlock);
    int block_correct = 0;
    for (; p < pieces.size() && pieces[p].first / kEvalBlock == block; ++p) {
      block_correct += correct[p];
    }
    correct_weighted += static_cast<double>(static_cast<float>(block_correct) /
                                            static_cast<float>(take)) *
                        take;
  }
  return static_cast<float>(correct_weighted / n);
}

std::pair<int, std::size_t> Simulation::add_client(data::Dataset shard) {
  const int id = static_cast<int>(clients_.size());
  util::Rng rng(options_.seed ^ (0x9e3779b9ULL * (id + 1)));
  clients_.push_back(std::make_unique<Client>(id, std::move(shard),
                                              options_.local.batch_size, rng));
  active_.push_back(true);
  network_.add_clients(1);
  client_busy_.push_back(0);
  // The joiner can be dispatched from the moment it appears.
  client_ready_s_.push_back(elapsed_time_s_);
  protocol_->on_client_join(id);
  // The joiner downloads the latest model plus protocol join state (§V).
  const std::size_t join_bytes =
      global_.size() * sizeof(float) + protocol_->join_state_bytes();
  return {id, join_bytes};
}

void Simulation::drop_client(int client_id) {
  if (client_id < 0 || client_id >= static_cast<int>(clients_.size())) {
    throw std::out_of_range("Simulation::drop_client: bad id");
  }
  active_[static_cast<std::size_t>(client_id)] = false;
}

// ---------------------------------------------------------------------------
// Run-checkpoint payload (docs/RECOVERY.md). Five magic-tagged sections in
// fixed order: sim core, protocol snapshot, client loaders, fault-plan churn
// state, and (async runs only) the in-flight frontier. Everything NOT here —
// shards, network model, selection and fault RNGs, worker replicas — is a
// pure function of SimulationOptions and the stored round counter, so it is
// validated against the snapshot instead of stored in it.
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kSnapCoreMagic = 0xFED5'C401;
constexpr std::uint32_t kSnapProtocolMagic = 0xFED5'C402;
constexpr std::uint32_t kSnapClientsMagic = 0xFED5'C403;
constexpr std::uint32_t kSnapFaultsMagic = 0xFED5'C404;
constexpr std::uint32_t kSnapAsyncMagic = 0xFED5'C405;
}  // namespace

std::vector<std::uint8_t> Simulation::snapshot_state() const {
  io::BinaryWriter writer;

  // Section 1: sim core + the identity fingerprint restore validates.
  writer.write_magic(kSnapCoreMagic);
  writer.write_string(protocol_->name());
  writer.write_u64(options_.seed);
  writer.write_i32(static_cast<std::int32_t>(clients_.size()));
  writer.write_bool(async_engine_);
  writer.write_i32(round_);
  writer.write_i32(model_version_);
  writer.write_f64(elapsed_time_s_);
  writer.write_f64(last_mean_payload_bytes_);
  writer.write_vector(global_);
  {
    std::vector<std::uint8_t> active(active_.size());
    for (std::size_t i = 0; i < active_.size(); ++i) {
      active[i] = active_[i] ? 1 : 0;
    }
    writer.write_vector(active);
  }

  // Section 2: the protocol's own snapshot (for FedSU: promotion/demotion
  // phase state, SparseErrorStore slabs, rejoin stamps — magic 0xFED50003).
  writer.write_magic(kSnapProtocolMagic);
  writer.write_vector(protocol_->snapshot());

  // Section 3: per-client batch-loader state (shuffle RNG words, epoch
  // permutation, cursor). The shards themselves re-derive from the seed.
  writer.write_magic(kSnapClientsMagic);
  writer.write_u64(clients_.size());
  for (const auto& client : clients_) client->serialize(writer);

  // Section 4: fault-plan churn state — the only stateful part of the
  // fault schedule (everything else is (seed, round, client)-keyed).
  writer.write_magic(kSnapFaultsMagic);
  {
    const std::vector<int>& down = faults_.churn_state();
    std::vector<std::int32_t> down32(down.begin(), down.end());
    writer.write_vector(down32);
  }

  // Section 5: the async in-flight frontier, so restore does not require a
  // quiescent server. Dispatch-era globals are deduplicated by identity
  // (legs dispatched in one cycle share one snapshot); restoring
  // content-identical vectors preserves the re-base arithmetic bitwise.
  if (async_engine_) {
    writer.write_magic(kSnapAsyncMagic);
    {
      std::vector<std::uint8_t> busy(client_busy_.begin(), client_busy_.end());
      writer.write_vector(busy);
    }
    writer.write_vector(client_ready_s_);
    const std::vector<net::Flow>& flows = uplink_->flows();
    writer.write_u64(flows.size());
    for (const net::Flow& flow : flows) {
      writer.write_f64(flow.start_time_s);
      writer.write_f64(flow.bytes);
      writer.write_f64(flow.rate_cap_bps);
    }
    std::vector<const std::vector<float>*> bases;
    std::vector<std::uint32_t> base_index(inflight_.size(), 0);
    for (std::size_t e = 0; e < inflight_.size(); ++e) {
      const std::vector<float>* base = inflight_[e].dispatch_global.get();
      std::size_t found = bases.size();
      for (std::size_t b = 0; b < bases.size(); ++b) {
        if (bases[b] == base) {
          found = b;
          break;
        }
      }
      if (found == bases.size()) bases.push_back(base);
      base_index[e] = static_cast<std::uint32_t>(found);
    }
    writer.write_u64(bases.size());
    for (const std::vector<float>* base : bases) writer.write_vector(*base);
    writer.write_u64(inflight_.size());
    for (std::size_t e = 0; e < inflight_.size(); ++e) {
      const InFlight& leg = inflight_[e];
      writer.write_i32(leg.client);
      writer.write_i32(leg.version);
      writer.write_i32(leg.dispatch_cycle);
      writer.write_f64(leg.dispatch_s);
      writer.write_u64(leg.flow);
      writer.write_i32(leg.attempts);
      writer.write_f64(leg.comm_factor);
      writer.write_bool(leg.delivered);
      writer.write_bool(leg.corrupt);
      writer.write_f64(leg.loss);
      writer.write_vector(leg.state);
      writer.write_u32(base_index[e]);
    }
  }

  return writer.take();
}

void Simulation::restore_state(const std::vector<std::uint8_t>& payload) {
  io::BinaryReader reader(payload);

  // Every section parses and validates into locals first, so a mismatched
  // run or a malformed payload throws before anything changes. The commit
  // below starts with the protocol's restore, itself all-or-nothing, and
  // nothing after it can fail.
  reader.expect_magic(kSnapCoreMagic, "run-checkpoint core section");
  const std::string protocol_name = reader.read_string();
  if (protocol_name != protocol_->name()) {
    throw std::runtime_error("Simulation::restore_state: snapshot is for '" +
                             protocol_name + "', this run uses '" +
                             protocol_->name() + "'");
  }
  const std::uint64_t seed = reader.read_u64();
  if (seed != options_.seed) {
    throw std::runtime_error(
        "Simulation::restore_state: snapshot seed does not match (resume "
        "must reuse the original --seed; shards and fault schedules derive "
        "from it)");
  }
  const std::int32_t num_clients = reader.read_i32();
  if (num_clients != static_cast<std::int32_t>(clients_.size())) {
    throw std::runtime_error(
        "Simulation::restore_state: snapshot has " +
        std::to_string(num_clients) + " clients, this run has " +
        std::to_string(clients_.size()) +
        " (mid-run add_client joiners are outside the resume frontier)");
  }
  const bool snap_async = reader.read_bool();
  if (snap_async != async_engine_) {
    throw std::runtime_error(
        "Simulation::restore_state: snapshot and run disagree on async "
        "mode");
  }
  const std::int32_t round = reader.read_i32();
  const std::int32_t model_version = reader.read_i32();
  const double elapsed = reader.read_f64();
  const double last_mean_payload = reader.read_f64();
  std::vector<float> global = reader.read_vector<float>();
  if (global.size() != global_.size()) {
    throw std::runtime_error(
        "Simulation::restore_state: model state size mismatch");
  }
  std::vector<std::uint8_t> active = reader.read_vector<std::uint8_t>();
  if (active.size() != active_.size()) {
    throw std::runtime_error(
        "Simulation::restore_state: active-set size mismatch");
  }

  reader.expect_magic(kSnapProtocolMagic, "run-checkpoint protocol section");
  std::vector<std::uint8_t> protocol_snapshot =
      reader.read_vector<std::uint8_t>();

  reader.expect_magic(kSnapClientsMagic, "run-checkpoint clients section");
  const std::uint64_t client_count = reader.read_u64();
  if (client_count != clients_.size()) {
    throw std::runtime_error(
        "Simulation::restore_state: client-section count mismatch");
  }
  std::vector<data::BatchLoader::Snapshot> loaders;
  loaders.reserve(clients_.size());
  for (const auto& client : clients_) {
    loaders.push_back(client->parse_loader(reader));
  }

  reader.expect_magic(kSnapFaultsMagic, "run-checkpoint faults section");
  std::vector<int> down;
  {
    const std::vector<std::int32_t> down32 = reader.read_vector<std::int32_t>();
    down.assign(down32.begin(), down32.end());
  }

  std::vector<std::uint8_t> busy;
  std::vector<double> ready;
  std::vector<net::Flow> flows;
  std::vector<InFlight> inflight;
  if (async_engine_) {
    reader.expect_magic(kSnapAsyncMagic, "run-checkpoint async section");
    busy = reader.read_vector<std::uint8_t>();
    if (busy.size() != client_busy_.size()) {
      throw std::runtime_error(
          "Simulation::restore_state: async busy-set size mismatch");
    }
    ready = reader.read_vector<double>();
    if (ready.size() != client_ready_s_.size()) {
      throw std::runtime_error(
          "Simulation::restore_state: async ready-set size mismatch");
    }
    // Record counts come from the payload: bound each by what the remaining
    // bytes can hold at the record's smallest encoding before allocating.
    auto read_count = [&](std::size_t min_record_bytes, const char* what) {
      const std::uint64_t count = reader.read_u64();
      if (count > reader.remaining() / min_record_bytes) {
        throw std::runtime_error(std::string("Simulation::restore_state: ") +
                                 what + " count exceeds the payload");
      }
      return static_cast<std::size_t>(count);
    };
    constexpr std::size_t kFlowBytes = 3 * 8;      // start, bytes, cap
    constexpr std::size_t kBaseMinBytes = 8;       // an empty vector
    // Seven 4-byte and five 8-byte fields, with an empty state vector.
    constexpr std::size_t kLegMinBytes = 7 * 4 + 5 * 8;
    flows.resize(read_count(kFlowBytes, "uplink flow"));
    for (net::Flow& flow : flows) {
      flow.start_time_s = reader.read_f64();
      flow.bytes = reader.read_f64();
      flow.rate_cap_bps = reader.read_f64();
      if (!net::valid_flow(flow)) {
        throw std::runtime_error(
            "Simulation::restore_state: malformed uplink flow");
      }
    }
    const std::size_t base_count = read_count(kBaseMinBytes, "dispatch base");
    std::vector<std::shared_ptr<const std::vector<float>>> bases;
    bases.reserve(base_count);
    for (std::size_t b = 0; b < base_count; ++b) {
      bases.push_back(std::make_shared<const std::vector<float>>(
          reader.read_vector<float>()));
    }
    inflight.resize(read_count(kLegMinBytes, "in-flight leg"));
    for (InFlight& leg : inflight) {
      leg.client = reader.read_i32();
      leg.version = reader.read_i32();
      leg.dispatch_cycle = reader.read_i32();
      leg.dispatch_s = reader.read_f64();
      leg.flow = static_cast<std::size_t>(reader.read_u64());
      leg.attempts = reader.read_i32();
      leg.comm_factor = reader.read_f64();
      leg.delivered = reader.read_bool();
      leg.corrupt = reader.read_bool();
      leg.loss = reader.read_f64();
      leg.state = reader.read_vector<float>();
      const std::uint32_t base = reader.read_u32();
      if (base >= bases.size() || leg.flow >= flows.size() ||
          leg.client < 0 ||
          leg.client >= static_cast<int>(clients_.size()) ||
          leg.state.size() != global_.size() ||
          bases[base]->size() != global_.size()) {
        throw std::runtime_error(
            "Simulation::restore_state: malformed in-flight leg");
      }
      leg.dispatch_global = bases[base];
    }
  }
  if (!reader.at_end()) {
    throw std::runtime_error(
        "Simulation::restore_state: trailing bytes after the last section");
  }

  // Commit. (Byte-level damage never reaches this function: a run
  // checkpoint file is rejected on its CRC footer before it is parsed.)
  protocol_->restore(protocol_snapshot);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->restore_loader(std::move(loaders[i]));
  }
  faults_.restore_churn_state(std::move(down));
  if (async_engine_) {
    uplink_->restore_flows(flows);
    std::copy(busy.begin(), busy.end(), client_busy_.begin());
    client_ready_s_ = std::move(ready);
    inflight_ = std::move(inflight);
  }
  round_ = round;
  model_version_ = model_version;
  elapsed_time_s_ = elapsed;
  last_mean_payload_bytes_ = last_mean_payload;
  global_ = std::move(global);
  for (std::size_t i = 0; i < active.size(); ++i) active_[i] = active[i] != 0;
}

}  // namespace fedsu::fl
