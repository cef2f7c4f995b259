#include "core/fedsu_manager.h"

#include <stdexcept>
#include <utility>

#include "compress/wire.h"
#include "obs/trace.h"
#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::core {

FedSuManager::FedSuManager(int num_clients, FedSuOptions options)
    : spec_(options), num_clients_(num_clients) {
  if (num_clients <= 0) {
    throw std::invalid_argument("FedSuManager: num_clients <= 0");
  }
}

void FedSuManager::initialize(std::span<const float> global_state) {
  global_.assign(global_state.begin(), global_state.end());
  const std::size_t p = global_.size();
  spec_.initialize(p);
  client_err_.reset(num_clients_, p);
  phase_start_round_.assign(p, 0);
  rejoin_stamp_.assign(static_cast<std::size_t>(num_clients_), 0);
  rounds_seen_ = 0;
  last_ratio_ = 0.0;
}

void FedSuManager::on_client_join(int client_id) {
  if (client_id != num_clients_) {
    throw std::invalid_argument("FedSuManager: client ids must be contiguous");
  }
  ++num_clients_;
  // The joiner downloads the masks/periods/slopes (join_state_bytes()) and
  // starts with a clean local error accumulator (no slab until it accrues).
  client_err_.add_client();
  rejoin_stamp_.push_back(0);
}

std::size_t FedSuManager::on_client_rejoin(int client_id) {
  if (client_id < 0 || client_id >= num_clients_) {
    throw std::out_of_range("FedSuManager: rejoining client id out of range");
  }
  // Rejoin-stamp reset reclaims the slab outright: the accumulator is
  // semantically all-zero, and reading an absent slab yields exact zeros.
  client_err_.release(client_id);
  rejoin_stamp_[static_cast<std::size_t>(client_id)] = rounds_seen_;
  // The forced re-download is the same payload a fresh joiner pulls.
  return join_state_bytes();
}

compress::SyncResult FedSuManager::synchronize(
    const compress::RoundContext& ctx,
    const std::vector<std::span<const float>>& client_states) {
  OBS_SPAN("core.fedsu.sync");
  const std::size_t p = global_.size();
  const std::size_t n = client_states.size();
  compress::check_sync_inputs(name(), ctx, client_states, p, false);
  for (int id : ctx.participants) {
    if (id < 0 || id >= num_clients_) {
      throw std::out_of_range("FedSuManager: participant id out of range");
    }
  }
  // Buffered-async callers stamp each participant with the model version it
  // was dispatched at (DESIGN.md §11). The synchronous path leaves the
  // vector empty, and every versioned code path below degenerates to the
  // historical behaviour bit-for-bit in that case.
  const bool versioned = !ctx.dispatch_rounds.empty();
  if (versioned && ctx.dispatch_rounds.size() != n) {
    throw std::invalid_argument("FedSuManager: dispatch_rounds size mismatch");
  }

  std::vector<float> new_global = global_;
  diag_ = RoundDiagnostics{};

  // Client 0's wire upload, built under payload audit only: unpredictable
  // values (pass 1) followed by expiring error scalars (pass 2).
  const bool audit = compress::wire::payload_audit();

  // Every pass walks one of three lists built by a single serial mask walk,
  // so each touches only the parameters it needs. The parallel stages have
  // disjoint outputs with fixed shapes (util/reduce.h block tree, one row
  // task per participant, one fold per expiring column), so the bits are
  // identical for every --threads value (§5b).
  util::ThreadPool* pool = &util::ThreadPool::global();
  Speculation::Round round;

  // Pass 1: synchronize unpredictable parameters; speculatively update the
  // predictable ones and accumulate prediction errors.
  {
  OBS_SPAN("core.fedsu.speculate");
  round = spec_.walk(global_, new_global);
  const auto& runs = round.runs;
  diag_.unpredictable = round.unpredictable.size();
  diag_.expiring = round.expiring.size();
  // Only the unpredictable columns are averaged.
  Speculation::average(client_states, round, new_global, pool);

  // Each participating client logs its local prediction error
  // e = (local update) - slope = x_local - x_spec, where x_spec is the
  // speculative new_global written above. A stale participant whose model
  // version predates this parameter's speculation phase never observed the
  // phase's trajectory, so its error term is meaningless for Eq. 3 — the
  // version fence keeps it out of the accumulator, the same invariant the
  // rejoin stamps enforce for crash churn, keyed by dispatch version
  // instead of rejoin round.
  if (!runs.empty()) {
    const float* spec = new_global.data();
    const std::int32_t* phase_start = phase_start_round_.data();
    auto fenced = [&](std::size_t i, std::size_t j) {
      return versioned && ctx.dispatch_rounds[i] < phase_start[j];
    };
    // A slab materializes at the participant's first nonzero eligible
    // delta (absent == exact zeros, core/error_store.h). Creating it here,
    // on the calling thread, lets the row pass below accumulate densely
    // from the start of the slab: the deltas before that first nonzero one
    // are +/-0, and +0 + (+/-0) == +0, so the slab ends bit-identical.
    for (std::size_t i = 0; i < n; ++i) {
      const int client = ctx.participants[i];
      if (client_err_.slab(client) != nullptr) continue;
      const float* state = client_states[i].data();
      bool nonzero = false;
      for (const auto& [b, e] : runs) {
        for (std::size_t j = b; j < e && !nonzero; ++j) {
          nonzero = !fenced(i, j) && state[j] - spec[j] != 0.0f;
        }
        if (nonzero) break;
      }
      if (nonzero) client_err_.ensure(client);
    }
    // Row pass: participants are distinct clients, so each task owns its
    // slab. Within a predictable run the accumulation is dense; the version
    // fence is a per-element select that keeps a fenced entry's old bits.
    // Entries of unpredictable parameters are neither read nor written.
    auto scatter = [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        float* __restrict slab = client_err_.slab(ctx.participants[i]);
        if (slab == nullptr) continue;  // every eligible delta was zero
        const float* __restrict state = client_states[i].data();
        if (!versioned) {
          for (const auto& [b, e] : runs) {
            for (std::size_t j = b; j < e; ++j) slab[j] += state[j] - spec[j];
          }
          continue;
        }
        const std::int32_t dispatched = ctx.dispatch_rounds[i];
        for (const auto& [b, e] : runs) {
          for (std::size_t j = b; j < e; ++j) {
            const float acc = slab[j] + (state[j] - spec[j]);
            slab[j] = dispatched < phase_start[j] ? slab[j] : acc;
          }
        }
      }
    };
    pool->parallel_for(0, n, scatter);
  }
  }  // OBS_SPAN core.fedsu.speculate

  // Columns whose errors restart this round: the demotions of pass 2.
  // Nothing reads the slabs after the verdicts, so they are cleared
  // together at the end of pass 3. A promotion needs no clear: pass 1
  // writes only predictable columns, a phase ends only by demotion, and
  // slabs start zero-filled, so a synchronized column reads +0.0 in every
  // slab.
  std::vector<std::size_t> cleared;

  // Pass 2: error feedback for parameters whose no-checking period expired.
  // Stage 2a folds every expiring parameter's errors; stage 2b applies the
  // verdicts serially in ascending parameter order, so payload layout,
  // event order and diagnostics are exactly the historical ones.
  {
  OBS_SPAN("core.fedsu.feedback");
  // Stage 2a: filtered sums. Aggregate only accumulators that cover the
  // whole speculation phase: a client that rejoined after the phase started
  // (rejoin_stamp_ > phase_start_round_) missed earlier error terms, and
  // Eq. 3 sums from the phase start. Without churn every participant is
  // valid and the mean is bit-identical to the unfiltered one. The fold
  // streams the slabs row by row (participants ascending) into one
  // util::BlockedSum per expiring column — exactly util::blocked_sum of the
  // filtered column, the block shape every other aggregation uses, keeping
  // the centralized and distributed decompositions bit-identical at any
  // cohort size. Chunks of expiring columns run in parallel.
  const auto& expiring = round.expiring;
  std::vector<util::BlockedSum> folds(expiring.size());
  if (!expiring.empty()) {
    auto fold_rows = [&](std::size_t k0, std::size_t k1) {
      for (std::size_t i = 0; i < n; ++i) {
        const int client = ctx.participants[i];
        const std::int32_t stamp =
            rejoin_stamp_[static_cast<std::size_t>(client)];
        const float* slab = client_err_.slab(client);
        for (std::size_t k = k0; k < k1; ++k) {
          const std::size_t j = expiring[k];
          if (stamp > phase_start_round_[j]) continue;
          folds[k].add(slab != nullptr ? slab[j] : 0.0f);
        }
      }
    };
    pool->parallel_for(0, expiring.size(), fold_rows);
  }
  // Stage 2b: verdicts, in ascending parameter order.
  for (std::size_t k = 0; k < expiring.size(); ++k) {
    const std::size_t j = expiring[k];
    // The client uploads its accumulated local error for this parameter.
    if (audit) {
      round.upload.push_back(client_err_.value(ctx.participants[0], j));
    }
    const std::size_t valid = folds[k].count;
    if (valid == 0) {
      // Every participant's view of this phase is partial (all rejoined
      // mid-phase): the check cannot be evaluated.
      spec_.rearm(j);
      continue;
    }
    // The aggregate crosses the wire as float32 (matching the distributed
    // decomposition in core/distributed.h bit-for-bit).
    const float mean_err = static_cast<float>(
        folds[k].result() * (1.0 / static_cast<double>(valid)));
    if (spec_.check(j, mean_err, new_global[j])) {
      cleared.push_back(j);
      ++diag_.demotions;
      emit(SpecEvent{ctx.round, j, /*start=*/false});
    }
  }
  }  // OBS_SPAN core.fedsu.feedback

  // Pass 3: refresh linearity diagnosis for parameters synchronized
  // normally this round, possibly promoting them into speculative mode.
  {
  OBS_SPAN("core.fedsu.diagnosis");
  spec_.diagnose(global_, new_global, [&](std::size_t j) {
    phase_start_round_[j] = rounds_seen_;
    ++diag_.promotions;
    emit(SpecEvent{ctx.round, j, /*start=*/true});
  });
  // Regular updating (demotion) restarts from zero error: one pass over
  // the allocated slabs, in parallel over them.
  client_err_.clear_params(cleared, pool);
  }  // OBS_SPAN core.fedsu.diagnosis

  global_ = new_global;
  ++rounds_seen_;

  // Wire accounting: unpredictable values travel both ways; expiring
  // parameters add one error scalar per direction (upload local error,
  // download the aggregated verdict/correction).
  return spec_.result(std::move(new_global), n,
                      diag_.unpredictable + diag_.expiring, round, "fedsu",
                      last_ratio_);
}

std::size_t FedSuManager::state_bytes() const {
  // Extra resident memory FedSU adds on a device. Excluded: `global_` (the
  // client's own model copy, present with or without FedSU), the kernel's
  // linear_rounds() (bench instrumentation only), and the churn
  // reconciliation stamps (server-side bookkeeping, not device-resident) —
  // keeping the Table II accounting identical with the fault layer off.
  // Added: the per-client error accumulator, which a real device stores
  // dense (it always observes its own errors; sparsity is a server-side
  // phenomenon driven by never-selected and churned clients).
  return spec_.state_bytes() + global_.size() * sizeof(float);
}

namespace {
// 0xFED50002 added the churn-reconciliation bookkeeping (phase start
// rounds + rejoin stamps). 0xFED50003 switched the per-client error
// matrix to the sparse slab encoding (core/error_store.h): only allocated
// slabs are written, as (client id, slab) pairs. Older snapshots are not
// readable.
constexpr std::uint32_t kFedSuSnapshotMagic = 0xFED50003;
}  // namespace

void FedSuManager::serialize(io::BinaryWriter& writer) const {
  writer.write_magic(kFedSuSnapshotMagic);
  writer.write_i32(num_clients_);
  writer.write_i32(rounds_seen_);
  writer.write_f64(last_ratio_);
  writer.write_vector(global_);
  spec_.serialize(writer);
  writer.write_vector(phase_start_round_);
  writer.write_vector(rejoin_stamp_);
  client_err_.serialize(writer);
}

void FedSuManager::deserialize(io::BinaryReader& reader) {
  // Parse into locals and validate before touching a member, so a
  // malformed snapshot throws and leaves the manager exactly as it was.
  reader.expect_magic(kFedSuSnapshotMagic, "FedSuManager snapshot");
  const int num_clients = reader.read_i32();
  const int rounds_seen = reader.read_i32();
  const double last_ratio = reader.read_f64();
  std::vector<float> global = reader.read_vector<float>();
  const std::size_t p = global.size();
  Speculation spec = spec_.parse(reader, p);
  std::vector<std::int32_t> phase_start_round =
      reader.read_vector<std::int32_t>(p);
  std::vector<std::int32_t> rejoin_stamp = reader.read_vector<std::int32_t>();
  // Checked before the error store is shaped: rejoin_stamp's length was
  // bounded by the bytes read, so num_clients is too.
  if (num_clients <= 0 ||
      rejoin_stamp.size() != static_cast<std::size_t>(num_clients)) {
    throw std::runtime_error("FedSuManager: inconsistent snapshot");
  }
  SparseErrorStore client_err;
  client_err.deserialize(reader, num_clients, p);
  if (!reader.at_end()) {
    throw std::runtime_error("FedSuManager snapshot: trailing bytes");
  }

  num_clients_ = num_clients;
  rounds_seen_ = rounds_seen;
  last_ratio_ = last_ratio;
  global_ = std::move(global);
  spec_ = std::move(spec);
  phase_start_round_ = std::move(phase_start_round);
  rejoin_stamp_ = std::move(rejoin_stamp);
  client_err_ = std::move(client_err);
}

}  // namespace fedsu::core
