// The paper's actual deployment decomposition of Algorithm 1: one
// FedSU_Manager instance per client plus a dumb averaging server.
//
// FedSuManager (core/fedsu_manager.h) is the centralized-simulation view:
// one object sees every client's state. This header provides the faithful
// distributed view the paper implements (§V, Fig. 4):
//
//   * FedSuClientManager — lives on a client. begin_sync() masked-selects
//     the unpredictable parameters (plus the expiring error accumulators)
//     into an upload payload; finish_sync() consumes the server's
//     aggregates, applies speculative updates, runs the error-feedback
//     checks and refreshes the predictability mask — all from
//     globally-identical quantities, so every client's masks stay
//     bit-identical with NO mask traffic. The state machine is the same
//     core::Speculation kernel the centralized manager runs; the replica
//     adds its own error accumulator and the payload shapes.
//   * FedSuServer — Central_Server of Algorithm 1: positional averaging of
//     the clients' payloads (AGGREGATE_MODEL / AGGREGATE_ERROR).
//
// Equivalence with the centralized FedSuManager under full participation is
// exact (bit-for-bit) and covered by tests/test_distributed.cpp.
#pragma once

#include <span>
#include <vector>

#include "core/speculation.h"

namespace fedsu::core {

// Upload payload of one client for one round (Algorithm 1, lines 2 & 5).
struct FedSuUpload {
  // Values of the unpredictable parameters, in ascending parameter order
  // (the mask is shared state, so positions need no indices on the wire).
  std::vector<float> unpredictable_values;
  // Accumulated local errors of the parameters whose no-checking period
  // expires this round, in ascending parameter order.
  std::vector<float> expiring_errors;

  std::size_t wire_bytes() const {
    return (unpredictable_values.size() + expiring_errors.size()) *
           sizeof(float);
  }
};

// Server response: positional aggregates matching the upload layout.
struct FedSuDownload {
  std::vector<float> aggregated_values;
  std::vector<float> aggregated_errors;

  std::size_t wire_bytes() const {
    return (aggregated_values.size() + aggregated_errors.size()) *
           sizeof(float);
  }
};

class FedSuServer {
 public:
  // Positional mean of equally-shaped uploads (Algorithm 1,
  // AGGREGATE_MODEL + AGGREGATE_ERROR). Throws if shapes disagree — that
  // would mean client masks diverged, which the protocol forbids.
  FedSuDownload aggregate(const std::vector<FedSuUpload>& uploads) const;
};

class FedSuClientManager {
 public:
  FedSuClientManager(std::size_t state_size, FedSuOptions options = {});

  // Registers the initial global state (all clients start identical).
  void initialize(std::span<const float> global_state);

  // Step 1 of SYNC(x): consumes the locally-trained state, accumulates this
  // round's prediction errors, and produces the upload payload. Must be
  // followed by exactly one finish_sync().
  FedSuUpload begin_sync(std::span<const float> local_state);

  // Step 2: consumes the server aggregates; returns the client's new state
  // (identical on every client). Updates masks/periods/slopes locally.
  std::vector<float> finish_sync(const FedSuDownload& download);

  const std::vector<std::uint8_t>& predictable_mask() const {
    return spec_.mask();
  }
  double predictable_fraction() const { return spec_.predictable_fraction(); }
  const std::vector<float>& state() const { return global_; }
  std::size_t state_size() const { return global_.size(); }

 private:
  Speculation spec_;
  std::vector<float> global_;
  std::vector<float> local_err_;
  // Between begin_sync and finish_sync: the round's parameter lists and
  // the state with the speculative values written in.
  bool sync_in_flight_ = false;
  Speculation::Round pending_;
  std::vector<float> next_;
};

}  // namespace fedsu::core
