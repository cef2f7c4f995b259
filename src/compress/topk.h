// Top-K gradient sparsification with local error memory (classic sparsified
// SGD, e.g. Stich et al.). Not evaluated in the paper but a standard point
// of comparison for sparsification-style schemes (§II-B).
//
// Each client uploads only the k-fraction of update entries with the largest
// magnitude; the remainder is kept in a local residual and added to the next
// round's update. The server averages the sparse contributions; the global
// model changes only at the union of uploaded coordinates, and only that
// union is broadcast back.
//
// Hot-path design (DESIGN.md §15): residuals live in a lazily-allocated
// core::SparseErrorStore (slab on first nonzero, released on rejoin) instead
// of a dense clients x params matrix; the per-client compensate+select work
// runs in parallel over util::ThreadPool with per-client-owned outputs, so
// results are bitwise identical for every thread count (§5b); selection is
// threshold-then-scan — one nth_element over a reused |compensated| value
// buffer, then an ascending index scan with earliest-index tie-breaking at
// the threshold (deterministic, unlike partitioning an index array); and
// byte accounting is wire::measure_sparse, so no wire buffer is built
// outside payload-audit mode. Steady-state rounds allocate nothing beyond
// the returned SyncResult (tests/test_comm.cpp counts operator new).
#pragma once

#include "compress/protocol.h"
#include "core/error_store.h"

namespace fedsu::compress {

struct TopKOptions {
  double fraction = 0.1;  // fraction of coordinates uploaded per client
};

class TopK : public SyncProtocol {
 public:
  explicit TopK(int num_clients, TopKOptions options = {});

  std::string name() const override { return "TopK"; }
  void initialize(std::span<const float> global_state) override;
  void on_client_join(int client_id) override;
  std::size_t on_client_rejoin(int client_id) override;
  SyncResult synchronize(
      const RoundContext& ctx,
      const std::vector<std::span<const float>>& client_states) override;
  double last_sparsification_ratio() const override { return last_ratio_; }
  void serialize(io::BinaryWriter& writer) const override;
  // Restores the residuals of the same cohort (the snapshot's client count
  // must equal this TopK's) over a model of the same size.
  void deserialize(io::BinaryReader& reader) override;

  // Residual slabs currently resident server-side (bench/test introspection;
  // the dense design held one slab per client unconditionally).
  std::size_t resident_residual_slabs() const {
    return residual_.allocated_slabs();
  }

 private:
  TopKOptions options_;
  int num_clients_;
  // Per client id, slab on first nonzero; shaped to the model's length.
  core::SparseErrorStore residual_;
  double last_ratio_ = 0.0;

  // Round-loop scratch, sized on first use and reused thereafter so the
  // steady state is heap-allocation-free. sel_* hold each participant's k
  // selected (coordinate, compensated-value) pairs, written by the parallel
  // select pass (client i owns [i*k, (i+1)*k)) and folded serially in
  // ascending client order by the aggregation pass.
  std::vector<std::uint32_t> sel_indices_;
  std::vector<float> sel_values_;
  std::vector<double> agg_;
  std::vector<std::uint8_t> touched_;
};

}  // namespace fedsu::compress
