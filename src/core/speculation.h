// The speculation state machine of paper Algorithm 1, written once for
// every FedSU protocol: FedSuManager (the centralized server view), its
// Fig. 4 client replica FedSuClientManager, and the Fig. 8 ablations
// FedSU-v1/v2.
//
// Per parameter it keeps the predictability mask, the slope frozen when
// speculation started, the no-checking period and the rounds left in it,
// the rounds spent speculating, and the OscillationTracker that diagnoses
// linearity (Eq. 2). A parameter is either synchronized normally or
// speculating: x <- x + slope every round, until its period lapses. The
// protocols differ only in how a parameter enters and leaves speculation,
// and compose the primitives below in their own order:
//
//   FedSU and its client replica: enter when R < T_R (diagnose), and at
//     each lapsed period extend or end on the Eq. 3 check (check);
//   FedSU-v1: enter when R < T_R, end when a fixed period lapses and
//     forget the parameter's R statistics (end_phase + forget);
//   FedSU-v2: enter at random (start_phase), end when a fixed period lapses.
//
// Every quantity here is derived from globally-identical values, so each
// client can keep its own replica without mask traffic (paper §V).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "compress/protocol.h"
#include "core/oscillation.h"
#include "io/serialize.h"

namespace fedsu::util {
class ThreadPool;
}  // namespace fedsu::util

namespace fedsu::core {

struct FedSuOptions {
  double t_r = 0.01;        // predictability threshold T_R (paper §VI-A)
  double t_s = 1.0;         // error-feedback threshold T_S (paper §VI-A)
  double ema_decay = 0.9;   // theta of Eq. 2 ("close to 1", paper §IV-A)
  int warmup = 3;           // R observations before speculation may start
  int initial_no_check = 1; // first no-checking period, in rounds
};

class Speculation {
 public:
  // Throws std::invalid_argument unless T_R and T_S are positive, the first
  // period is at least one round, and the tracker options are valid.
  explicit Speculation(FedSuOptions options);

  // Sizes the state for a model of `params` scalars, none speculating.
  void initialize(std::size_t params);

  std::size_t size() const { return mask_.size(); }

  // One round's parameter lists, built by a single mask walk.
  struct Round {
    std::vector<std::size_t> unpredictable;  // ascending j
    // Maximal runs [b, e) of predictable parameters, ascending.
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    std::vector<std::size_t> expiring;  // ascending j whose period lapsed
    // Client 0's upload, built only under payload audit (compress/wire.h).
    std::vector<float> upload;
  };

  // The round's one mask walk: writes the speculative value
  // global[j] + slope[j] into next[j] for every predictable j, counts the
  // round towards linear_rounds() and off the no-checking period, and lists
  // the parameters each later step needs.
  Round walk(std::span<const float> global, std::span<float> next);

  // Writes the participants' mean into next[j] for every unpredictable j,
  // folded in the fixed block shape of util/reduce.h, and appends client
  // 0's values to round.upload under payload audit.
  static void average(const std::vector<std::span<const float>>& states,
                      Round& round, std::span<float> next,
                      util::ThreadPool* pool);

  // Eq. 3 at the end of j's no-checking period: S = |mean_err| / |slope|.
  // Below T_S the phase goes on with a period one round longer; otherwise
  // the phase ends and `value` takes the aggregated error as its
  // correction, rejoining the true trajectory. Returns true when it ended.
  bool check(std::size_t j, float mean_err, float& value);

  // Checks j again next round without lengthening its period.
  void rearm(std::size_t j) { remaining_[j] = 1; }

  // Speculation of j begins with `slope` for the first period, or ends.
  void start_phase(std::size_t j, float slope);
  void end_phase(std::size_t j);

  // Forgets j's R statistics, so j re-warms before it can enter again.
  void forget(std::size_t j) { osc_.reset(j); }

  // Linearity diagnosis of every synchronized parameter, in ascending j:
  // feeds its update next[j] - global[j] to the tracker and, once R is
  // trusted and below T_R, starts speculation with that update as the
  // slope ("use the update of the last round", §IV-B) and calls
  // on_start(j).
  template <typename OnStart>
  void diagnose(std::span<const float> global, std::span<const float> next,
                OnStart&& on_start) {
    for (std::size_t j = 0; j < mask_.size(); ++j) {
      if (mask_[j]) continue;
      const float g = next[j] - global[j];
      if (!promotes(j, g)) continue;
      start_phase(j, g);
      on_start(j);
    }
  }

  // The round's SyncResult: each of `participants` moves `scalars` f32 each
  // way, sized by wire::measure_dense and, under payload audit, checked
  // against round.upload encoded, naming `protocol` in the audit. Stores
  // the sparsification ratio in `ratio`.
  compress::SyncResult result(std::vector<float> next, std::size_t participants,
                              std::size_t scalars, const Round& round,
                              const char* protocol, double& ratio) const;

  const std::vector<std::uint8_t>& mask() const { return mask_; }
  double predictable_fraction() const;
  // Rounds each parameter spent speculating so far.
  const std::vector<std::int32_t>& linear_rounds() const {
    return linear_rounds_;
  }

  // Resident bytes of the tracker, mask, slopes and periods (Table II).
  std::size_t state_bytes() const;
  // What a late joiner downloads: the mask packed to bits, the periods and
  // the slopes (§V).
  std::size_t join_state_bytes() const;

  // Writes the tracker, mask, slopes, periods, remaining counts and
  // linear_rounds(). parse() reads them back into a new kernel with these
  // options, throwing std::runtime_error unless each has `params` entries.
  void serialize(io::BinaryWriter& writer) const;
  Speculation parse(io::BinaryReader& reader, std::size_t params) const;

 private:
  OscillationTracker tracker(std::size_t params) const;
  bool promotes(std::size_t j, float g);

  FedSuOptions options_;
  OscillationTracker osc_;
  std::vector<std::uint8_t> mask_;
  std::vector<float> slope_;
  std::vector<std::int32_t> period_;
  std::vector<std::int32_t> remaining_;
  std::vector<std::int32_t> linear_rounds_;
};

}  // namespace fedsu::core
