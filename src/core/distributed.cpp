#include "core/distributed.h"

#include <stdexcept>

#include "util/reduce.h"
#include "util/thread_pool.h"

namespace fedsu::core {

FedSuDownload FedSuServer::aggregate(
    const std::vector<FedSuUpload>& uploads) const {
  if (uploads.empty()) {
    throw std::invalid_argument("FedSuServer::aggregate: no uploads");
  }
  const std::size_t values = uploads.front().unpredictable_values.size();
  const std::size_t errors = uploads.front().expiring_errors.size();
  for (const auto& upload : uploads) {
    if (upload.unpredictable_values.size() != values ||
        upload.expiring_errors.size() != errors) {
      throw std::invalid_argument(
          "FedSuServer::aggregate: payload shape mismatch (client masks "
          "diverged)");
    }
  }
  // Positional means in the fixed block shape (util/reduce.h): thread-count
  // invariant, and bit-identical to the centralized FedSuManager passes —
  // both fold the same N rows through the same tree.
  FedSuDownload download;
  download.aggregated_values.resize(values);
  download.aggregated_errors.resize(errors);
  util::ThreadPool* pool = &util::ThreadPool::global();
  std::vector<std::span<const float>> rows;
  rows.reserve(uploads.size());
  for (const auto& upload : uploads) {
    rows.emplace_back(upload.unpredictable_values);
  }
  util::column_means(rows, download.aggregated_values, pool);
  rows.clear();
  for (const auto& upload : uploads) rows.emplace_back(upload.expiring_errors);
  util::column_means(rows, download.aggregated_errors, pool);
  return download;
}

FedSuClientManager::FedSuClientManager(std::size_t state_size,
                                       FedSuOptions options)
    : spec_(options), global_(state_size, 0.0f), local_err_(state_size, 0.0f) {
  spec_.initialize(state_size);
}

void FedSuClientManager::initialize(std::span<const float> global_state) {
  if (global_state.size() != global_.size()) {
    throw std::invalid_argument("FedSuClientManager::initialize: bad size");
  }
  global_.assign(global_state.begin(), global_state.end());
}

FedSuUpload FedSuClientManager::begin_sync(std::span<const float> local_state) {
  if (sync_in_flight_) {
    throw std::logic_error("FedSuClientManager: begin_sync called twice");
  }
  if (local_state.size() != global_.size()) {
    throw std::invalid_argument("FedSuClientManager::begin_sync: bad size");
  }
  next_ = global_;
  pending_ = spec_.walk(global_, next_);
  FedSuUpload upload;
  // Algorithm 1 line 2: masked-select the non-linear parameters.
  for (const std::size_t j : pending_.unpredictable) {
    upload.unpredictable_values.push_back(local_state[j]);
  }
  // Line 5: accumulate the local prediction error e += x - x_spec.
  for (const auto& [b, e] : pending_.runs) {
    for (std::size_t j = b; j < e; ++j) {
      local_err_[j] += local_state[j] - next_[j];
    }
  }
  for (const std::size_t j : pending_.expiring) {
    upload.expiring_errors.push_back(local_err_[j]);
  }
  sync_in_flight_ = true;
  return upload;
}

std::vector<float> FedSuClientManager::finish_sync(
    const FedSuDownload& download) {
  if (!sync_in_flight_) {
    throw std::logic_error("FedSuClientManager: finish_sync without begin");
  }
  sync_in_flight_ = false;
  if (download.aggregated_values.size() != pending_.unpredictable.size() ||
      download.aggregated_errors.size() != pending_.expiring.size()) {
    throw std::invalid_argument(
        "FedSuClientManager::finish_sync: payload mismatch");
  }
  // Restore the aggregated unpredictable values (line 4); next_ already
  // holds the speculative update of the predictable ones (line 8).
  for (std::size_t k = 0; k < pending_.unpredictable.size(); ++k) {
    next_[pending_.unpredictable[k]] = download.aggregated_values[k];
  }
  // Error feedback (line 9): extend or end the expiring speculations;
  // regular updating starts from zero error.
  for (std::size_t k = 0; k < pending_.expiring.size(); ++k) {
    const std::size_t j = pending_.expiring[k];
    if (spec_.check(j, download.aggregated_errors[k], next_[j])) {
      local_err_[j] = 0.0f;
    }
  }
  // Linearity diagnosis for the normally-synchronized parameters (line 10).
  // A new phase needs no clear: local_err_ is written only while a
  // parameter speculates and zeroed when its phase ends.
  spec_.diagnose(global_, next_, nullptr, [](std::size_t) {});
  global_ = next_;
  return next_;
}

}  // namespace fedsu::core
