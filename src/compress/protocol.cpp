#include "compress/protocol.h"

#include <algorithm>
#include <functional>

namespace fedsu::compress {

namespace {
// Both engines pass ascending ids, which one pass confirms without
// allocating; any other order is checked on a sorted copy.
bool has_duplicate(const std::vector<int>& ids) {
  if (std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<int>()) ==
      ids.end()) {
    return false;
  }
  std::vector<int> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}
}  // namespace

void check_sync_inputs(const std::string& who, const RoundContext& ctx,
                       const std::vector<std::span<const float>>& client_states,
                       std::size_t params, bool reads_global) {
  if (client_states.empty() ||
      client_states.size() != ctx.participants.size()) {
    throw std::invalid_argument(who + ": participants/state mismatch");
  }
  if (has_duplicate(ctx.participants)) {
    throw std::invalid_argument(who + ": duplicate participant id");
  }
  for (const auto& state : client_states) {
    if (state.size() != params) {
      throw std::invalid_argument(who + ": state size mismatch");
    }
  }
  if (reads_global && ctx.global.size() != params) {
    throw std::invalid_argument(who + ": ctx.global size mismatch");
  }
}

}  // namespace fedsu::compress
