#include "compress/protocol.h"

namespace fedsu::compress {

void check_sync_inputs(const std::string& who, const RoundContext& ctx,
                       const std::vector<std::span<const float>>& client_states,
                       std::size_t params, bool reads_global) {
  if (client_states.empty() ||
      client_states.size() != ctx.participants.size()) {
    throw std::invalid_argument(who + ": participants/state mismatch");
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
