// Builds a synchronization protocol by name — the registry bench binaries
// and examples share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/protocol.h"
#include "core/fedsu_manager.h"
#include "core/fedsu_variants.h"

namespace fedsu::fl {

struct ProtocolConfig {
  // fedavg | cmfl | apf | fedsu | fedsu-v1 | fedsu-v2 | topk | qsgd | signsgd
  std::string name = "fedsu";
  int num_clients = 8;

  core::FedSuOptions fedsu;       // fedsu
  core::FedSuV1Options fedsu_v1;  // fedsu-v1
  core::FedSuV2Options fedsu_v2;  // fedsu-v2
  double cmfl_relevance = 0.8;    // cmfl
  // apf, topk, qsgd and signsgd run at their *Options defaults.
};

std::unique_ptr<compress::SyncProtocol> make_protocol(
    const ProtocolConfig& config);

std::vector<std::string> known_protocols();

}  // namespace fedsu::fl
