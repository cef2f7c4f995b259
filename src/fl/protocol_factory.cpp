#include "fl/protocol_factory.h"

#include <stdexcept>

#include "compress/apf.h"
#include "compress/cmfl.h"
#include "compress/fedavg.h"
#include "compress/qsgd.h"
#include "compress/signsgd.h"
#include "compress/topk.h"

namespace fedsu::fl {

std::unique_ptr<compress::SyncProtocol> make_protocol(
    const ProtocolConfig& config) {
  if (config.name == "fedavg") {
    return std::make_unique<compress::FedAvg>();
  }
  if (config.name == "cmfl") {
    compress::CmflOptions options;
    options.relevance_threshold = config.cmfl_relevance;
    return std::make_unique<compress::Cmfl>(options);
  }
  if (config.name == "apf") {
    return std::make_unique<compress::Apf>();
  }
  if (config.name == "fedsu") {
    return std::make_unique<core::FedSuManager>(config.num_clients,
                                                config.fedsu);
  }
  if (config.name == "fedsu-v1") {
    return std::make_unique<core::FedSuV1>(config.fedsu_v1);
  }
  if (config.name == "fedsu-v2") {
    return std::make_unique<core::FedSuV2>(config.fedsu_v2);
  }
  if (config.name == "topk") {
    return std::make_unique<compress::TopK>(config.num_clients);
  }
  if (config.name == "qsgd") {
    return std::make_unique<compress::Qsgd>();
  }
  if (config.name == "signsgd") {
    return std::make_unique<compress::SignSgd>();
  }
  throw std::invalid_argument("make_protocol: unknown protocol '" +
                              config.name + "'");
}

std::vector<std::string> known_protocols() {
  return {"fedavg", "cmfl", "apf", "fedsu", "fedsu-v1", "fedsu-v2", "topk",
          "qsgd",  "signsgd"};
}

}  // namespace fedsu::fl
