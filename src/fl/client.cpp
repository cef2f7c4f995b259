#include "fl/client.h"

#include <stdexcept>

#include "obs/trace.h"

namespace fedsu::fl {

Client::Client(int id, data::DatasetView shard, int batch_size, util::Rng rng)
    : id_(id), shard_(std::move(shard)), loader_(shard_, batch_size, rng) {
  if (id < 0) throw std::invalid_argument("Client: negative id");
}

Client::Client(int id, data::Dataset shard, int batch_size, util::Rng rng)
    : Client(id, data::DatasetView::own(std::move(shard)), batch_size, rng) {}

float Client::train_round(nn::Model& model, const LocalTrainOptions& options) {
  OBS_SPAN("client.train");
  nn::SgdOptions sgd_options;
  sgd_options.learning_rate = options.learning_rate;
  sgd_options.weight_decay = options.weight_decay;
  nn::Sgd sgd(model.parameters(), sgd_options);
  nn::SoftmaxCrossEntropy loss;

  tensor::Tensor batch;
  std::vector<int> labels;
  double total_loss = 0.0;
  for (int it = 0; it < options.iterations; ++it) {
    loader_.next(batch, labels);
    model.zero_grads();
    const tensor::Tensor& logits = model.forward(batch, /*train=*/true);
    total_loss += loss.forward(logits, labels);
    model.backward(loss.backward());
    sgd.step();
  }
  return options.iterations > 0
             ? static_cast<float>(total_loss / options.iterations)
             : 0.0f;
}

}  // namespace fedsu::fl
