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
  sgd_options.momentum = options.momentum;
  nn::Sgd sgd(model.parameters(), sgd_options);
  nn::SoftmaxCrossEntropy loss;

  // FedProx anchor: the global state the round started from.
  std::vector<float> anchor;
  if (options.proximal_mu != 0.0f) anchor = model.state_vector();

  tensor::Tensor batch;
  std::vector<int> labels;
  double total_loss = 0.0;
  for (int it = 0; it < options.iterations; ++it) {
    loader_.next(batch, labels);
    model.zero_grads();
    const tensor::Tensor& logits = model.forward(batch, /*train=*/true);
    total_loss += loss.forward(logits, labels);
    model.backward(loss.backward());
    if (options.proximal_mu != 0.0f) {
      apply_proximal_term(model, anchor, options.proximal_mu);
    }
    sgd.step();
  }
  return options.iterations > 0
             ? static_cast<float>(total_loss / options.iterations)
             : 0.0f;
}

void Client::apply_proximal_term(nn::Model& model,
                                 const std::vector<float>& anchor,
                                 float mu) const {
  // grad += mu * (x - x_global), over trainable parameters only.
  std::size_t offset = 0;
  for (nn::Param* p : model.parameters()) {
    if (p->trainable) {
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        p->grad[i] += mu * (p->value[i] - anchor[offset + i]);
      }
    }
    offset += p->value.size();
  }
}

}  // namespace fedsu::fl
