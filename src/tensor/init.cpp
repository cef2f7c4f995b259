#include "tensor/init.h"

#include <cmath>
#include <stdexcept>

namespace fedsu::tensor {

void kaiming_normal(Tensor& t, int fan_in, util::Rng& rng) {
  if (fan_in <= 0) throw std::invalid_argument("kaiming_normal: fan_in <= 0");
  const double stddev = std::sqrt(2.0 / fan_in);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

}  // namespace fedsu::tensor
