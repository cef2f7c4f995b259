// Weight initialization. Takes an explicit Rng so experiments are
// reproducible bit-for-bit.
#pragma once

#include "tensor/tensor.h"
#include "util/rng.h"

namespace fedsu::tensor {

// Kaiming/He normal initialization: stddev = sqrt(2 / fan_in).
// `fan_in` must be > 0.
void kaiming_normal(Tensor& t, int fan_in, util::Rng& rng);

}  // namespace fedsu::tensor
