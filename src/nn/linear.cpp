#include "nn/linear.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/vectorized.h"

namespace fedsu::nn {

Linear::Linear(int in_features, int out_features, util::Rng& rng, bool bias)
    : in_features_(in_features), out_features_(out_features), has_bias_(bias) {
  weight_.value = tensor::Tensor({out_features, in_features});
  weight_.grad = tensor::Tensor({out_features, in_features});
  weight_.name = "linear.weight";
  tensor::kaiming_normal(weight_.value, in_features, rng);
  if (has_bias_) {
    bias_.value = tensor::Tensor({out_features});
    bias_.grad = tensor::Tensor({out_features});
    bias_.name = "linear.bias";
  }
}

const tensor::Tensor& Linear::forward(const tensor::Tensor& input,
                                      bool /*train*/) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument("Linear::forward: expected [N, " +
                                std::to_string(in_features_) + "], got " +
                                input.shape_string());
  }
  const int n = input.dim(0);
  input_.resize(input.shape());
  std::copy_n(input.data(), input.size(), input_.data());
  // y[N,out] = x[N,in] * W[out,in]^T
  out_.resize({n, out_features_});
  tensor::gemm::sgemm(tensor::gemm::Variant::kNT, n, out_features_,
                      in_features_, input.data(), weight_.value.data(),
                      out_.data(), tensor::gemm::Accumulate::kOverwrite);
  if (has_bias_) {
    for (int i = 0; i < n; ++i) {
      tensor::vec::add(
          out_.data() + static_cast<std::size_t>(i) * out_features_,
          bias_.value.data(),
                       static_cast<std::size_t>(out_features_));
    }
  }
  return out_;
}

const tensor::Tensor& Linear::backward(const tensor::Tensor& grad_output) {
  const int n = grad_output.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_features_ ||
      n != input_.dim(0)) {
    throw std::invalid_argument("Linear::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  // dW[out,in] += dy[N,out]^T * x[N,in] — accumulated straight into the
  // grad buffer (no temporary) via the GEMM's beta=1 mode.
  tensor::gemm::sgemm(tensor::gemm::Variant::kTN, out_features_, in_features_,
                      n, grad_output.data(), input_.data(),
                      weight_.grad.data(), tensor::gemm::Accumulate::kAdd);
  if (has_bias_) {
    for (int i = 0; i < n; ++i) {
      tensor::vec::add(bias_.grad.data(),
                       grad_output.data() + static_cast<std::size_t>(i) * out_features_,
                       static_cast<std::size_t>(out_features_));
    }
  }
  // dx[N,in] = dy[N,out] * W[out,in]
  dx_.resize({n, in_features_});
  tensor::gemm::sgemm(tensor::gemm::Variant::kNN, n, in_features_,
                      out_features_, grad_output.data(), weight_.value.data(),
                      dx_.data(), tensor::gemm::Accumulate::kOverwrite);
  return dx_;
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace fedsu::nn
