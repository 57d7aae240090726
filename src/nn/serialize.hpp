// Binary weight (de)serialization.
//
// Weights are written in parameter-walk order with shapes, so a file can be
// loaded back into any network with an identical architecture — including a
// freshly constructed one on another "machine", which is what the transfer-
// learning migration drivers do.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "nn/layer.hpp"

namespace dnnspmv {

/// Raw POD field I/O for the weight-file writers (params, int8 weight set,
/// selector options). read_pod throws errc::data_error when the stream
/// runs out.
template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  DNNSPMV_CHECK_MSG(is.good(), "truncated weight file");
}

void save_params(std::ostream& os, const std::vector<Param*>& params);
void load_params(std::istream& is, const std::vector<Param*>& params);

/// Copies values (not gradients) from src into dst; shapes must match
/// pairwise. Used to warm-start "continuous evolvement".
void copy_params(const std::vector<Param*>& src,
                 const std::vector<Param*>& dst);

}  // namespace dnnspmv
