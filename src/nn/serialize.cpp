#include "nn/serialize.hpp"

#include <cstring>

namespace dnnspmv {
namespace {

constexpr char kMagic[8] = {'D', 'N', 'N', 'S', 'P', 'M', 'V', '1'};

}  // namespace

void save_params(std::ostream& os, const std::vector<Param*>& params) {
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, static_cast<std::uint64_t>(params.size()));
  for (const Param* p : params) {
    write_pod(os, static_cast<std::uint32_t>(p->value.rank()));
    for (auto d : p->value.shape()) write_pod(os, static_cast<std::int64_t>(d));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  DNNSPMV_CHECK_MSG(os.good(), "model write failed");
}

void load_params(std::istream& is, const std::vector<Param*>& params) {
  char magic[8];
  is.read(magic, sizeof(magic));
  DNNSPMV_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, 8) == 0,
                    "bad model file magic");
  std::uint64_t n = 0;
  read_pod(is, n);
  DNNSPMV_CHECK_MSG(n == params.size(), "model has " << n << " params, net has "
                                                     << params.size());
  for (Param* p : params) {
    std::uint32_t rank = 0;
    read_pod(is, rank);
    DNNSPMV_CHECK_MSG(rank == p->value.rank(),
                      "rank mismatch loading param " << p->name);
    std::vector<std::int64_t> shape(rank);
    for (auto& d : shape) read_pod(is, d);
    DNNSPMV_CHECK_MSG(shape == p->value.shape(),
                      "shape mismatch loading param " << p->name);
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
    DNNSPMV_CHECK_MSG(is.good(), "truncated model file");
  }
}

void copy_params(const std::vector<Param*>& src,
                 const std::vector<Param*>& dst) {
  DNNSPMV_CHECK(src.size() == dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    DNNSPMV_CHECK_MSG(src[i]->value.shape() == dst[i]->value.shape(),
                      "copy_params shape mismatch at " << i);
    dst[i]->value = src[i]->value;
  }
}

}  // namespace dnnspmv
