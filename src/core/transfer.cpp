#include "core/transfer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/serialize.hpp"

namespace dnnspmv {

std::string migration_method_name(MigrationMethod m) {
  switch (m) {
    case MigrationMethod::kFromScratch: return "from-scratch";
    case MigrationMethod::kContinuous: return "continuous-evolvement";
    case MigrationMethod::kTopEvolve: return "top-evolvement";
  }
  DNNSPMV_CHECK_MSG(false, "invalid MigrationMethod");
}

MergeNet migrate_model(const CnnSpec& spec, MergeNet& source_model,
                       MigrationMethod method, const Dataset& target_train,
                       const TrainConfig& cfg, std::size_t head) {
  DNNSPMV_CHECK_MSG(head <= source_model.num_heads(),
                    "head " << head << " would leave a gap after the source's "
                            << source_model.num_heads() << " heads");
  const std::size_t num_heads = std::max(source_model.num_heads(), head + 1);
  DNNSPMV_CHECK_ERRC(
      method == MigrationMethod::kTopEvolve || num_heads == 1,
      errc::invalid_argument,
      migration_method_name(method)
          << " retrains the towers, which would silently invalidate the "
             "source's other heads; only top evolvement keeps them");
  MergeNet model = build_cnn(spec, num_heads);
  if (method != MigrationMethod::kFromScratch) {
    for (std::size_t t = 0; t < model.num_towers(); ++t)
      copy_params(source_model.tower(t).params(), model.tower(t).params());
    for (std::size_t h = 0; h < source_model.num_heads(); ++h)
      copy_params(source_model.head_params(h), model.head_params(h));
  }
  if (method == MigrationMethod::kTopEvolve)
    model.freeze_towers(head);
  else
    model.unfreeze_all();
  if (!target_train.samples.empty())
    train_cnn(model, target_train, num_net_inputs(spec), cfg, head);
  return model;
}

}  // namespace dnnspmv
