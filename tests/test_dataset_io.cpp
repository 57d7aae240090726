#include "io/dataset.hpp"

#include <gtest/gtest.h>

namespace dnnspmv {
namespace {

Dataset make_dataset() {
  Dataset ds;
  ds.candidates = {Format::kCoo, Format::kCsr, Format::kDia, Format::kEll};
  for (int i = 0; i < 5; ++i) {
    Sample s;
    Tensor t1({4, 4}), t2({4, 4});
    for (std::int64_t j = 0; j < 16; ++j) {
      t1[j] = static_cast<float>(i + j);
      t2[j] = static_cast<float>(i * j);
    }
    s.inputs = {t1, t2};
    s.features = {1.0 * i, 2.0 * i, 3.0};
    s.format_times = {0.1, 0.2, 0.3, 0.4};
    s.label = i % 4;
    s.gen_class = i % 3;
    ds.samples.push_back(std::move(s));
  }
  return ds;
}

TEST(DatasetIo, LabelHistogram) {
  const Dataset ds = make_dataset();  // labels 0,1,2,3,0
  const auto h = ds.label_histogram();
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h[0], 2);
  EXPECT_EQ(h[1], 1);
  EXPECT_EQ(h[2], 1);
  EXPECT_EQ(h[3], 1);
}

TEST(DatasetIo, SubsetPicksIndices) {
  const Dataset ds = make_dataset();
  const Dataset sub = ds.subset({4, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.samples[0].label, ds.samples[4].label);
  EXPECT_EQ(sub.samples[1].label, ds.samples[0].label);
  EXPECT_EQ(sub.candidates, ds.candidates);
}

TEST(DatasetIo, SubsetRejectsBadIndex) {
  const Dataset ds = make_dataset();
  EXPECT_THROW(ds.subset({5}), std::runtime_error);
  EXPECT_THROW(ds.subset({-1}), std::runtime_error);
}

}  // namespace
}  // namespace dnnspmv
