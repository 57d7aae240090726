// DLMC-style pruned-weight generators (gen/dlmc.hpp): density accuracy per
// pruning method, block structure, corpus composition, and the binary
// corpus cache round trip (including corrupt-file rejection — CI trusts
// load_corpus to fail closed on a bad cache hit).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gen/dlmc.hpp"
#include "sparse/csr.hpp"

namespace dnnspmv {
namespace {

double density_of(const Csr& a) {
  return static_cast<double>(a.nnz()) /
         (static_cast<double>(a.rows) * static_cast<double>(a.cols));
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DlmcGen, RandomPruningHitsTargetDensity) {
  Rng rng(42);
  for (const double d : {0.5, 0.2, 0.05}) {
    const Csr a = gen_pruned_random(256, 256, d, rng);
    a.validate();
    // i.i.d. Bernoulli over 65536 cells: ±3 sigma is well under 0.01.
    EXPECT_NEAR(density_of(a), d, 0.01) << "target " << d;
  }
}

TEST(DlmcGen, MagnitudePruningKeepsTopFraction) {
  Rng rng(7);
  const Csr a = gen_pruned_magnitude(200, 300, 0.1, rng);
  a.validate();
  // Threshold selection keeps the top-|w| fraction near-exactly.
  EXPECT_NEAR(density_of(a), 0.1, 0.005);
  // Magnitude pruning survivors are the large weights: nothing tiny stays.
  double min_abs = 1e30;
  for (const double v : a.val) min_abs = std::min(min_abs, std::fabs(v));
  EXPECT_GT(min_abs, 0.0);
}

TEST(DlmcGen, BlockPruningProducesDenseTiles) {
  Rng rng(9);
  const index_t block = 4;
  const Csr a = gen_pruned_block(128, 128, block, 0.2, rng);
  a.validate();
  // Kept tiles are fully dense, so nnz is a multiple of block².
  EXPECT_EQ(0, a.nnz() % (block * block));
  EXPECT_NEAR(density_of(a), 0.2, 0.05);
  // Every row of a kept tile has the same support pattern as the tile: row
  // lengths come in multiples of the block width.
  for (index_t i = 0; i < a.rows; ++i)
    EXPECT_EQ(0, (a.ptr[static_cast<std::size_t>(i) + 1] -
                  a.ptr[static_cast<std::size_t>(i)]) %
                     block)
        << "row " << i;
}

TEST(DlmcGen, GenClassNames) {
  EXPECT_EQ("pruned_random", gen_class_name(GenClass::kPrunedRandom));
  EXPECT_EQ("pruned_magnitude", gen_class_name(GenClass::kPrunedMagnitude));
  EXPECT_EQ("pruned_block", gen_class_name(GenClass::kPrunedBlock));
}

TEST(DlmcGen, CorpusCoversMethodsAndDensities) {
  DlmcSpec spec;
  spec.count = 60;
  spec.min_dim = 64;
  spec.max_dim = 128;
  const std::vector<CorpusEntry> corpus = build_dlmc_corpus(spec);
  ASSERT_EQ(60u, corpus.size());
  std::int64_t n_random = 0, n_magnitude = 0, n_block = 0;
  for (const CorpusEntry& e : corpus) {
    e.matrix.validate();
    EXPECT_GE(e.matrix.rows, spec.min_dim);
    EXPECT_LE(e.matrix.rows, spec.max_dim);
    switch (e.gen_class) {
      case GenClass::kPrunedRandom: ++n_random; break;
      case GenClass::kPrunedMagnitude: ++n_magnitude; break;
      case GenClass::kPrunedBlock: ++n_block; break;
      default: FAIL() << "unexpected class in DLMC corpus";
    }
  }
  EXPECT_GT(n_random, 0);
  EXPECT_GT(n_magnitude, 0);
  EXPECT_GT(n_block, 0);
}

TEST(DlmcGen, CorpusIsSeedDeterministic) {
  DlmcSpec spec;
  spec.count = 12;
  spec.min_dim = 64;
  spec.max_dim = 96;
  const auto a = build_dlmc_corpus(spec);
  const auto b = build_dlmc_corpus(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].gen_class, b[i].gen_class);
    EXPECT_TRUE(csr_equal(a[i].matrix, b[i].matrix, 0.0)) << "entry " << i;
  }
}

TEST(DlmcGen, CorpusCacheRoundTrips) {
  DlmcSpec spec;
  spec.count = 10;
  spec.min_dim = 64;
  spec.max_dim = 96;
  const std::vector<CorpusEntry> corpus = build_dlmc_corpus(spec);
  const std::string path = temp_path("dlmc_cache.bin");
  ASSERT_TRUE(save_corpus(path, corpus));
  std::vector<CorpusEntry> loaded;
  ASSERT_TRUE(load_corpus(path, &loaded));
  ASSERT_EQ(corpus.size(), loaded.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(corpus[i].gen_class, loaded[i].gen_class);
    EXPECT_TRUE(csr_equal(corpus[i].matrix, loaded[i].matrix, 0.0))
        << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST(DlmcGen, LoadRejectsMissingAndCorruptFiles) {
  std::vector<CorpusEntry> out;
  EXPECT_FALSE(load_corpus(temp_path("does_not_exist.bin"), &out));
  EXPECT_TRUE(out.empty());

  // Wrong magic.
  const std::string garbage = temp_path("dlmc_garbage.bin");
  {
    std::ofstream f(garbage, std::ios::binary);
    f << "this is not a corpus cache at all";
  }
  EXPECT_FALSE(load_corpus(garbage, &out));
  EXPECT_TRUE(out.empty());
  std::remove(garbage.c_str());

  // Valid header, truncated payload.
  DlmcSpec spec;
  spec.count = 4;
  spec.min_dim = 64;
  spec.max_dim = 96;
  const std::string truncated = temp_path("dlmc_truncated.bin");
  ASSERT_TRUE(save_corpus(truncated, build_dlmc_corpus(spec)));
  {
    std::ifstream in(truncated, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 40u);
    bytes.resize(bytes.size() / 2);
    std::ofstream outf(truncated, std::ios::binary | std::ios::trunc);
    outf.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(load_corpus(truncated, &out));
  EXPECT_TRUE(out.empty());
  std::remove(truncated.c_str());
}

TEST(DlmcGen, LoadRejectsCountsTheFileCannotHold) {
  DlmcSpec spec;
  spec.count = 2;
  spec.min_dim = 64;
  spec.max_dim = 96;
  const std::string path = temp_path("dlmc_counts.bin");
  ASSERT_TRUE(save_corpus(path, build_dlmc_corpus(spec)));
  const std::string bytes = read_bytes(path);
  // The entry count follows the 8-byte magic and the 4-byte version; the
  // first entry's nnz follows the 20-byte file header and its class, rows
  // and cols. A count this large must fail the load, not the allocator.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  for (const std::size_t offset : {std::size_t{12}, std::size_t{32}}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + offset, &huge, sizeof(huge));
    write_bytes(path, corrupt);
    std::vector<CorpusEntry> out;
    EXPECT_FALSE(load_corpus(path, &out)) << "count at byte " << offset;
    EXPECT_TRUE(out.empty());
  }
  std::remove(path.c_str());
}

TEST(DlmcGen, LoadRejectsMatricesThatFailValidation) {
  // save_corpus writes what it is given; load must not hand a matrix that
  // indexes out of bounds to the kernels.
  Csr decreasing_ptr;
  decreasing_ptr.rows = 3;
  decreasing_ptr.cols = 3;
  decreasing_ptr.ptr = {0, 2, 1, 2};
  decreasing_ptr.idx = {0, 1};
  decreasing_ptr.val = {1.0, 1.0};
  Csr column_out_of_range;
  column_out_of_range.rows = 2;
  column_out_of_range.cols = 2;
  column_out_of_range.ptr = {0, 1, 2};
  column_out_of_range.idx = {0, 5};
  column_out_of_range.val = {1.0, 1.0};
  const std::string path = temp_path("dlmc_invalid.bin");
  for (const Csr& bad : {decreasing_ptr, column_out_of_range}) {
    ASSERT_TRUE(save_corpus(path, {{bad, GenClass::kPrunedRandom}}));
    std::vector<CorpusEntry> out;
    EXPECT_FALSE(load_corpus(path, &out));
    EXPECT_TRUE(out.empty());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dnnspmv
