#include "io/mmio.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "gen/generators.hpp"

namespace dnnspmv {
namespace {

TEST(Mmio, ParsesGeneralRealCoordinate) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment line\n"
      "3 4 3\n"
      "1 1 2.5\n"
      "2 4 -1.0\n"
      "3 2 7\n");
  const Csr m = read_matrix_market(is);
  m.validate();
  EXPECT_EQ(m.rows, 3);
  EXPECT_EQ(m.cols, 4);
  EXPECT_EQ(m.nnz(), 3);
  std::vector<double> x = {1, 0, 0, 0}, y(3, 0.0);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
}

TEST(Mmio, PatternEntriesGetValueOne) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const Csr m = read_matrix_market(is);
  EXPECT_DOUBLE_EQ(m.val[0], 1.0);
  EXPECT_DOUBLE_EQ(m.val[1], 1.0);
}

TEST(Mmio, SymmetricMirrorsOffDiagonal) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 1.0\n"
      "2 1 5.0\n"
      "3 2 6.0\n");
  const Csr m = read_matrix_market(is);
  EXPECT_EQ(m.nnz(), 5);  // diagonal stays single, off-diag mirrored
  std::vector<double> x = {0, 1, 0}, y(3, 0.0);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);  // mirrored (1,2) entry
  EXPECT_DOUBLE_EQ(y[2], 6.0);
}

TEST(Mmio, SkewSymmetricNegatesMirror) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const Csr m = read_matrix_market(is);
  EXPECT_EQ(m.nnz(), 2);
  std::vector<double> x = {0, 1}, y(2, 0.0);
  spmv_reference(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], -3.0);
}

TEST(Mmio, IntegerFieldAccepted) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "1 2 42\n");
  const Csr m = read_matrix_market(is);
  EXPECT_DOUBLE_EQ(m.val[0], 42.0);
}

TEST(Mmio, RejectsMissingBanner) {
  std::istringstream is("3 3 0\n");
  EXPECT_THROW(read_matrix_market(is), std::runtime_error);
}

TEST(Mmio, RejectsArrayFormat) {
  std::istringstream is("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(read_matrix_market(is), std::runtime_error);
}

TEST(Mmio, RejectsOutOfBoundsEntry) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), std::runtime_error);
}

TEST(Mmio, RejectsTruncatedData) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), std::runtime_error);
}

TEST(Mmio, HeaderCountsSizeNothing) {
  // A header claiming 10^12 entries fails as truncated data, not in the
  // allocator; dimensions beyond the index type fail at the size line.
  for (const char* size_line : {"2 2 1000000000000", "3000000000 2 1"}) {
    std::istringstream is(
        std::string("%%MatrixMarket matrix coordinate real general\n") +
        size_line + "\n1 1 1.0\n");
    try {
      read_matrix_market(is);
      ADD_FAILURE() << size_line << " parsed";
    } catch (const DnnspmvError& e) {
      EXPECT_EQ(e.code(), errc::parse_error) << size_line;
    }
  }
}

TEST(Mmio, ParseErrorsCarryLineAndFileContext) {
  // Bad entry on line 3 of the stream → typed parse_error naming the line.
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  try {
    read_matrix_market(is);
    FAIL() << "expected DnnspmvError";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::parse_error);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }

  // The file wrapper prepends the path so batch ingest logs are actionable.
  const std::string path = ::testing::TempDir() + "/mmio_bad.mtx";
  {
    std::ofstream os(path);
    os << "%%MatrixMarket matrix coordinate real general\n"
          "2 2 1\n"
          "1 oops 1.0\n";
  }
  try {
    read_matrix_market_file(path);
    FAIL() << "expected DnnspmvError";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::parse_error);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }

  try {
    read_matrix_market_file("/nonexistent/x.mtx");
    FAIL() << "expected DnnspmvError";
  } catch (const DnnspmvError& e) {
    EXPECT_EQ(e.code(), errc::io_error);
  }
}

TEST(Mmio, WriteReadRoundTrip) {
  Rng rng(42);
  const Csr a = gen_powerlaw(30, 25, 4.0, 1.7, rng);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const Csr b = read_matrix_market(ss);
  EXPECT_TRUE(csr_equal(a, b, 1e-12));
}

TEST(Mmio, FileRoundTrip) {
  Rng rng(43);
  const Csr a = gen_banded(20, 20, 2, 0.9, rng);
  const std::string path = ::testing::TempDir() + "/mmio_rt.mtx";
  write_matrix_market_file(path, a);
  const Csr b = read_matrix_market_file(path);
  EXPECT_TRUE(csr_equal(a, b, 1e-12));
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/nonexistent/x.mtx"),
               std::runtime_error);
}

}  // namespace
}  // namespace dnnspmv
