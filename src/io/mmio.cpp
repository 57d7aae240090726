#include "io/mmio.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace dnnspmv {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Parse failures carry errc::parse_error plus the 1-based line of the
// *input* where parsing stopped, so a bad entry in a million-line .mtx
// file is findable without a debugger.
[[noreturn]] void fail_parse(std::int64_t line_no, const std::string& what) {
  throw DnnspmvError(errc::parse_error,
                     "MatrixMarket parse error at line " +
                         std::to_string(line_no) + ": " + what);
}

}  // namespace

Csr read_matrix_market(std::istream& is) {
  std::string line;
  std::int64_t line_no = 0;
  if (!std::getline(is, line)) fail_parse(1, "empty MatrixMarket stream");
  ++line_no;
  std::istringstream header(line);
  std::string banner, object, fmt, field, symmetry;
  header >> banner >> object >> fmt >> field >> symmetry;
  if (banner != "%%MatrixMarket")
    fail_parse(line_no, "missing MatrixMarket banner");
  object = lower(object);
  fmt = lower(fmt);
  field = lower(field);
  symmetry = lower(symmetry);
  if (object != "matrix") fail_parse(line_no, "unsupported object: " + object);
  if (fmt != "coordinate")
    fail_parse(line_no, "only coordinate format supported");
  if (field != "real" && field != "integer" && field != "pattern")
    fail_parse(line_no, "unsupported field: " + field);
  if (symmetry != "general" && symmetry != "symmetric" &&
      symmetry != "skew-symmetric")
    fail_parse(line_no, "unsupported symmetry: " + symmetry);
  const bool pattern = field == "pattern";
  const bool sym = symmetry == "symmetric";
  const bool skew = symmetry == "skew-symmetric";

  // Skip comments; first non-comment line is the size line.
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  std::int64_t rows = 0, cols = 0, entries = 0;
  size_line >> rows >> cols >> entries;
  constexpr std::int64_t kMaxDim = std::numeric_limits<index_t>::max();
  if (!(rows > 0 && cols > 0 && entries >= 0 && rows <= kMaxDim &&
        cols <= kMaxDim))
    fail_parse(line_no, "bad size line: '" + line + "'");

  // Grows with the entries actually read: the header's count sizes
  // nothing, so a header that overstates it fails as truncated data.
  std::vector<Triplet> ts;
  for (std::int64_t k = 0; k < entries; ++k) {
    if (!std::getline(is, line))
      fail_parse(line_no, "truncated data: expected " +
                              std::to_string(entries) + " entries, got " +
                              std::to_string(k));
    ++line_no;
    std::istringstream e(line);
    std::int64_t r = 0, c = 0;
    double v = 1.0;
    e >> r >> c;
    if (!pattern) e >> v;
    if (e.fail()) fail_parse(line_no, "unparseable entry: '" + line + "'");
    if (!(r >= 1 && r <= rows && c >= 1 && c <= cols))
      fail_parse(line_no, "entry (" + std::to_string(r) + "," +
                              std::to_string(c) + ") out of bounds for " +
                              std::to_string(rows) + "x" +
                              std::to_string(cols));
    const auto ri = static_cast<index_t>(r - 1);
    const auto ci = static_cast<index_t>(c - 1);
    ts.push_back({ri, ci, v});
    if ((sym || skew) && ri != ci) ts.push_back({ci, ri, skew ? -v : v});
  }
  return csr_from_triplets(static_cast<index_t>(rows),
                           static_cast<index_t>(cols), std::move(ts));
}

Csr read_matrix_market_file(const std::string& path) {
  std::ifstream is(path);
  DNNSPMV_CHECK_ERRC(is.is_open(), errc::io_error, "cannot open " << path);
  try {
    return read_matrix_market(is);
  } catch (const DnnspmvError& e) {
    // Re-tag with the path so the message is self-contained:
    // "<path>: MatrixMarket parse error at line N: ...".
    throw DnnspmvError(e.code(), path + ": " + e.what());
  }
}

void write_matrix_market(std::ostream& os, const Csr& a) {
  os.precision(17);  // round-trip exact doubles
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << a.rows << ' ' << a.cols << ' ' << a.nnz() << '\n';
  for (index_t r = 0; r < a.rows; ++r)
    for (std::int64_t j = a.ptr[r]; j < a.ptr[r + 1]; ++j)
      os << (r + 1) << ' ' << (a.idx[j] + 1) << ' ' << a.val[j] << '\n';
  DNNSPMV_CHECK_ERRC(os.good(), errc::io_error, "MatrixMarket write failed");
}

void write_matrix_market_file(const std::string& path, const Csr& a) {
  std::ofstream os(path);
  DNNSPMV_CHECK_ERRC(os.is_open(), errc::io_error,
                     "cannot open " << path << " for write");
  write_matrix_market(os, a);
}

}  // namespace dnnspmv
