#include "gen/dlmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace dnnspmv {
namespace {

// Layout of the cached-corpus file; bump when the entry encoding changes.
constexpr char kCorpusMagic[8] = {'D', 'N', 'S', 'P', 'C', 'O', 'R', 'P'};
constexpr std::uint32_t kCorpusVersion = 1;
// Magic, version and entry count.
constexpr std::uint64_t kFileHeaderBytes =
    sizeof(kCorpusMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);
// Class, rows, cols and nnz of one entry; the smallest entry (one row, no
// nonzeros) adds its two row pointers.
constexpr std::uint64_t kEntryHeaderBytes =
    sizeof(std::int32_t) + 2 * sizeof(index_t) + sizeof(std::int64_t);
constexpr std::uint64_t kMinEntryBytes =
    kEntryHeaderBytes + 2 * sizeof(std::int64_t);

index_t rand_dim(const DlmcSpec& spec, Rng& rng) {
  const double lo = std::log(static_cast<double>(spec.min_dim));
  const double hi = std::log(static_cast<double>(spec.max_dim));
  return static_cast<index_t>(std::exp(rng.uniform(lo, hi)));
}

template <typename T>
void write_pod(std::ofstream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::ifstream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(is);
}

// Reads `n` elements into `v` when the `left` bytes the file has not yet
// read can hold them; a count the file cannot back sizes nothing.
template <typename T>
bool read_vec(std::ifstream& is, std::uint64_t n, std::uint64_t& left,
              std::vector<T>* v) {
  if (n > left / sizeof(T)) return false;
  left -= n * sizeof(T);
  v->resize(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  return static_cast<bool>(is);
}

// Reads one cached entry; false on a short file, a field out of range or
// a matrix that fails Csr::validate().
bool read_entry(std::ifstream& is, std::uint64_t& left, CorpusEntry* e) {
  std::int32_t cls = 0;
  std::int64_t nnz = 0;
  Csr& a = e->matrix;
  if (!read_pod(is, &cls) || !read_pod(is, &a.rows) ||
      !read_pod(is, &a.cols) || !read_pod(is, &nnz) || cls < 0 ||
      cls >= kNumGenClasses || a.rows <= 0 || a.cols <= 0 || nnz < 0)
    return false;
  left -= kEntryHeaderBytes;
  e->gen_class = static_cast<GenClass>(cls);
  if (!read_vec(is, static_cast<std::uint64_t>(a.rows) + 1, left, &a.ptr) ||
      !read_vec(is, static_cast<std::uint64_t>(nnz), left, &a.idx) ||
      !read_vec(is, static_cast<std::uint64_t>(nnz), left, &a.val))
    return false;
  try {
    a.validate();
  } catch (const DnnspmvError&) {
    return false;
  }
  return true;
}

}  // namespace

Csr gen_pruned_random(index_t rows, index_t cols, double density, Rng& rng) {
  DNNSPMV_CHECK(rows > 0 && cols > 0 && density > 0.0 && density <= 1.0);
  std::vector<Triplet> ts;
  ts.reserve(static_cast<std::size_t>(density * rows * cols * 1.05));
  for (index_t r = 0; r < rows; ++r)
    for (index_t c = 0; c < cols; ++c)
      if (rng.bernoulli(density)) ts.push_back({r, c, rng.normal()});
  return csr_from_triplets(rows, cols, std::move(ts));
}

Csr gen_pruned_magnitude(index_t rows, index_t cols, double density,
                         Rng& rng) {
  DNNSPMV_CHECK(rows > 0 && cols > 0 && density > 0.0 && density <= 1.0);
  const std::size_t total =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  std::vector<double> w(total);
  for (double& v : w) v = rng.normal();
  // Global magnitude threshold: |w| of the keep-budget'th largest weight.
  const std::size_t keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(density * total)), 1, total);
  std::vector<double> mag(total);
  for (std::size_t i = 0; i < total; ++i) mag[i] = std::fabs(w[i]);
  std::nth_element(mag.begin(), mag.begin() + (keep - 1), mag.end(),
                   std::greater<double>());
  const double thresh = mag[keep - 1];
  std::vector<Triplet> ts;
  ts.reserve(keep);
  for (index_t r = 0; r < rows; ++r) {
    const double* wr = w.data() + static_cast<std::size_t>(r) * cols;
    for (index_t c = 0; c < cols; ++c)
      if (std::fabs(wr[c]) >= thresh) ts.push_back({r, c, wr[c]});
  }
  return csr_from_triplets(rows, cols, std::move(ts));
}

Csr gen_pruned_block(index_t rows, index_t cols, index_t block,
                     double density, Rng& rng) {
  DNNSPMV_CHECK(rows > 0 && cols > 0 && block >= 1 && density > 0.0 &&
                density <= 1.0);
  const index_t brows = (rows + block - 1) / block;
  const index_t bcols = (cols + block - 1) / block;
  const std::size_t ntiles =
      static_cast<std::size_t>(brows) * static_cast<std::size_t>(bcols);
  // Tile scores stand in for the L2 norm of each tile's weights; only the
  // top `density` fraction of tiles survives.
  std::vector<double> score(ntiles);
  for (double& s : score) s = rng.uniform();
  const std::size_t keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::llround(density * ntiles)), 1, ntiles);
  std::vector<double> sorted = score;
  std::nth_element(sorted.begin(), sorted.begin() + (keep - 1), sorted.end(),
                   std::greater<double>());
  const double thresh = sorted[keep - 1];
  std::vector<Triplet> ts;
  for (index_t br = 0; br < brows; ++br)
    for (index_t bc = 0; bc < bcols; ++bc) {
      if (score[static_cast<std::size_t>(br) * bcols + bc] < thresh) continue;
      for (index_t i = 0; i < block; ++i) {
        const index_t r = br * block + i;
        if (r >= rows) break;
        for (index_t j = 0; j < block; ++j) {
          const index_t c = bc * block + j;
          if (c >= cols) break;
          ts.push_back({r, c, rng.normal()});
        }
      }
    }
  return csr_from_triplets(rows, cols, std::move(ts));
}

std::vector<CorpusEntry> build_dlmc_corpus(const DlmcSpec& spec) {
  DNNSPMV_CHECK(spec.count > 0 && spec.min_dim >= 8 &&
                spec.max_dim >= spec.min_dim && !spec.densities.empty());
  Rng rng(spec.seed);
  std::vector<CorpusEntry> corpus;
  corpus.reserve(static_cast<std::size_t>(spec.count));
  for (std::int64_t i = 0; i < spec.count; ++i) {
    // Cycle the density grid so every density appears at every count; the
    // pruning method is sampled so the mix matches the collection's
    // random/magnitude-heavy skew.
    const double density =
        spec.densities[static_cast<std::size_t>(i) % spec.densities.size()];
    const index_t m = rand_dim(spec, rng);
    const index_t n = rand_dim(spec, rng);
    const double u = rng.uniform();
    if (u < 0.35) {
      corpus.push_back({gen_pruned_random(m, n, density, rng),
                        GenClass::kPrunedRandom});
    } else if (u < 0.70) {
      corpus.push_back({gen_pruned_magnitude(m, n, density, rng),
                        GenClass::kPrunedMagnitude});
    } else {
      const index_t block = rng.bernoulli(0.5) ? 4 : 8;
      corpus.push_back({gen_pruned_block(m, n, block, density, rng),
                        GenClass::kPrunedBlock});
    }
  }
  return corpus;
}

bool save_corpus(const std::string& path,
                 const std::vector<CorpusEntry>& corpus) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  os.write(kCorpusMagic, sizeof(kCorpusMagic));
  write_pod(os, kCorpusVersion);
  write_pod(os, static_cast<std::uint64_t>(corpus.size()));
  for (const CorpusEntry& e : corpus) {
    write_pod(os, static_cast<std::int32_t>(e.gen_class));
    write_pod(os, e.matrix.rows);
    write_pod(os, e.matrix.cols);
    write_pod(os, static_cast<std::int64_t>(e.matrix.idx.size()));
    os.write(reinterpret_cast<const char*>(e.matrix.ptr.data()),
             static_cast<std::streamsize>(e.matrix.ptr.size() *
                                          sizeof(std::int64_t)));
    os.write(reinterpret_cast<const char*>(e.matrix.idx.data()),
             static_cast<std::streamsize>(e.matrix.idx.size() *
                                          sizeof(index_t)));
    os.write(reinterpret_cast<const char*>(e.matrix.val.data()),
             static_cast<std::streamsize>(e.matrix.val.size() *
                                          sizeof(double)));
  }
  return static_cast<bool>(os);
}

bool load_corpus(const std::string& path, std::vector<CorpusEntry>* out) {
  out->clear();
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = is.tellg();  // -1 when the open failed
  if (size < 0) return false;
  is.seekg(0);
  char magic[sizeof(kCorpusMagic)];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kCorpusMagic, sizeof(magic)) != 0)
    return false;
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  if (!read_pod(is, &version) || version != kCorpusVersion ||
      !read_pod(is, &count))
    return false;
  std::uint64_t left = static_cast<std::uint64_t>(size) - kFileHeaderBytes;
  if (count > left / kMinEntryBytes) return false;
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CorpusEntry e;
    if (!read_entry(is, left, &e)) {
      out->clear();
      return false;
    }
    out->push_back(std::move(e));
  }
  return true;
}

}  // namespace dnnspmv
