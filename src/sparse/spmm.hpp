// Format-specific SpMM kernels: Y[M×K] = A · X, with X (cols×K) and
// Y (rows×K) dense and row-major (the GNN/DNN serving layout — each
// sparse row gathers contiguous K-wide panels of X).
//
// Every kernel keeps its SpMV sibling's per-lane order: lane c of an
// output row sums the same products, in the same order, as spmv_* does on
// column c of X, starting from 0.0 with a multiply then an add. So,
// single-threaded, every lane at any K is bitwise that SpMV, K = 1
// included — the property test_spmm pins down. The lanes accumulate in
// register panels (spmm.cpp). The OpenMP decomposition is SpMV's: rows
// for CSR/ELL/DIA/BSR (SpMV takes ELL and DIA rows in blocks, SpMM one row
// at a time), nnz chunks for COO, tiles for CSR5. Sharing it keeps the
// relative format ranking comparable across the two ops while the K-fold
// reuse of index traffic shifts the crossover points (what makes op-aware
// selection worth a second label set).
#pragma once

#include <span>

#include "sparse/bsr.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr5.hpp"
#include "sparse/dia.hpp"
#include "sparse/ell.hpp"
#include "sparse/hyb.hpp"

namespace dnnspmv {

/// Dense reference Y = A·X without the format machinery (test oracle).
void spmm_reference(const Csr& a, std::span<const double> x,
                    std::span<double> y, index_t k);

void spmm_csr(const Csr& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_coo(const Coo& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_dia(const Dia& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_ell(const Ell& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_hyb(const Hyb& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_bsr(const Bsr& a, std::span<const double> x, std::span<double> y,
              index_t k);
void spmm_csr5(const Csr5& a, std::span<const double> x, std::span<double> y,
               index_t k);

}  // namespace dnnspmv
