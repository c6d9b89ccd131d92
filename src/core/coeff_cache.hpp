#pragma once
/// \file coeff_cache.hpp
/// Per-cell stencil coefficients for variable-velocity scenarios, with a
/// compacted per-row cache (docs/SCENARIOS.md).
///
/// For a spatially varying steady velocity c(x) the Lax-Wendroff tensor
/// product stays second order when the one-dimensional factors are formed
/// from the *midpoint-traced* velocity
///     c_hat(x) = c(x - c(x) dt / 2),   q_d = nu c_hat_d,
/// i.e. the velocity sampled halfway along the characteristic arriving at
/// the cell. The resulting update is exactly tri-quadratic interpolation of
/// the previous state at the midpoint-method foot of the characteristic —
/// a semi-Lagrangian step whose foot is O(dt^3)-accurate per step, hence
/// globally second order in the advective terms. For constant c the
/// midpoint shift is a no-op and `CoeffField::at` reproduces
/// `tensor_product_coeffs(base, nu)` bitwise — the constant case never
/// leaves the single-table fast path.
///
/// Both varying shapes are steady, so coefficients are built ONCE per run
/// (at plan-build time, satellite: no per-step or per-tile
/// tensor_product_coeffs work) into a CoeffCache: a pool of distinct
/// x-rows, deduplicated by the shape's row key — SolidBodyRotation varies
/// with (x, y) only, so rows repeat across k and the pool holds ny rows;
/// Deformational needs (j, k)-distinct rows.
///
/// Each cached row is stored *term-major*: coefficient t of cell i at
/// row[t*nx + i], so term t of adjacent cells is one contiguous vector load;
/// the rows start on a 64-byte boundary.
/// The consumer is the blocked row kernel `apply_stencil_var_row`
/// (stencil.hpp), which every path calls — reference loop, threaded row
/// sweeps, team stages, simulated-GPU kernel.
///
/// Bitwise contract: every cell's coefficients come from the same
/// `CoeffField::at`, and the row kernel's per-cell arithmetic is exactly
/// `stencil_var_point` (t = 0..26 in StencilCoeffs::index order into 0.0),
/// the reference the tests hold it to. Variable-coefficient runs are
/// therefore bitwise implementation-invariant exactly like the constant
/// path.

#include <cstdint>
#include <vector>

#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/rows.hpp"
#include "core/scenario.hpp"

namespace advect::core {

/// Pure per-cell coefficient evaluator: global index -> physical point ->
/// midpoint-traced velocity -> tensor-product coefficients. Trivially
/// copyable so simulated-GPU kernels capture it by value and reproduce the
/// cache's bits on device.
struct CoeffField {
    VelocityField vel{};
    double nu = 1.0;
    double delta = 1.0;

    [[nodiscard]] double dt() const { return nu * delta; }

    /// Coefficients for the cell at global index (gi, gj, gk).
    [[nodiscard]] StencilCoeffs at(int gi, int gj, int gk) const;
};

/// Compacted per-rank coefficient table: one term-major row of 27*nx doubles
/// per *distinct* x-row of the local block, with an index from (j, k) to the
/// shared row. Built once per rank at setup time.
class CoeffCache {
  public:
    CoeffCache() = default;
    /// Rows for a local block of extents `local` at global origin `origin`.
    CoeffCache(const CoeffField& cf, Extents3 local, Index3 origin);

    /// Coefficients of local row (j, k), term-major: term t (in
    /// StencilCoeffs::index order) of cell i at [t*term_stride() + i].
    [[nodiscard]] const double* row(int j, int k) const {
        return pool_.data() + base_ +
               static_cast<std::size_t>(row_id_[idx(j, k)]) * row_stride_;
    }
    [[nodiscard]] int nx() const { return nx_; }
    /// Distance between consecutive terms of one cell in a row (= nx).
    [[nodiscard]] std::ptrdiff_t term_stride() const { return nx_; }
    /// Number of distinct rows actually stored (compaction diagnostics).
    [[nodiscard]] std::size_t distinct_rows() const { return rows_; }

  private:
    [[nodiscard]] std::size_t idx(int j, int k) const {
        return static_cast<std::size_t>(k) * static_cast<std::size_t>(ny_) +
               static_cast<std::size_t>(j);
    }

    std::vector<double> pool_;          // distinct rows, back to back
    std::vector<std::int32_t> row_id_;  // (j, k) -> row index into pool_
    std::size_t row_stride_ = 0;        // doubles per row = 27 * nx
    std::size_t base_ = 0;  // offset of row 0 in pool_: a 64-byte boundary
                            // (a copy keeps the values, not the alignment)
    std::size_t rows_ = 0;  // distinct rows stored
    int nx_ = 0, ny_ = 0, nz_ = 0;
};

/// The variable-coefficient reference arithmetic: 27 products accumulated
/// into 0.0 in StencilCoeffs::index order (di fastest, dk slowest — the
/// same order as the constant-path stencil_point). `a` holds the cell's 27
/// coefficients contiguously, `c` points at the cell in the padded input
/// layout with row stride `sj` and plane stride `sk` doubles. The row
/// kernel apply_stencil_var_row must match it bit for bit per cell.
[[nodiscard]] inline double stencil_var_point(const double* a, const double* c,
                                              std::ptrdiff_t sj,
                                              std::ptrdiff_t sk) {
    double acc = 0.0;
    int t = 0;
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj) {
            const double* p = c + dj * sj + dk * sk;
            for (int di = -1; di <= 1; ++di, ++t) acc += a[t] * p[di];
        }
    return acc;
}

/// Variable-coefficient analogue of apply_stencil_rows: rows [lo, hi) of
/// `rows`, coefficients from `cache` (rows may start at xlo > 0; the cache
/// row is indexed by absolute local i).
void apply_stencil_var_rows(const CoeffCache& cache, const Field3& in,
                            Field3& out, const RowSpace& rows,
                            std::int64_t lo, std::int64_t hi);

}  // namespace advect::core
