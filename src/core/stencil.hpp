#pragma once
/// \file stencil.hpp
/// Application of the 27-point Lax-Wendroff stencil (Equation 2) over
/// sub-regions of a halo-padded field. All implementations in the paper —
/// bulk-synchronous, interior/boundary partitioned, GPU-tiled — reduce to
/// applying this same update over different Range3 partitions, so keeping a
/// single kernel here guarantees bitwise-identical arithmetic everywhere.

#include "core/coefficients.hpp"
#include "core/field.hpp"

namespace advect::core {

/// Apply Equation 2 over the half-open region `r` (which must lie within the
/// interior of `in`): out(p) = sum_{dk,dj,di} a(di,dj,dk) * in(p + d).
/// The summation order is fixed (dk outer, di inner) so every code path in
/// advectlab produces bitwise-identical results.
void apply_stencil(const StencilCoeffs& a, const Field3& in, Field3& out,
                   const Range3& r);

/// Convenience: apply over the whole interior.
void apply_stencil(const StencilCoeffs& a, const Field3& in, Field3& out);

/// Single-point update: the *reference* arithmetic every fast path must
/// bitwise-match (dk outer, dj middle, di inner, accumulated into 0.0).
[[nodiscard]] double stencil_point(const StencilCoeffs& a, const Field3& in,
                                   int i, int j, int k);

/// Precomputed fast path for the 27-point kernel on a fixed storage layout:
/// the 27 linear offsets of the neighbourhood, each paired with its
/// coefficient, stored in the exact summation order of `stencil_point`
/// (dk outer, dj middle, di inner — which is also the `StencilCoeffs::index`
/// flattening). Build once per field shape; the raw-pointer row kernel then
/// runs with no per-access index arithmetic.
///
/// `make` drops zero coefficients, keeping the surviving terms in reference
/// order and setting `terms` to their count; the kernels sum only those.
/// For finite field values this is *bitwise*-identical to the full sum: the
/// running sum starts at +0.0 and can never become -0.0 (x + (-x) rounds to
/// +0.0, and +0.0 + ±0.0 = +0.0), and adding the skipped ±0.0 products to
/// +0.0 or to a nonzero changes no bit. Degenerate advection coefficients
/// (Courant-1 tensor factors) zero out most of the 27 terms, so the sweep
/// drops from compute-bound to its memory floor — the regime the temporal
/// blocking of docs/PERF.md is built for.
struct StencilPlan {
    std::array<double, 27> coeff{};
    std::array<std::ptrdiff_t, 27> offset{};
    int terms = 27;  ///< leading entries with nonzero coefficients

    /// Plan for a layout with the given strides (in doubles): consecutive
    /// j rows `x_stride` apart, consecutive k planes `xy_stride` apart.
    [[nodiscard]] static StencilPlan make(const StencilCoeffs& a,
                                          std::ptrdiff_t x_stride,
                                          std::ptrdiff_t xy_stride);
    /// Plan whose dk = -1, 0, +1 planes sit `plane[dk + 1]` doubles from
    /// the centre point's plane: any three planes, such as the rotating
    /// shared-memory tile planes of the simulated device.
    [[nodiscard]] static StencilPlan make(
        const StencilCoeffs& a, std::ptrdiff_t x_stride,
        const std::array<std::ptrdiff_t, 3>& plane);
    /// Plan for the padded layout of `shape`.
    [[nodiscard]] static StencilPlan make(const StencilCoeffs& a,
                                          const Field3& shape);
};

/// Apply the planned stencil to one x-contiguous row of `n` points: for each
/// x in [0, n), out[x] = sum_t coeff[t] * in[x + offset[t]] accumulated in
/// plan order starting from 0.0 — bitwise-identical to `stencil_point`.
/// `in` points at the *centre* of the first point's neighbourhood. The rows
/// must not overlap (in practice `in` and `out` are distinct fields, or a
/// shared-memory tile and global memory on the simulated GPU).
void apply_stencil_row_ptr(const StencilPlan& plan, const double* in,
                           double* out, int n);

/// The same row kernel over `rows` consecutive rows whose sources advance by
/// `in_stride` and destinations by `out_stride` doubles per row: one
/// dispatch per tile plane instead of one indirect call per row, with the
/// plan loads hoisted out of the row loop. Row r is bitwise-identical to
/// apply_stencil_row_ptr(plan, in + r*in_stride, out + r*out_stride, n);
/// used by the fused tile engine, whose ring slabs make the strides uniform.
void apply_stencil_plane_ptr(const StencilPlan& plan, const double* in,
                             double* out, int n, int rows,
                             std::ptrdiff_t in_stride,
                             std::ptrdiff_t out_stride);

/// Fused register chain for single-term plans (`plan.terms == 1`, e.g. the
/// Courant-1 tensor coefficients): `depth` successive applications of a
/// one-term stencil form a pure per-point dependency chain, so the whole
/// temporal-blocking pyramid collapses to a line held in registers. Point x
/// of row r computes exactly the level sequence
///     s_1 = 0.0 + c * in[r*in_stride + x + depth*offset[0]],
///     s_t = 0.0 + c * s_{t-1},   out[r*out_stride + x] = s_depth,
/// bitwise-identical to `depth` separate sweeps, with no intermediate
/// traffic at all. `in` needs `depth` ghost layers around the output region.
void apply_stencil_chain_ptr(const StencilPlan& plan, int depth,
                             const double* in, double* out, int n, int rows,
                             std::ptrdiff_t in_stride,
                             std::ptrdiff_t out_stride);

/// Variable-coefficient row kernel: for each x in [0, n), out[x] = the 27
/// products coeff[t*term_stride + x] * in[x + d_t] accumulated into 0.0 in
/// StencilCoeffs::index order, where d_t = di + dj*sj + dk*sk —
/// bitwise-identical to core::stencil_var_point (coeff_cache.hpp) per cell.
/// The coefficients are term-major (CoeffCache's row layout): term t of the
/// n cells is contiguous. `in` points at the first cell in a padded layout
/// with row stride `sj` and plane stride `sk` doubles. Same blocking, clones
/// and load-time dispatch as apply_stencil_row_ptr.
void apply_stencil_var_row(const double* coeff, std::ptrdiff_t term_stride,
                           const double* in, double* out, int n,
                           std::ptrdiff_t sj, std::ptrdiff_t sk);

namespace detail {

/// Portable baseline build of the row kernel — always available, and the
/// bitwise reference the vector clone must match (see stencil_row_v3.cpp).
/// Exposed so tests can pit it against the dispatched fast path.
void apply_stencil_row_portable(const StencilPlan& plan,
                                const double* __restrict__ in,
                                double* __restrict__ out, int n);

/// Portable baseline build of apply_stencil_var_row, for the same tests.
void apply_stencil_var_row_portable(const double* __restrict__ coeff,
                                    std::ptrdiff_t term_stride,
                                    const double* __restrict__ in,
                                    double* __restrict__ out, int n,
                                    std::ptrdiff_t sj, std::ptrdiff_t sk);

/// True when apply_stencil_row_ptr dispatches to the AVX2 clone on this
/// host (clone built in AND CPU supports it); false means the dispatched
/// path *is* the portable baseline.
[[nodiscard]] bool row_kernel_is_vectorized();

}  // namespace detail

/// Partition of a local domain into boundary shell and interior used by the
/// overlap implementations (paper §IV-C, §IV-D): boundary points are those
/// within `depth` of a halo point; interior points are the rest. Depth is 1
/// for single-step plans and the fuse factor F for temporal-blocking plans
/// (a point s steps of fused work away from the halo needs s ghost layers).
struct InteriorBoundary {
    /// The deep-interior box [d, n-d)^3 (empty if any extent < 2d+1).
    Range3 interior;
    /// Up to 6 disjoint slabs covering the depth-d boundary shell.
    /// Listed z-low, z-high, y-low, y-high, x-low, x-high; empty slabs are
    /// omitted.
    std::vector<Range3> boundary;
};

/// Compute the interior/boundary partition of extents `n` at `depth`.
[[nodiscard]] InteriorBoundary partition_interior_boundary(const Extents3& n,
                                                           int depth = 1);

/// Split `r` into `parts` roughly equal slabs along the z dimension
/// (paper §IV-C splits the interior into thirds along z). Slabs may be empty
/// when r is thin; non-empty slabs differ in z-extent by at most 1.
[[nodiscard]] std::vector<Range3> split_z(const Range3& r, int parts);

/// Split `r` into `parts` near-equal pieces at x-row granularity (rows in
/// (z, y) order), each piece a list of up to three disjoint boxes: a partial
/// leading plane, a run of whole planes, a partial trailing plane. Pieces
/// differ by at most one row, so §IV-C's "one third of the interior" stays
/// balanced even on plane-thin subdomains where split_z cannot be. Pieces
/// may be empty (no boxes) when r has fewer rows than parts.
[[nodiscard]] std::vector<std::vector<Range3>> split_rows(const Range3& r,
                                                          int parts);

}  // namespace advect::core
