/// \file test_stencil_parity.cpp
/// Bitwise parity of the stencil row-kernel builds. The library ships one
/// kernel body compiled twice — a portable baseline and an AVX2 clone picked
/// at load time (src/core/stencil.cpp) — and the whole codebase leans on the
/// guarantee that every clone, and every blocked/remainder path inside a
/// clone, matches core::stencil_point (constant coefficients) and
/// core::stencil_var_point (per-cell coefficients) bit for bit. These tests
/// force the portable build against the dispatched fast path on identical
/// inputs and memcmp the raw bytes, across every row length from 1 to 136:
/// the 32-point blocks, the overlapped final 32-point block, the 8-point
/// blocks, the overlapped final 8-point block, the scalar remainder, and
/// each seam between them. Guard cells around every output row prove that
/// no store leaves the row.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "core/coeff_cache.hpp"
#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/scenario.hpp"
#include "core/stencil.hpp"

namespace core = advect::core;

namespace {

core::StencilCoeffs test_coeffs() {
    // Realistic magnitudes with no special structure: results depend on
    // every one of the 27 terms, so a reordered accumulation shows up.
    core::StencilCoeffs a;
    std::mt19937 rng(2011);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (auto& c : a.a) c = d(rng);
    return a;
}

core::Field3 random_field(core::Extents3 n, std::uint32_t seed) {
    core::Field3 f(n);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-10.0, 10.0);
    // Fill halo too: row kernels read the full neighbourhood.
    for (int k = -1; k <= n.nz; ++k)
        for (int j = -1; j <= n.ny; ++j)
            for (int i = -1; i <= n.nx; ++i) *f.ptr(i, j, k) = d(rng);
    return f;
}

/// Longest row the sweeps test: four full 32-point blocks and a remainder.
constexpr int kMaxLen = 136;

/// Row lengths 1..136: every split into 32-point blocks, an overlapped final
/// 32-point block, 8-point blocks, an overlapped final 8-point block and a
/// scalar tail up to four full wide blocks, including the seams 31/32/33,
/// 39/40/41, 55/56/57, 63/64/65 and the paper sweep's 126/128/130.
std::vector<int> row_lengths() {
    std::vector<int> v;
    for (int len = 1; len <= kMaxLen; ++len) v.push_back(len);
    return v;
}

bool same_bytes(const double* a, const double* b, int n) {
    return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(double)) ==
           0;
}

/// An output row of `len` points with kGuardCells sentinel cells on both
/// sides; row() is where the kernel writes.
constexpr int kGuardCells = 8;
struct GuardedRow {
    std::vector<double> buf;
    double fill;
    GuardedRow(int len, double v)
        : buf(static_cast<std::size_t>(len + 2 * kGuardCells), v), fill(v) {}
    double* row() { return buf.data() + kGuardCells; }
    /// True when every guard cell still holds the fill value.
    [[nodiscard]] bool guards_intact() const {
        const std::size_t n = buf.size();
        for (std::size_t g = 0; g < kGuardCells; ++g)
            if (buf[g] != fill || buf[n - 1 - g] != fill) return false;
        return true;
    }
};

}  // namespace

TEST(StencilParity, DispatchedRowMatchesPortableBitwise) {
    // Every blocked/remainder split up to 136.
    const core::Extents3 n{kMaxLen + 8, 3, 3};
    const auto a = test_coeffs();
    const auto in = random_field(n, 77);
    const auto plan = core::StencilPlan::make(a, in);

    SCOPED_TRACE(core::detail::row_kernel_is_vectorized()
                     ? "dispatched path: AVX2 clone"
                     : "dispatched path: portable baseline");

    for (int len : row_lengths()) {
        GuardedRow fast(len, -1.0);
        GuardedRow portable(len, -2.0);
        const double* centre = in.ptr(2, 1, 1);
        core::apply_stencil_row_ptr(plan, centre, fast.row(), len);
        core::detail::apply_stencil_row_portable(plan, centre,
                                                 portable.row(), len);
        EXPECT_TRUE(same_bytes(fast.row(), portable.row(), len))
            << "fast and portable rows differ bitwise at length " << len;
        EXPECT_TRUE(fast.guards_intact()) << "store outside row " << len;
        EXPECT_TRUE(portable.guards_intact()) << "store outside row " << len;
    }
}

TEST(StencilParity, PlaneKernelMatchesReferencePointBitwise) {
    // Three rows per call, the output rows padded apart so a store past a
    // row's end would show up in the gap.
    const core::Extents3 n{kMaxLen, 3, 3};
    const auto a = test_coeffs();
    const auto in = random_field(n, 31);
    const auto plan = core::StencilPlan::make(a, in);
    constexpr int kGap = 5;
    for (int len : row_lengths()) {
        const std::ptrdiff_t out_stride = len + kGap;
        std::vector<double> out(static_cast<std::size_t>(3 * out_stride),
                                -7.0);
        core::apply_stencil_plane_ptr(plan, in.ptr(0, 0, 1), out.data(), len,
                                      3, in.x_stride(), out_stride);
        for (int j = 0; j < 3; ++j) {
            const double* row = out.data() + j * out_stride;
            for (int i = 0; i < len; ++i) {
                const double ref = core::stencil_point(a, in, i, j, 1);
                EXPECT_TRUE(same_bytes(&ref, row + i, 1))
                    << "plane kernel diverges at length " << len << " (" << i
                    << "," << j << ")";
            }
            for (int g = len; g < out_stride; ++g)
                EXPECT_EQ(row[g], -7.0) << "store past row end at " << len;
        }
    }
}

// The variable-coefficient row kernel against per-cell stencil_var_point
// with coefficients straight from the evaluator: checks the blocked
// arithmetic and the term-major cache layout it reads together. Rows start
// at xlo > 0, as the overlap implementations' boundary rows do.
TEST(StencilParity, VarRowMatchesStencilVarPointBitwise) {
    SCOPED_TRACE(core::detail::row_kernel_is_vectorized()
                     ? "dispatched path: AVX2 clone"
                     : "dispatched path: portable baseline");
    constexpr int kXlo = 3;
    const core::Extents3 n{kXlo + kMaxLen, 3, 3};
    const core::Index3 origin{5, 7, 2};
    const auto in = random_field(n, 1234);
    const std::ptrdiff_t sj = in.x_stride();
    const std::ptrdiff_t sk = in.xy_stride();
    for (const char* name : {"rotating", "deformational"}) {
        SCOPED_TRACE(name);
        const core::Scenario sc = core::scenario_by_name(name);
        core::CoeffField cf;
        cf.vel = {sc.velocity, {1.0, 0.5, 0.25}, sc.amplitude};
        cf.nu = 0.5 / cf.vel.max_abs();
        cf.delta = 1.0 / 64;
        const core::CoeffCache cache(cf, n, origin);
        for (const auto& [j, k] : {std::pair{0, 0}, std::pair{1, 2}}) {
            const double* coeff = cache.row(j, k) + kXlo;
            const double* centre = in.ptr(kXlo, j, k);
            for (int len : row_lengths()) {
                GuardedRow fast_row(len, -1.0);
                GuardedRow portable_row(len, -2.0);
                const double* fast = fast_row.row();
                const double* portable = portable_row.row();
                core::apply_stencil_var_row(coeff, cache.term_stride(), centre,
                                            fast_row.row(), len, sj, sk);
                core::detail::apply_stencil_var_row_portable(
                    coeff, cache.term_stride(), centre, portable_row.row(),
                    len, sj, sk);
                EXPECT_TRUE(fast_row.guards_intact())
                    << "store outside var row " << len;
                EXPECT_TRUE(portable_row.guards_intact())
                    << "store outside var row " << len;
                for (int i = 0; i < len; ++i) {
                    const core::StencilCoeffs a = cf.at(
                        origin.i + kXlo + i, origin.j + j, origin.k + k);
                    const double ref = core::stencil_var_point(
                        a.a.data(), centre + i, sj, sk);
                    EXPECT_TRUE(same_bytes(&ref, &fast[i], 1))
                        << "dispatched var row diverges at length " << len
                        << " x=" << i;
                    EXPECT_TRUE(same_bytes(&ref, &portable[i], 1))
                        << "portable var row diverges at length " << len
                        << " x=" << i;
                }
            }
        }
    }
}

TEST(StencilParity, RowKernelMatchesReferencePointBitwise) {
    const core::Extents3 n{21, 4, 4};
    const auto a = test_coeffs();
    const auto in = random_field(n, 4242);
    core::Field3 out(n);
    core::apply_stencil(a, in, out);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                const double ref = core::stencil_point(a, in, i, j, k);
                const double got = out(i, j, k);
                EXPECT_EQ(std::memcmp(&ref, &got, sizeof(double)), 0)
                    << "apply_stencil diverges from stencil_point at (" << i
                    << "," << j << "," << k << "): " << ref << " vs " << got;
            }
}

TEST(StencilParity, PortableKernelMatchesReferenceBitwise) {
    // Pin the *baseline* itself to the reference arithmetic, so the
    // dispatched-vs-portable memcmp above cannot pass vacuously with both
    // clones drifting together.
    const core::Extents3 n{33, 3, 3};
    const auto a = test_coeffs();
    const auto in = random_field(n, 9);
    const auto plan = core::StencilPlan::make(a, in);
    std::vector<double> row(static_cast<std::size_t>(n.nx));
    core::detail::apply_stencil_row_portable(plan, in.ptr(0, 1, 1),
                                             row.data(), n.nx);
    for (int i = 0; i < n.nx; ++i) {
        const double ref = core::stencil_point(a, in, i, 1, 1);
        EXPECT_EQ(std::memcmp(&ref, &row[static_cast<std::size_t>(i)],
                              sizeof(double)),
                  0)
            << "portable kernel diverges from stencil_point at x=" << i;
    }
}
