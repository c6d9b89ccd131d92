/// \file test_stencil_parity.cpp
/// Bitwise parity of the stencil row-kernel builds. The library ships one
/// kernel body compiled twice — a portable baseline and an AVX2 clone picked
/// at load time (src/core/stencil.cpp) — and the whole codebase leans on the
/// guarantee that every clone, and every blocked/remainder path inside a
/// clone, matches core::stencil_point (constant coefficients) and
/// core::stencil_var_point (per-cell coefficients) bit for bit. These tests
/// force the portable build against the dispatched fast path on identical
/// inputs and memcmp the raw bytes, across every row length from 1 to 80:
/// the 32-point block, the 8-point block, the scalar remainder, and each
/// seam between them.

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

/// Row lengths 1..80: every split into 32-point blocks, 8-point blocks and
/// a scalar tail up to two full wide blocks, including the seams 31/32/33,
/// 39/40/41, 63/64/65 and 71.
std::vector<int> row_lengths() {
    std::vector<int> v;
    for (int len = 1; len <= 80; ++len) v.push_back(len);
    return v;
}

bool same_bytes(const double* a, const double* b, int n) {
    return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(double)) ==
           0;
}

}  // namespace

TEST(StencilParity, DispatchedRowMatchesPortableBitwise) {
    // Every blocked/remainder split up to 80, plus a long row.
    std::vector<int> lengths = row_lengths();
    lengths.push_back(129);
    const core::Extents3 n{144, 3, 3};
    const auto a = test_coeffs();
    const auto in = random_field(n, 77);
    const auto plan = core::StencilPlan::make(a, in);

    SCOPED_TRACE(core::detail::row_kernel_is_vectorized()
                     ? "dispatched path: AVX2 clone"
                     : "dispatched path: portable baseline");

    for (int len : lengths) {
        std::vector<double> fast(static_cast<std::size_t>(len), -1.0);
        std::vector<double> portable(static_cast<std::size_t>(len), -2.0);
        const double* centre = in.ptr(2, 1, 1);
        core::apply_stencil_row_ptr(plan, centre, fast.data(), len);
        core::detail::apply_stencil_row_portable(plan, centre,
                                                 portable.data(), len);
        EXPECT_TRUE(same_bytes(fast.data(), portable.data(), len))
            << "fast and portable rows differ bitwise at length " << len;
    }
}

TEST(StencilParity, PlaneKernelMatchesReferencePointBitwise) {
    // Three rows per call, the output rows padded apart so a store past a
    // row's end would show up in the gap.
    const core::Extents3 n{80, 3, 3};
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
    const core::Extents3 n{kXlo + 80, 3, 3};
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
                std::vector<double> fast(static_cast<std::size_t>(len), -1.0);
                std::vector<double> portable(static_cast<std::size_t>(len),
                                             -2.0);
                core::apply_stencil_var_row(coeff, cache.term_stride(), centre,
                                            fast.data(), len, sj, sk);
                core::detail::apply_stencil_var_row_portable(
                    coeff, cache.term_stride(), centre, portable.data(), len,
                    sj, sk);
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
