// Property tests for the fast-path stencil engine (docs/PERF.md): the
// StencilPlan / raw-pointer row kernel must be *bitwise* identical to the
// stencil_point reference over randomized extents, coefficients, regions and
// RowSpace partitions — including degenerate 1-wide extents, halo-adjacent
// rows and the scalar tail of the vectorized kernel — and the memcpy paths
// (copy_rows, pack/unpack, halo_fill_parallel) must move exactly the
// requested points and nothing else.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "core/halo.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"
#include "impl/cpu_kernels.hpp"
#include "omp/thread_team.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace omp = advect::omp;

namespace {

using Rng = std::mt19937;

core::StencilCoeffs random_coeffs(Rng& rng) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    core::StencilCoeffs a;
    for (auto& v : a.a) v = dist(rng);
    return a;
}

core::Extents3 random_extents(Rng& rng, int max_n) {
    std::uniform_int_distribution<int> dist(1, max_n);
    return {dist(rng), dist(rng), dist(rng)};
}

void fill_random(core::Field3& f, Rng& rng) {
    std::uniform_real_distribution<double> dist(-10.0, 10.0);
    for (auto& v : f.raw()) v = dist(rng);
}

/// Bitwise equality, distinguishing -0.0 from +0.0 and tolerating nothing.
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Reference sweep: per-point stencil_point over `r`.
void reference_apply(const core::StencilCoeffs& a, const core::Field3& in,
                     core::Field3& out, const core::Range3& r) {
    for (int k = r.lo.k; k < r.hi.k; ++k)
        for (int j = r.lo.j; j < r.hi.j; ++j)
            for (int i = r.lo.i; i < r.hi.i; ++i)
                out(i, j, k) = core::stencil_point(a, in, i, j, k);
}

void expect_bitwise_region(const core::Field3& got, const core::Field3& want,
                           const core::Range3& r) {
    for (int k = r.lo.k; k < r.hi.k; ++k)
        for (int j = r.lo.j; j < r.hi.j; ++j)
            for (int i = r.lo.i; i < r.hi.i; ++i)
                ASSERT_TRUE(same_bits(got(i, j, k), want(i, j, k)))
                    << "mismatch at (" << i << "," << j << "," << k << "): "
                    << got(i, j, k) << " vs " << want(i, j, k);
}

TEST(StencilPlan, OffsetsAndCoeffsMatchSummationOrder) {
    Rng rng(7);
    const auto a = random_coeffs(rng);
    const core::Field3 shape({5, 4, 3});
    const auto plan = core::StencilPlan::make(a, shape);
    std::size_t t = 0;
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di, ++t) {
                EXPECT_EQ(plan.coeff[t], a.at(di, dj, dk));
                EXPECT_EQ(plan.offset[t], di + dj * shape.x_stride() +
                                              dk * shape.xy_stride());
            }
}

TEST(StencilPlan, RowKernelBitwiseMatchesStencilPoint) {
    Rng rng(11);
    std::uniform_int_distribution<int> thin(1, 4);
    std::uniform_int_distribution<int> survivors(1, 27);
    constexpr double kGuard = -7.5;
    for (int nx = 1; nx <= 136; ++nx) {
        // Every row length up to 136 reaches the 32-point blocks, the
        // overlapped final 32-point block, the 8-point blocks, the
        // overlapped final 8-point block, the scalar tail and each seam
        // between them (31/32/33, 39/40/41, 55/56/57, 126/128/130, ...);
        // ny, nz include 1-wide extents.
        const core::Extents3 n{nx, thin(rng), thin(rng)};
        core::Field3 in(n), out(n, 1, kGuard), ref(n, 0.0);
        fill_random(in, rng);
        auto a = random_coeffs(rng);
        // Every other length runs a compacted plan (down to the single
        // term of the Courant-1 shift) through the same blocks.
        if (nx % 2 == 0) {
            const int keep = nx % 8 == 0 ? 1 : survivors(rng);
            for (int t = keep; t < 27; ++t) a.a[(t * 7 + nx) % 27] = 0.0;
        }
        const auto plan = core::StencilPlan::make(a, in);
        for (int k = 0; k < n.nz; ++k)
            for (int j = 0; j < n.ny; ++j)
                core::apply_stencil_row_ptr(plan, in.ptr(0, j, k),
                                            out.ptr(0, j, k), n.nx);
        reference_apply(a, in, ref, in.interior());
        expect_bitwise_region(out, ref, in.interior());
        // The overlapped final blocks never store outside [0, nx): the
        // guard cells on both ends of every row keep their value.
        for (int k = 0; k < n.nz; ++k)
            for (int j = 0; j < n.ny; ++j) {
                EXPECT_EQ(out(-1, j, k), kGuard) << "nx " << nx;
                EXPECT_EQ(out(nx, j, k), kGuard) << "nx " << nx;
            }
    }
}

TEST(StencilFastPath, ApplyStencilBitwiseOverRandomRegions) {
    Rng rng(23);
    for (int trial = 0; trial < 40; ++trial) {
        const auto n = random_extents(rng, 12);
        core::Field3 in(n), out(n, 0.0), ref(n, 0.0);
        fill_random(in, rng);
        const auto a = random_coeffs(rng);
        // Whole interior plus the boundary-shell partition (halo-adjacent
        // rows) and random z-slabs of the interior.
        std::vector<core::Range3> regions{in.interior()};
        const auto part = core::partition_interior_boundary(n);
        regions.insert(regions.end(), part.boundary.begin(),
                       part.boundary.end());
        if (!part.interior.empty()) regions.push_back(part.interior);
        std::uniform_int_distribution<int> parts(1, 4);
        for (const auto& s : core::split_z(in.interior(), parts(rng)))
            regions.push_back(s);
        for (const auto& r : regions) {
            if (r.empty()) continue;
            core::apply_stencil(a, in, out, r);
            reference_apply(a, in, ref, r);
            expect_bitwise_region(out, ref, r);
        }
    }
}

TEST(StencilFastPath, ApplyStencilRowsBitwiseOverRandomPartitions) {
    Rng rng(31);
    for (int trial = 0; trial < 40; ++trial) {
        const auto n = random_extents(rng, 10);
        core::Field3 in(n), out(n, 0.0), ref(n, 0.0);
        fill_random(in, rng);
        const auto a = random_coeffs(rng);
        // A RowSpace over the boundary/interior partition plus z-slabs —
        // the shapes the overlap implementations actually schedule.
        std::vector<core::Range3> regions;
        const auto part = core::partition_interior_boundary(n);
        regions.insert(regions.end(), part.boundary.begin(),
                       part.boundary.end());
        std::uniform_int_distribution<int> parts(1, 3);
        for (const auto& s : core::split_z(part.interior, parts(rng)))
            regions.push_back(s);
        if (regions.empty()) regions.push_back(in.interior());
        const core::RowSpace rows(regions);
        ASSERT_GT(rows.size(), 0);
        // Random sub-range of rows, including empty and full.
        std::uniform_int_distribution<std::int64_t> pick(0, rows.size());
        std::int64_t lo = pick(rng), hi = pick(rng);
        if (lo > hi) std::swap(lo, hi);
        core::apply_stencil_rows(a, in, out, rows, lo, hi);
        for (std::int64_t fidx = lo; fidx < hi; ++fidx) {
            const auto r = rows.row(fidx);
            for (int i = r.xlo; i < r.xhi; ++i)
                ref(i, r.j, r.k) = core::stencil_point(a, in, i, r.j, r.k);
        }
        for (std::int64_t fidx = lo; fidx < hi; ++fidx) {
            const auto r = rows.row(fidx);
            for (int i = r.xlo; i < r.xhi; ++i)
                ASSERT_TRUE(same_bits(out(i, r.j, r.k), ref(i, r.j, r.k)));
        }
    }
}

TEST(RowSpaceFastPath, ForEachRowMatchesRowDecode) {
    Rng rng(41);
    for (int trial = 0; trial < 30; ++trial) {
        const auto n = random_extents(rng, 8);
        const auto part = core::partition_interior_boundary(n);
        std::vector<core::Range3> regions = part.boundary;
        if (!part.interior.empty()) regions.push_back(part.interior);
        if (regions.empty()) continue;
        const core::RowSpace rows(regions);
        std::uniform_int_distribution<std::int64_t> pick(0, rows.size());
        std::int64_t lo = pick(rng), hi = pick(rng);
        if (lo > hi) std::swap(lo, hi);
        std::int64_t f = lo;
        rows.for_each_row(lo, hi, [&](const core::RowSpace::Row& r) {
            const auto want = rows.row(f++);
            EXPECT_EQ(r.xlo, want.xlo);
            EXPECT_EQ(r.xhi, want.xhi);
            EXPECT_EQ(r.j, want.j);
            EXPECT_EQ(r.k, want.k);
        });
        EXPECT_EQ(f, hi);
        // Random (cache-hostile) decode order must still be correct.
        std::vector<std::int64_t> order(static_cast<std::size_t>(rows.size()));
        for (std::size_t q = 0; q < order.size(); ++q)
            order[q] = static_cast<std::int64_t>(q);
        std::shuffle(order.begin(), order.end(), rng);
        for (const auto fidx : order) {
            const auto r = rows.row(fidx);
            EXPECT_GE(r.k, -1);
        }
    }
}

TEST(RowSpaceFastPath, CopyRowsMovesExactlyTheRequestedRows) {
    Rng rng(53);
    for (int trial = 0; trial < 30; ++trial) {
        const auto n = random_extents(rng, 8);
        core::Field3 src(n), dst(n, 0.0);
        fill_random(src, rng);
        dst.fill_halo(-99.0);
        const auto part = core::partition_interior_boundary(n);
        std::vector<core::Range3> regions = part.boundary;
        if (!part.interior.empty()) regions.push_back(part.interior);
        if (regions.empty()) regions.push_back(src.interior());
        const core::RowSpace rows(regions);
        std::uniform_int_distribution<std::int64_t> pick(0, rows.size());
        std::int64_t lo = pick(rng), hi = pick(rng);
        if (lo > hi) std::swap(lo, hi);
        core::copy_rows(src, dst, rows, lo, hi);
        core::Field3 want(n, 0.0);
        want.fill_halo(-99.0);
        for (std::int64_t fidx = lo; fidx < hi; ++fidx) {
            const auto r = rows.row(fidx);
            for (int i = r.xlo; i < r.xhi; ++i)
                want(i, r.j, r.k) = src(i, r.j, r.k);
        }
        for (int k = -1; k <= n.nz; ++k)
            for (int j = -1; j <= n.ny; ++j)
                for (int i = -1; i <= n.nx; ++i)
                    ASSERT_TRUE(same_bits(dst(i, j, k), want(i, j, k)))
                        << "(" << i << "," << j << "," << k << ")";
    }
}

/// Elementwise reference pack (the memcpy paths must match it exactly).
std::vector<double> reference_pack(const core::Field3& f,
                                   const core::Range3& region) {
    std::vector<double> out;
    out.reserve(region.volume());
    for (int k = region.lo.k; k < region.hi.k; ++k)
        for (int j = region.lo.j; j < region.hi.j; ++j)
            for (int i = region.lo.i; i < region.hi.i; ++i)
                out.push_back(f(i, j, k));
    return out;
}

TEST(HaloFastPath, PackUnpackRoundTripAllFaces) {
    Rng rng(61);
    for (int trial = 0; trial < 20; ++trial) {
        const auto n = random_extents(rng, 9);
        core::Field3 f(n);
        fill_random(f, rng);
        const auto plan = core::HaloPlan::make(n);
        for (const auto& e : plan.dims) {
            for (const auto& region :
                 {e.send_low, e.send_high, e.recv_low, e.recv_high}) {
                const auto buf = core::pack(f, region);
                const auto want = reference_pack(f, region);
                ASSERT_EQ(buf.size(), want.size());
                for (std::size_t q = 0; q < buf.size(); ++q)
                    ASSERT_TRUE(same_bits(buf[q], want[q]));
                // Unpack into a poisoned copy: the region is restored and
                // nothing outside it changes.
                core::Field3 g = f;
                for (int k = region.lo.k; k < region.hi.k; ++k)
                    for (int j = region.lo.j; j < region.hi.j; ++j)
                        for (int i = region.lo.i; i < region.hi.i; ++i)
                            g(i, j, k) = -12345.0;
                core::unpack(g, region, buf);
                for (int k = -1; k <= n.nz; ++k)
                    for (int j = -1; j <= n.ny; ++j)
                        for (int i = -1; i <= n.nx; ++i)
                            ASSERT_TRUE(same_bits(g(i, j, k), f(i, j, k)));
            }
        }
    }
}

TEST(HaloFastPath, HaloFillParallelMatchesSerialPeriodicFill) {
    Rng rng(71);
    for (int threads : {1, 3}) {
        omp::ThreadTeam team(threads);
        for (int trial = 0; trial < 10; ++trial) {
            const auto n = random_extents(rng, 9);
            core::Field3 f(n);
            fill_random(f, rng);
            core::Field3 want = f;
            core::fill_periodic_halo(want);
            impl::halo_fill_parallel(team, f);
            for (int k = -1; k <= n.nz; ++k)
                for (int j = -1; j <= n.ny; ++j)
                    for (int i = -1; i <= n.nx; ++i)
                        ASSERT_TRUE(same_bits(f(i, j, k), want(i, j, k)))
                            << "(" << i << "," << j << "," << k << ")";
        }
    }
}

}  // namespace
