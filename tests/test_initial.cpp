// Tests for the Gaussian initial condition, the analytic solution with
// periodic wrap, the row-wise evaluation of both (bitwise against the
// per-point formulas), the error norms, and the problem wrapper (flop
// counting, GF arithmetic, reference stepping).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/problem.hpp"

namespace core = advect::core;

namespace {

TEST(GaussianWave, PeakAtCenterAndSymmetric) {
    const core::GaussianWave w{};
    EXPECT_DOUBLE_EQ(w(0.5, 0.5, 0.5), 1.0);
    EXPECT_NEAR(w(0.3, 0.5, 0.5), w(0.7, 0.5, 0.5), 1e-12);
    EXPECT_NEAR(w(0.5, 0.2, 0.5), w(0.5, 0.8, 0.5), 1e-12);
    EXPECT_LT(w(0.1, 0.1, 0.1), 0.01);
}

TEST(GaussianWave, MinimumImagePeriodicity) {
    const core::GaussianWave w{};
    // Points just inside either side of the periodic seam see the same wave.
    EXPECT_NEAR(w(0.999, 0.5, 0.5), w(0.001, 0.5, 0.5), 1e-12);
    EXPECT_NEAR(w(0.0, 0.5, 0.5), w(1.0 - 1e-16, 0.5, 0.5), 1e-9);
}

TEST(Analytic, TranslatesWithoutDeformation) {
    const core::GaussianWave w{};
    const core::Velocity3 c{1.0, 0.5, 0.25};
    // At time t, the value at x equals the initial value at x - c t.
    EXPECT_NEAR(core::analytic_solution(w, c, 0.2, 0.7, 0.6, 0.55),
                w(0.5, 0.5, 0.5), 1e-12);
    // Periodic wrap: after t = 1 with c_x = 1 the x-profile returns.
    EXPECT_NEAR(core::analytic_solution(w, {1, 0, 0}, 1.0, 0.3, 0.4, 0.5),
                w(0.3, 0.4, 0.5), 1e-12);
    // Negative times and coordinates wrap too.
    EXPECT_NEAR(core::analytic_solution(w, {1, 1, 1}, -0.25, 0.0, 0.0, 0.0),
                w(0.25, 0.25, 0.25), 1e-12);
}

TEST(FillInitial, SubBlockMatchesGlobal) {
    const core::Domain dom{10};
    const core::GaussianWave w{};
    core::Field3 global({10, 10, 10});
    core::fill_initial(global, dom, w);
    core::Field3 block({4, 5, 3});
    core::fill_initial(block, dom, w, {3, 2, 6});
    for (int k = 0; k < 3; ++k)
        for (int j = 0; j < 5; ++j)
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(block(i, j, k), global(3 + i, 2 + j, 6 + k));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every interior point of `f` equals the per-point wave at its global
/// coordinate, and every halo point still holds `halo_value`.
void expect_wave_on_block(const core::Field3& f, const core::Domain& dom,
                          const core::GaussianWave& w,
                          const core::Index3& origin, double halo_value) {
    const auto n = f.extents();
    const int h = f.halo_width();
    const double d = dom.delta();
    for (int k = -h; k < n.nz + h; ++k)
        for (int j = -h; j < n.ny + h; ++j)
            for (int i = -h; i < n.nx + h; ++i) {
                const bool interior = i >= 0 && i < n.nx && j >= 0 &&
                                      j < n.ny && k >= 0 && k < n.nz;
                const double want =
                    interior ? w((origin.i + i) * d, (origin.j + j) * d,
                                 (origin.k + k) * d)
                             : halo_value;
                ASSERT_EQ(bits(f(i, j, k)), bits(want))
                    << "at (" << i << "," << j << "," << k << ") halo " << h;
            }
}

TEST(FillInitial, RowsBitwiseEqualPerPointWaveOnAnyHalo) {
    const core::Domain dom{23};
    core::GaussianWave w{};
    w.sigma = 0.11;
    w.center = 0.41;
    w.amp = 1.7;
    const core::Extents3 n{9, 7, 5};
    for (int h = 1; h <= 3; ++h)
        for (const core::Index3 origin :
             {core::Index3{0, 0, 0}, core::Index3{5, 13, 17}}) {
            core::Field3 f(n, h, -7.25);
            core::fill_initial(f, dom, w, origin);
            expect_wave_on_block(f, dom, w, origin, -7.25);
        }
}

TEST(FillInitial, ZeroAmplitudeWritesZerosOnly) {
    const core::Domain dom{15};
    core::GaussianWave w{};
    w.amp = 0.0;
    for (int h = 1; h <= 3; ++h) {
        core::Field3 f({5, 3, 7}, h, 3.5);
        core::fill_initial(f, dom, w, {4, 11, 1});
        expect_wave_on_block(f, dom, w, {4, 11, 1}, 3.5);
    }
}

TEST(WaveRows, AnalyticRowsBitwiseEqualPerPointSolution) {
    // t > 0 with a negative velocity component: x - c t crosses the seam
    // upward in x and downward in y/z, so wrap01 acts in both directions.
    const core::Domain dom{19};
    const core::GaussianWave w{};
    const core::Velocity3 c{-0.7, 0.4, 1.3};
    const double t = 0.61;
    const core::Extents3 n{11, 6, 9};
    const core::Index3 origin{8, 13, 3};
    const core::WaveRows rows(w, dom, n, origin, c, t);
    const double d = dom.delta();
    std::vector<double> row(static_cast<std::size_t>(n.nx));
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j) {
            rows.row(j, k, row.data());
            for (int i = 0; i < n.nx; ++i)
                ASSERT_EQ(bits(row[static_cast<std::size_t>(i)]),
                          bits(core::analytic_solution(
                              w, c, t, (origin.i + i) * d, (origin.j + j) * d,
                              (origin.k + k) * d)))
                    << "at (" << i << "," << j << "," << k << ")";
        }
}

/// Per-point reference for error_vs_analytic: a full `exact` field from
/// analytic_solution plus the manufactured field, then diff_norms.
core::Norms per_point_error(const core::AdvectionProblem& p,
                            const core::Field3& state, int steps,
                            const core::Index3& origin) {
    core::Field3 exact(state.extents());
    const double t = p.time_at(steps);
    const double d = p.domain.delta();
    const auto n = exact.extents();
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                const double x = (origin.i + i) * d;
                const double y = (origin.j + j) * d;
                const double z = (origin.k + k) * d;
                exact(i, j, k) =
                    core::analytic_solution(p.wave, p.velocity, t, x, y, z);
                if (p.source.active())
                    exact(i, j, k) += p.source.manufactured(x, y, z, t);
            }
    return core::diff_norms(state, exact);
}

void expect_error_matches_per_point(const core::AdvectionProblem& p,
                                    const core::Field3& state, int steps,
                                    const core::Index3& origin) {
    const auto want = per_point_error(p, state, steps, origin);
    const auto got = core::error_vs_analytic(p, state, steps, origin);
    EXPECT_EQ(got.l1, want.l1);
    EXPECT_EQ(got.l2, want.l2);
    EXPECT_EQ(got.linf, want.linf);
    EXPECT_GT(got.linf, 0.0);
}

TEST(ErrorVsAnalytic, BitwiseEqualsPerPointExactField) {
    auto p = core::AdvectionProblem::standard(17);
    p.velocity = {-0.7, 0.4, 1.0};
    p.nu = 0.5;
    const int steps = 9;  // t > 0: the seam wraps on every axis
    expect_error_matches_per_point(p, core::run_reference(p, steps), steps,
                                   {0, 0, 0});
    // A rank's block at a nonzero origin, with a deeper halo.
    core::Field3 block({7, 5, 9}, 2);
    for (int k = 0; k < 9; ++k)
        for (int j = 0; j < 5; ++j)
            for (int i = 0; i < 7; ++i)
                block(i, j, k) = 0.01 * std::sin(i + 2.0 * j + 3.0 * k);
    block.fill_halo(1e30);  // halos never enter the norms
    expect_error_matches_per_point(p, block, steps, {6, 11, 3});
}

TEST(ErrorVsAnalytic, BitwiseEqualsPerPointWithMmsSource) {
    auto p = core::AdvectionProblem::standard(15);
    p.velocity = {1.0, -0.5, 0.25};
    p.nu = 0.8;
    p.source.amp = 0.3;
    p.source.ky = 2;
    const int steps = 6;
    expect_error_matches_per_point(p, core::run_reference(p, steps), steps,
                                   {0, 0, 0});
    // Pure manufactured mode: the wave is identically zero.
    p.wave.amp = 0.0;
    expect_error_matches_per_point(p, core::run_reference(p, steps), steps,
                                   {0, 0, 0});
}

TEST(Norms, KnownValues) {
    core::Field3 f({2, 2, 2}, 0.0);
    f(0, 0, 0) = 3.0;
    f(1, 1, 1) = -4.0;
    const auto n = core::norms(f);
    EXPECT_DOUBLE_EQ(n.l1, 7.0 / 8.0);
    EXPECT_DOUBLE_EQ(n.l2, std::sqrt(25.0 / 8.0));
    EXPECT_DOUBLE_EQ(n.linf, 4.0);
}

TEST(Norms, DiffNormsOfEqualFieldsAreZero) {
    core::Field3 a({3, 3, 3}, 1.5);
    core::Field3 b({3, 3, 3}, 1.5);
    b.fill_halo(9.0);  // halos excluded
    const auto d = core::diff_norms(a, b);
    EXPECT_EQ(d.l1, 0.0);
    EXPECT_EQ(d.l2, 0.0);
    EXPECT_EQ(d.linf, 0.0);
}

TEST(Problem, StandardSetup) {
    const auto p = core::AdvectionProblem::standard(420);
    EXPECT_EQ(p.domain.n, 420);
    EXPECT_DOUBLE_EQ(p.nu, 1.0);  // c = (1,1,1) -> max stable nu = 1
    EXPECT_DOUBLE_EQ(p.dt(), 1.0 / 420.0);
    EXPECT_DOUBLE_EQ(p.time_at(420), 1.0);  // one full domain crossing
}

TEST(Problem, FlopAccountingMatchesPaper) {
    // "53 floating-point operations ... 27 multiplications and 26 additions"
    const std::size_t pts = 420ull * 420 * 420;
    EXPECT_EQ(core::total_flops(pts, 1), pts * 53);
    // 86 GF on the 420^3 problem means ~45.7 ms per step.
    const double seconds = static_cast<double>(core::total_flops(pts, 1)) /
                           86.0e9;
    EXPECT_NEAR(seconds, 0.0457, 0.001);
    EXPECT_NEAR(core::gflops(pts, 10, 10 * seconds), 86.0, 0.1);
}

TEST(Problem, ReferenceConservesMassAtAnyNu) {
    // Coefficients sum to 1, so the discrete integral of u is conserved.
    auto p = core::AdvectionProblem::standard(12);
    p.nu = 0.73;
    core::Field3 init(p.domain.extents());
    core::fill_initial(init, p.domain, p.wave);
    const auto state = core::run_reference(p, 7);
    double sum0 = 0.0, sum1 = 0.0;
    for (int k = 0; k < 12; ++k)
        for (int j = 0; j < 12; ++j)
            for (int i = 0; i < 12; ++i) {
                sum0 += init(i, j, k);
                sum1 += state(i, j, k);
            }
    EXPECT_NEAR(sum1, sum0, 1e-10 * std::fabs(sum0));
}

TEST(Problem, ErrorVsAnalyticSmallForSmoothWave) {
    auto p = core::AdvectionProblem::standard(32);
    const auto state = core::run_reference(p, 8);
    const auto err = core::error_vs_analytic(p, state, 8);
    // Unit Courant: exact advection, error is pure round-off.
    EXPECT_LT(err.linf, 1e-12);
    p.nu = 0.5;
    const auto state2 = core::run_reference(p, 8);
    const auto err2 = core::error_vs_analytic(p, state2, 8);
    EXPECT_GT(err2.linf, 1e-12);  // now a genuine discretization error
    EXPECT_LT(err2.linf, 0.15);   // but a modest one
}

}  // namespace
