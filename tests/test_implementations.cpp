// Integration tests: every implementation of paper §IV must produce exactly
// the same state as the single-threaded reference (the arithmetic per point
// is identical in every code path), and its error against the analytic
// solution must be small and must shrink at the scheme's order as the grid
// refines.

#include <gtest/gtest.h>

#include <cmath>

#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "core/stencil.hpp"
#include "impl/registry.hpp"

namespace core = advect::core;
namespace impl = advect::impl;

namespace {

impl::SolverConfig base_config(int n, int steps) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    return cfg;
}

void expect_matches_reference(const impl::SolverConfig& cfg,
                              const impl::SolveResult& result) {
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    EXPECT_TRUE(result.state.interior_equals(ref))
        << "state differs from the single-task reference";
}

// ---------------------------------------------------------------------------
// GF accounting.

TEST(SolveResultGf, CountsTheFlopsThatRan) {
    // One second over 10^3 points and 4 steps: GF = 4e3 * flops / 1e9.
    impl::SolveResult r;
    r.wall_seconds = 1.0;
    auto cfg = base_config(10, 4);
    // The Courant-1 shift compacts to one term: 1 flop per point.
    ASSERT_EQ(cfg.problem.stencil_terms(), 1);
    EXPECT_DOUBLE_EQ(r.gf(cfg), 4e3 * 1 / 1e9);
    // The paper sweep keeps all 27 terms: 53 flops per point (§II).
    cfg.problem.velocity = {1.0, 0.5, 0.25};
    cfg.problem.nu = 0.5;
    ASSERT_EQ(cfg.problem.stencil_terms(), 27);
    EXPECT_DOUBLE_EQ(r.gf(cfg), 4e3 * 53 / 1e9);
    // The count is the plan's: zero coefficients are what StencilPlan drops.
    for (const core::Velocity3 v :
         {core::Velocity3{1.0, 1.0, 1.0}, core::Velocity3{1.0, 0.0, 0.5},
          core::Velocity3{1.0, 0.5, 0.25}}) {
        cfg.problem.velocity = v;
        cfg.problem.nu = core::max_stable_nu(v);
        const core::Field3 shape({4, 4, 4});
        EXPECT_EQ(cfg.problem.stencil_terms(),
                  core::StencilPlan::make(cfg.problem.coeffs(), shape).terms);
    }
    // Variable coefficients always sum 27 terms.
    cfg.problem.scenario = core::scenario_by_name("rotating");
    EXPECT_EQ(cfg.problem.stencil_terms(), 27);
}

// ---------------------------------------------------------------------------
// Per-implementation matrices.

TEST(SingleTask, MatchesReferenceAcrossThreadCounts) {
    for (int threads : {1, 2, 3, 4}) {
        auto cfg = base_config(16, 4);
        cfg.threads_per_task = threads;
        expect_matches_reference(cfg, impl::solve_single_task(cfg));
    }
}

struct MpiCase {
    int n;
    int ntasks;
    int threads;
};

class MpiImpls : public ::testing::TestWithParam<MpiCase> {};

TEST_P(MpiImpls, BulkMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    expect_matches_reference(cfg, impl::solve_mpi_bulk(cfg));
}

TEST_P(MpiImpls, NonblockingMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    expect_matches_reference(cfg, impl::solve_mpi_nonblocking(cfg));
}

TEST_P(MpiImpls, ThreadOverlapMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = c.threads;
    expect_matches_reference(cfg, impl::solve_mpi_thread_overlap(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    DecompositionSweep, MpiImpls,
    ::testing::Values(MpiCase{12, 1, 2},   // self-neighbour in every dim
                      MpiCase{12, 2, 2},   // single cut
                      MpiCase{12, 3, 1},   // prime task count
                      MpiCase{12, 4, 2},   // two cuts
                      MpiCase{16, 8, 1},   // cubic 2x2x2
                      MpiCase{16, 6, 2},   // mixed factors
                      MpiCase{18, 27, 1},  // cubic 3x3x3, divisor of 18
                      MpiCase{15, 5, 3})); // prime, odd domain

struct GpuCase {
    int n;
    int ntasks;
    int bx, by;
    bool c1060;
    int tasks_per_gpu;
};

class GpuImpls : public ::testing::TestWithParam<GpuCase> {};

impl::SolverConfig gpu_config(const GpuCase& c) {
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = 2;
    cfg.block_x = c.bx;
    cfg.block_y = c.by;
    cfg.gpu_props = c.c1060 ? advect::gpu::DeviceProps::tesla_c1060()
                            : advect::gpu::DeviceProps::tesla_c2050();
    cfg.tasks_per_gpu = c.tasks_per_gpu;
    return cfg;
}

TEST_P(GpuImpls, ResidentMatchesReference) {
    const auto c = GetParam();
    if (c.ntasks != 1) GTEST_SKIP() << "resident is single-task";
    const auto cfg = gpu_config(c);
    expect_matches_reference(cfg, impl::solve_gpu_resident(cfg));
}

TEST_P(GpuImpls, MpiBulkMatchesReference) {
    const auto cfg = gpu_config(GetParam());
    expect_matches_reference(cfg, impl::solve_gpu_mpi_bulk(cfg));
}

TEST_P(GpuImpls, MpiStreamsMatchesReference) {
    const auto cfg = gpu_config(GetParam());
    expect_matches_reference(cfg, impl::solve_gpu_mpi_streams(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    GpuSweep, GpuImpls,
    ::testing::Values(GpuCase{12, 1, 4, 4, false, 1},
                      GpuCase{12, 1, 32, 8, false, 1},  // blocks wider than domain
                      GpuCase{12, 2, 4, 2, false, 1},
                      GpuCase{12, 4, 4, 4, false, 2},   // shared device
                      GpuCase{16, 8, 8, 4, true, 4},    // C1060, 2 devices
                      GpuCase{15, 3, 4, 4, true, 1}));

struct BoxCase {
    int n;
    int ntasks;
    int thickness;
};

class CpuGpuImpls : public ::testing::TestWithParam<BoxCase> {};

TEST_P(CpuGpuImpls, BulkMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = c.thickness;
    expect_matches_reference(cfg, impl::solve_cpu_gpu_bulk(cfg));
}

TEST_P(CpuGpuImpls, OverlapMatchesReference) {
    const auto c = GetParam();
    auto cfg = base_config(c.n, 4);
    cfg.ntasks = c.ntasks;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = c.thickness;
    expect_matches_reference(cfg, impl::solve_cpu_gpu_overlap(cfg));
}

INSTANTIATE_TEST_SUITE_P(BoxSweep, CpuGpuImpls,
                         ::testing::Values(BoxCase{12, 1, 1},  // veneer box
                                           BoxCase{12, 1, 3},
                                           BoxCase{14, 2, 2},
                                           BoxCase{16, 4, 1},
                                           BoxCase{18, 8, 2},
                                           BoxCase{15, 3, 1}));

TEST(CpuGpuImpls, InfeasibleBoxThrowsInsteadOfDeadlocking) {
    // A box too thick for the smallest subdomain must fail fast on the
    // calling thread, not strand the other ranks in the exchange.
    auto cfg = base_config(14, 2);
    cfg.ntasks = 3;  // 1x1x3 decomposition: z extents 5, 5, 4
    cfg.box_thickness = 2;
    EXPECT_THROW((void)impl::solve_cpu_gpu_bulk(cfg), std::invalid_argument);
    EXPECT_THROW((void)impl::solve_cpu_gpu_overlap(cfg),
                 std::invalid_argument);
    cfg.box_thickness = 1;  // feasible again
    expect_matches_reference(cfg, impl::solve_cpu_gpu_overlap(cfg));
}

// ---------------------------------------------------------------------------
// Registry-level checks.

TEST(Registry, HasNineImplementationsInPaperOrder) {
    const auto reg = impl::registry();
    ASSERT_EQ(reg.size(), 9u);
    EXPECT_EQ(reg[0].paper_section, "IV-A");
    EXPECT_EQ(reg[8].paper_section, "IV-I");
    EXPECT_EQ(impl::find_implementation("cpu_gpu_overlap").paper_section,
              "IV-I");
    EXPECT_THROW((void)impl::find_implementation("nope"), std::out_of_range);
}

TEST(Registry, EveryImplementationRunsAndMatchesReference) {
    auto cfg = base_config(12, 3);
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.block_x = 4;
    cfg.block_y = 4;
    cfg.box_thickness = 1;
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    for (const auto& entry : impl::registry()) {
        auto c = cfg;
        if (!entry.uses_mpi) c.ntasks = 1;
        const auto result = entry.solve(c);
        EXPECT_TRUE(result.state.interior_equals(ref)) << entry.id;
        EXPECT_GT(result.wall_seconds, 0.0) << entry.id;
    }
}

// ---------------------------------------------------------------------------
// Convergence: the scheme is O(delta^2) for fixed simulated time (§II).

TEST(Convergence, SecondOrderInSpaceAtFixedTime) {
    // Run nu at half the stability limit so the spatial error dominates, and
    // integrate to the same simulated time on two grids.
    double errors[2];
    const int grids[2] = {16, 32};
    for (int g = 0; g < 2; ++g) {
        auto p = core::AdvectionProblem::standard(grids[g]);
        p.nu = 0.5;
        const int steps = 2 * grids[g] / 16;  // same simulated time
        const auto state = core::run_reference(p, steps);
        errors[g] = core::error_vs_analytic(p, state, steps).l2;
    }
    EXPECT_LT(errors[1], errors[0]);
    const double order = std::log2(errors[0] / errors[1]);
    EXPECT_GT(order, 1.6) << "expected ~2nd order, got " << order;
}

TEST(Convergence, UnitCourantShiftsExactly) {
    // At the maximum stable nu with c=(1,1,1) the scheme is an exact shift;
    // after n steps the wave returns to its starting position exactly.
    auto p = core::AdvectionProblem::standard(12);
    const auto state = core::run_reference(p, 12);
    core::Field3 init(p.domain.extents());
    core::fill_initial(init, p.domain, p.wave);
    EXPECT_TRUE(state.interior_equals(init));
}

}  // namespace
