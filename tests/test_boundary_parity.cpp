/// \file test_boundary_parity.cpp
/// The scenario refactor's bitwise contracts (docs/SCENARIOS.md):
///
///  1. The periodic constant-velocity default is pinned to the pre-refactor
///     state: FNV-1a checksums of the final interior, captured from the seed
///     tree before the scenario seam existed, must keep reproducing for all
///     nine implementations x fuse {1, 4}, with and without the manufactured
///     source. A refactor that perturbs one bit of the default path fails
///     loudly here.
///  2. Open boundaries and variable coefficients stay bitwise
///     implementation-invariant: every implementation (and the socket
///     transport, covered by the fuzz corpus) produces the identical state.
///  3. Fused ghost recomputation at an inflow face is deterministic: all
///     implementations at fuse 4 agree bitwise with the fused single_task
///     run (fused open-boundary runs legitimately differ from the unfused
///     reference by the ghost-extrapolation term; see docs/SCENARIOS.md).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/problem.hpp"
#include "impl/registry.hpp"
#include "plan/builders.hpp"
#include "verify/mms.hpp"

namespace core = advect::core;
namespace impl = advect::impl;

namespace {

/// FNV-1a over the raw bit patterns of the interior, in (k, j, i) order.
std::uint64_t interior_hash(const core::Field3& f) {
    std::uint64_t h = 1469598103934665603ull;
    const auto n = f.extents();
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                std::uint64_t bits;
                const double v = f(i, j, k);
                static_assert(sizeof bits == sizeof v);
                __builtin_memcpy(&bits, &v, sizeof bits);
                for (int b = 0; b < 8; ++b) {
                    h ^= (bits >> (8 * b)) & 0xffu;
                    h *= 1099511628211ull;
                }
            }
    return h;
}

impl::SolverConfig pin_config(bool mixed, int fuse) {
    impl::SolverConfig cfg;
    cfg.problem = mixed ? advect::verify::mms_mixed_problem(24, 0.5)
                        : core::AdvectionProblem::standard(24);
    cfg.steps = 6;
    cfg.fuse = fuse;
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.box_thickness = 4;
    cfg.block_x = 8;
    cfg.block_y = 4;
    return cfg;
}

struct PinnedHash {
    const char* impl_id;
    bool mixed;
    int fuse;
    std::uint64_t hash;
};

/// Captured from the seed tree (pre-refactor) with the print mode below.
const PinnedHash kPinned[] = {
    {"single_task", false, 1, 0x7a099fc660ae338bull},
    {"mpi_bulk", false, 1, 0x7a099fc660ae338bull},
    {"mpi_nonblocking", false, 1, 0x7a099fc660ae338bull},
    {"mpi_thread_overlap", false, 1, 0x7a099fc660ae338bull},
    {"gpu_resident", false, 1, 0x7a099fc660ae338bull},
    {"gpu_mpi_bulk", false, 1, 0x7a099fc660ae338bull},
    {"gpu_mpi_streams", false, 1, 0x7a099fc660ae338bull},
    {"cpu_gpu_bulk", false, 1, 0x7a099fc660ae338bull},
    {"cpu_gpu_overlap", false, 1, 0x7a099fc660ae338bull},
    {"single_task", false, 4, 0x7a099fc660ae338bull},
    {"mpi_bulk", false, 4, 0x7a099fc660ae338bull},
    {"mpi_nonblocking", false, 4, 0x7a099fc660ae338bull},
    {"mpi_thread_overlap", false, 4, 0x7a099fc660ae338bull},
    {"gpu_resident", false, 4, 0x7a099fc660ae338bull},
    {"gpu_mpi_bulk", false, 4, 0x7a099fc660ae338bull},
    {"gpu_mpi_streams", false, 4, 0x7a099fc660ae338bull},
    {"cpu_gpu_bulk", false, 4, 0x7a099fc660ae338bull},
    {"cpu_gpu_overlap", false, 4, 0x7a099fc660ae338bull},
    {"single_task", true, 1, 0xc7a0b801e0730adfull},
    {"mpi_bulk", true, 1, 0xc7a0b801e0730adfull},
    {"mpi_nonblocking", true, 1, 0xc7a0b801e0730adfull},
    {"mpi_thread_overlap", true, 1, 0xc7a0b801e0730adfull},
    {"gpu_resident", true, 1, 0xc7a0b801e0730adfull},
    {"gpu_mpi_bulk", true, 1, 0xc7a0b801e0730adfull},
    {"gpu_mpi_streams", true, 1, 0xc7a0b801e0730adfull},
    {"cpu_gpu_bulk", true, 1, 0xc7a0b801e0730adfull},
    {"cpu_gpu_overlap", true, 1, 0xc7a0b801e0730adfull},
    {"single_task", true, 4, 0xc7a0b801e0730adfull},
    {"mpi_bulk", true, 4, 0xc7a0b801e0730adfull},
    {"mpi_nonblocking", true, 4, 0xc7a0b801e0730adfull},
    {"mpi_thread_overlap", true, 4, 0xc7a0b801e0730adfull},
    {"gpu_resident", true, 4, 0xc7a0b801e0730adfull},
    {"gpu_mpi_bulk", true, 4, 0xc7a0b801e0730adfull},
    {"gpu_mpi_streams", true, 4, 0xc7a0b801e0730adfull},
    {"cpu_gpu_bulk", true, 4, 0xc7a0b801e0730adfull},
    {"cpu_gpu_overlap", true, 4, 0xc7a0b801e0730adfull},
};

}  // namespace

// Pre-refactor capture hook: ADVECT_PRINT_PINS=1 prints the table instead of
// asserting. Used once against the seed tree; kept for regenerating after an
// intentional numerical change.
TEST(BoundaryParity, PeriodicDefaultBitwisePin) {
    const bool print = std::getenv("ADVECT_PRINT_PINS") != nullptr;
    if (print) {
        for (const bool mixed : {false, true})
            for (const int fuse : {1, 4})
                for (const auto& e : impl::registry()) {
                    const auto cfg = pin_config(mixed, fuse);
                    const auto r = e.solve(cfg);
                    std::printf("    {\"%s\", %s, %d, 0x%llxull},\n",
                                e.id.c_str(), mixed ? "true" : "false", fuse,
                                static_cast<unsigned long long>(
                                    interior_hash(r.state)));
                }
        GTEST_SKIP() << "printed pin table";
    }
    for (const PinnedHash& p : kPinned) {
        const auto cfg = pin_config(p.mixed, p.fuse);
        const auto r = impl::find_implementation(p.impl_id).solve(cfg);
        EXPECT_EQ(interior_hash(r.state), p.hash)
            << p.impl_id << " mixed=" << p.mixed << " fuse=" << p.fuse;
    }
}

namespace {

impl::SolverConfig scenario_config(core::AdvectionProblem problem, int fuse) {
    impl::SolverConfig cfg;
    cfg.problem = std::move(problem);
    cfg.steps = 6;
    cfg.fuse = fuse;
    cfg.ntasks = 2;
    cfg.threads_per_task = 2;
    cfg.box_thickness = fuse > 1 ? fuse : 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    return cfg;
}

/// Every implementation must reproduce `baseline` bitwise.
void expect_all_match(const impl::SolverConfig& cfg,
                      const core::Field3& baseline, const char* what) {
    for (const auto& e : impl::registry()) {
        const auto r = e.solve(cfg);
        EXPECT_TRUE(r.state.interior_equals(baseline))
            << e.id << " diverges (" << what << ", fuse=" << cfg.fuse << ")";
    }
}

}  // namespace

// Contract 2a: open boundaries are implementation-invariant at fuse 1, and
// equal to the serial reference (which applies the identical per-dimension
// fill ordering).
TEST(BoundaryParity, OpenBoundariesMatchReferenceUnfused) {
    for (const auto& problem :
         {advect::verify::inflow_problem(20), advect::verify::open_box_problem(20),
          advect::verify::inflow_mms_problem(20)}) {
        const auto cfg = scenario_config(problem, 1);
        const auto reference = core::run_reference(cfg.problem, cfg.steps);
        expect_all_match(cfg, reference, "open boundary");
    }
}

// Contract 2b: variable coefficients are implementation-invariant (host
// rows, TeamStages drains, and the device kernel share apply_stencil_var_row,
// so the sum order is identical everywhere).
TEST(BoundaryParity, VariableCoefficientsMatchReference) {
    for (const auto kind : {core::VelocityKind::SolidBodyRotation,
                            core::VelocityKind::Deformational}) {
        const auto cfg = scenario_config(
            advect::verify::mms_variable_problem(20, kind), 1);
        const auto reference = core::run_reference(cfg.problem, cfg.steps);
        expect_all_match(cfg, reference, core::to_string(kind));
    }
}

// Variable coefficients compose with open boundaries.
TEST(BoundaryParity, VariableThroughInflowMatchesReference) {
    auto problem = advect::verify::mms_variable_problem(
        20, core::VelocityKind::SolidBodyRotation);
    problem.scenario.faces[core::kFaceXLo] = core::BoundaryKind::Inflow;
    problem.scenario.faces[core::kFaceXHi] = core::BoundaryKind::Inflow;
    const auto cfg = scenario_config(problem, 1);
    const auto reference = core::run_reference(cfg.problem, cfg.steps);
    expect_all_match(cfg, reference, "solid-body rotation through inflow-x");
}

// Contract 3: fused ghost recomputation at open faces is deterministic —
// every implementation at fuse 4 agrees bitwise with the fused single_task
// plan. (Fused open-boundary runs recompute ghost zones from base-level
// boundary data, which legitimately differs from the unfused reference near
// open faces, so the baseline is an implementation, not run_reference.)
TEST(BoundaryParity, FusedInflowIsImplementationInvariant) {
    for (const auto& problem : {advect::verify::inflow_problem(20),
                                advect::verify::open_box_problem(20)}) {
        const auto cfg = scenario_config(problem, 4);
        const auto baseline = impl::solve_single_task(cfg).state;
        expect_all_match(cfg, baseline, "fused open boundary");
    }
}

// Variable coefficients have no per-level phase inside the fused wavefront:
// every builder rejects the combination up front.
TEST(BoundaryParity, VariableCoefficientsRejectFusing) {
    const auto cfg = scenario_config(
        advect::verify::mms_variable_problem(
            20, core::VelocityKind::Deformational),
        4);
    for (const auto& e : impl::registry())
        EXPECT_THROW((void)e.solve(cfg), advect::plan::FuseGeometryError)
            << e.id;
}
