#pragma once
/// \file problem.hpp
/// The complete test-case description (paper §II): periodic cube, Gaussian
/// initial wave, constant uniform velocity, explicit Lax-Wendroff stepping
/// at the maximum stable nu, with performance reported in GF from the
/// analytic 53 flops/point count.

#include "core/boundary.hpp"
#include "core/coeff_cache.hpp"
#include "core/coefficients.hpp"
#include "core/initial.hpp"
#include "core/norms.hpp"
#include "core/scenario.hpp"
#include "core/source.hpp"

namespace advect::core {

/// Full problem specification; `standard(n)` reproduces the paper's setup.
struct AdvectionProblem {
    Domain domain{};
    Velocity3 velocity{1.0, 1.0, 1.0};
    GaussianWave wave{};
    double nu = 1.0;  ///< time-step ratio Delta/delta; <= 1/max|c| for stability
    /// Manufactured-solution forcing (verification only; inactive by
    /// default). When active, the exact solution becomes the translated
    /// Gaussian plus the manufactured field (see core/source.hpp).
    SourceTerm source{};
    /// Velocity-field shape and per-face boundary policy
    /// (docs/SCENARIOS.md). The default is the paper's periodic
    /// constant-velocity cube; `velocity` above is the base velocity of
    /// whatever shape the scenario selects.
    Scenario scenario{};

    /// The paper's configuration: n^3 periodic grid, c = (1,1,1), maximum
    /// stable nu. (The paper runs n = 420; tests use smaller n.)
    [[nodiscard]] static AdvectionProblem standard(int n = 420);

    /// Stencil coefficients for this velocity and nu (the constant table;
    /// variable-coefficient scenarios use `coeff_field()` instead).
    [[nodiscard]] StencilCoeffs coeffs() const {
        return tensor_product_coeffs(velocity, nu);
    }
    /// The scenario's velocity shape bound to the base velocity.
    [[nodiscard]] VelocityField velocity_field() const {
        return {scenario.velocity, velocity, scenario.amplitude};
    }
    /// True when every cell uses the single `coeffs()` table (the
    /// bitwise-pinned fast path).
    [[nodiscard]] bool constant_coefficients() const {
        return scenario.constant_velocity();
    }
    /// Terms the stencil actually sums per point: the nonzero entries of
    /// `coeffs()` (StencilPlan compacts the rest away), or all 27 when the
    /// coefficients vary per cell.
    [[nodiscard]] int stencil_terms() const;
    /// Per-cell coefficient evaluator for variable-velocity scenarios.
    [[nodiscard]] CoeffField coeff_field() const {
        return {velocity_field(), nu, domain.delta()};
    }
    /// Time step Delta = nu * delta.
    [[nodiscard]] double dt() const { return nu * domain.delta(); }
    /// Simulated time after `steps` steps.
    [[nodiscard]] double time_at(int steps) const { return steps * dt(); }
};

/// The problem's SourceTerm bound to its discretisation, ready for per-step
/// Q evaluation at global indices (inactive when the problem has no source).
[[nodiscard]] SourceField make_source_field(const AdvectionProblem& p);

/// The problem's Dirichlet boundary data bound to its discretisation
/// (meaningful only when the scenario has open faces).
[[nodiscard]] BoundaryField make_boundary_field(const AdvectionProblem& p);

/// Total floating-point operations for `points` grid points over `steps`
/// steps at `flops` per point per step (53 by default, paper §II).
[[nodiscard]] std::size_t total_flops(std::size_t points, int steps,
                                      int flops = kFlopsPerPoint);

/// Performance in GF (1e9 flop/s) given measured (or modelled) seconds.
[[nodiscard]] double gflops(std::size_t points, int steps, double seconds,
                            int flops = kFlopsPerPoint);

/// Reference solution: single-threaded, single-task stepping of the full
/// domain (periodic halo fill + stencil + state swap). All nine
/// implementations are verified bitwise against this.
[[nodiscard]] Field3 run_reference(const AdvectionProblem& p, int steps);

/// Error norms of a computed state against the analytic solution at the time
/// reached after `steps` steps (plus the manufactured field when the source
/// is active), for the block of `state`'s extents at global `origin`.
/// Bitwise contract: l1, l2 and linf equal diff_norms(state, exact) for an
/// `exact` field filled point by point from analytic_solution and
/// SourceTerm::manufactured. The exact values are generated one x row at a
/// time (core::WaveRows) and the |state - exact| sums run in the same k-j-i
/// order in the same pass, so no scratch field is allocated.
[[nodiscard]] Norms error_vs_analytic(const AdvectionProblem& p,
                                      const Field3& state, int steps,
                                      const Index3& origin = {0, 0, 0});

}  // namespace advect::core
