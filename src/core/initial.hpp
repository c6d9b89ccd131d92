#pragma once
/// \file initial.hpp
/// Initial condition and analytic solution for the test case (paper §II):
/// a Gaussian wave at the center of a periodic unit cube, advected without
/// change of shape by constant uniform velocity.

#include <array>
#include <vector>

#include "core/field.hpp"

namespace advect::core {

/// The global problem domain: a periodic cube of `n` points per dimension
/// with unit side length, so grid spacing delta = 1 / n (point x_i = i*delta).
struct Domain {
    int n = 420;  ///< points per dimension (the paper uses 420).

    [[nodiscard]] double delta() const { return 1.0 / n; }
    [[nodiscard]] Extents3 extents() const { return {n, n, n}; }
    [[nodiscard]] std::size_t volume() const { return extents().volume(); }
};

/// Gaussian wave parameters. The wave is centered at (0.5, 0.5, 0.5) with
/// width sigma; periodic images are handled by the minimum-image convention
/// (sigma << 1, so only the nearest image contributes measurably).
struct GaussianWave {
    double sigma = 0.08;
    double center = 0.5;
    /// Peak amplitude. 0 gives an identically-zero initial condition — the
    /// pure-manufactured-solution mode of verification, where the evolved
    /// state is exactly the (single-Fourier-mode, fully resolved) source
    /// field and convergence-order estimates are asymptotic from the
    /// coarsest grid.
    double amp = 1.0;

    /// Value of the initial condition at physical point (x, y, z) in [0,1)^3.
    [[nodiscard]] double operator()(double x, double y, double z) const;
};

/// Analytic solution of Equation 1 at time t: the initial wave translated by
/// c*t with periodic wrap.
[[nodiscard]] double analytic_solution(const GaussianWave& wave,
                                       const Velocity3& c, double t, double x,
                                       double y, double z);

/// The wave on a sub-block of the grid, evaluated one x row at a time. The
/// min-image displacement is separable (x depends only on i, y only on j,
/// z only on k), so each axis is tabulated once as squared displacements;
/// a row then costs one `exp` per point and nothing else. Every value is
/// bitwise equal to the per-point GaussianWave::operator() (initial
/// condition) or analytic_solution (translated wave) at that point.
class WaveRows {
  public:
    /// The initial condition on the block of extents `n` whose global
    /// origin is `origin`.
    WaveRows(const GaussianWave& wave, const Domain& dom, Extents3 n,
             const Index3& origin);
    /// The analytic solution at time t (the wave translated by c*t).
    WaveRows(const GaussianWave& wave, const Domain& dom, Extents3 n,
             const Index3& origin, const Velocity3& c, double t);

    /// Write the n.nx values of local row (j, k) to `out`.
    void row(int j, int k, double* out) const;

  private:
    double amp_;
    double denom_;  // 2 sigma^2
    std::array<std::vector<double>, 3> sq_;  // squared displacement per axis
};

/// Evaluate the initial condition on the sub-block of the global domain whose
/// global origin is `origin` and whose local interior extents match `f`.
/// Halo points are not written.
void fill_initial(Field3& f, const Domain& dom, const GaussianWave& wave,
                  const Index3& origin = {0, 0, 0});

}  // namespace advect::core
