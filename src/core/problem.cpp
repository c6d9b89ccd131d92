#include "core/problem.hpp"

#include <algorithm>
#include <vector>

#include "core/halo.hpp"
#include "core/rows.hpp"
#include "core/stencil.hpp"

namespace advect::core {

AdvectionProblem AdvectionProblem::standard(int n) {
    AdvectionProblem p;
    p.domain.n = n;
    p.velocity = {1.0, 1.0, 1.0};
    p.nu = max_stable_nu(p.velocity);
    return p;
}

int AdvectionProblem::stencil_terms() const {
    if (!constant_coefficients()) return 27;
    const StencilCoeffs a = coeffs();
    return static_cast<int>(std::count_if(
        a.a.begin(), a.a.end(), [](double c) { return c != 0.0; }));
}

std::size_t total_flops(std::size_t points, int steps, int flops) {
    return points * static_cast<std::size_t>(steps) *
           static_cast<std::size_t>(flops);
}

double gflops(std::size_t points, int steps, double seconds, int flops) {
    return static_cast<double>(total_flops(points, steps, flops)) / seconds /
           1e9;
}

SourceField make_source_field(const AdvectionProblem& p) {
    return {p.source, p.velocity_field(), p.domain.n, p.domain.delta(),
            p.dt()};
}

BoundaryField make_boundary_field(const AdvectionProblem& p) {
    return {p.wave, p.velocity, p.source, p.domain.n, p.domain.delta(),
            p.dt()};
}

Field3 run_reference(const AdvectionProblem& p, int steps) {
    const auto coeffs = p.coeffs();
    const SourceField sf = make_source_field(p);
    const unsigned open = p.scenario.open_faces();
    const BoundaryField bf = make_boundary_field(p);
    const bool var = !p.constant_coefficients();
    CoeffCache cache;
    RowSpace rows;
    if (var) {
        cache = CoeffCache(p.coeff_field(), p.domain.extents(), {0, 0, 0});
        rows = RowSpace({Range3{{0, 0, 0},
                                {p.domain.n, p.domain.n, p.domain.n}}});
    }
    Field3 cur(p.domain.extents());
    Field3 nxt(p.domain.extents());
    fill_initial(cur, p.domain, p.wave);
    for (int s = 0; s < steps; ++s) {
        // Dimension-serialized fill; open faces overwrite their staged
        // halo slabs right after the dimension's periodic fill, the same
        // per-dim interleaving the distributed plans use (corners
        // propagate through the later stages either way).
        for (int d = 0; d < 3; ++d) {
            fill_periodic_halo_dim(cur, d);
            if (open)
                fill_boundary_dim(cur, d, 0, open, p.scenario.faces, bf,
                                  {0, 0, 0}, s);
        }
        if (var)
            apply_stencil_var_rows(cache, cur, nxt, rows, 0, rows.size());
        else
            apply_stencil(coeffs, cur, nxt);
        if (sf.active()) add_source(nxt, sf, {0, 0, 0}, nxt.interior(), s);
        cur.swap(nxt);
    }
    return cur;
}

Norms error_vs_analytic(const AdvectionProblem& p, const Field3& state,
                        int steps, const Index3& origin) {
    const auto n = state.extents();
    const double t = p.time_at(steps);
    const double d = p.domain.delta();
    const WaveRows wave(p.wave, p.domain, n, origin, p.velocity, t);
    std::vector<double> row(static_cast<std::size_t>(n.nx));
    double* exact = row.data();
    NormSums sums;
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j) {
            wave.row(j, k, exact);
            // By linearity the exact solution gains the manufactured field
            // (which starts at zero, so the initial condition is unchanged).
            if (p.source.active())
                for (int i = 0; i < n.nx; ++i)
                    exact[i] += p.source.manufactured(
                        (origin.i + i) * d, (origin.j + j) * d,
                        (origin.k + k) * d, t);
            const double* u = state.ptr(0, j, k);
            for (int i = 0; i < n.nx; ++i) sums.add(u[i] - exact[i]);
        }
    return sums.finish(n.volume());
}

}  // namespace advect::core
