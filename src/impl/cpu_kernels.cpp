#include "impl/cpu_kernels.hpp"

#include <chrono>
#include <cstring>

#include "core/halo.hpp"

namespace advect::impl {

namespace omp = advect::omp;

double now_seconds() {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double>(t).count();
}

void halo_fill_parallel(omp::ThreadTeam& team, core::Field3& f) {
    const auto plan = core::HaloPlan::make(f.extents(), f.halo_width());
    for (int d = 0; d < 3; ++d) {
        const auto& e = plan.dims[static_cast<std::size_t>(d)];
        // halo <- opposite boundary plane; both copies of a dimension are
        // independent, so fold them into one parallel loop over rows.
        const auto lo_ext = e.recv_low.extents();
        const std::int64_t rows_lo =
            static_cast<std::int64_t>(lo_ext.ny) * lo_ext.nz;
        const auto hi_ext = e.recv_high.extents();
        const std::int64_t rows_hi =
            static_cast<std::int64_t>(hi_ext.ny) * hi_ext.nz;
        // Offset from a halo point to its periodic source along dim d.
        const int n_d = f.extents()[d];
        auto copy_rows_of = [&f, d](const core::Range3& dst_region, int shift,
                                    std::int64_t lo, std::int64_t hi) {
            const auto ext = dst_region.extents();
            const std::size_t row_bytes =
                static_cast<std::size_t>(ext.nx) * sizeof(double);
            for (std::int64_t r = lo; r < hi; ++r) {
                const int j = dst_region.lo.j + static_cast<int>(r % ext.ny);
                const int k = dst_region.lo.k + static_cast<int>(r / ext.ny);
                if (d == 0) {
                    // x faces are depth points per row, shifted along the
                    // contiguous dimension.
                    for (int i = dst_region.lo.i; i < dst_region.hi.i; ++i)
                        f(i, j, k) = f(i + shift, j, k);
                } else {
                    // y/z faces shift in j or k only, so source and
                    // destination rows are both x-contiguous: one memcpy.
                    const int sj = d == 1 ? j + shift : j;
                    const int sk = d == 2 ? k + shift : k;
                    std::memcpy(f.ptr(dst_region.lo.i, j, k),
                                f.ptr(dst_region.lo.i, sj, sk), row_bytes);
                }
            }
        };
        omp::parallel_for(
            team, 0, rows_lo + rows_hi, omp::Schedule::Static,
            [&](std::int64_t lo, std::int64_t hi) {
                // Low halo at -1 reads plane n-1 (shift +n); high halo at n
                // reads plane 0 (shift -n).
                const std::int64_t split_lo = std::min(hi, rows_lo);
                if (lo < rows_lo)
                    copy_rows_of(e.recv_low, n_d, lo, split_lo);
                if (hi > rows_lo)
                    copy_rows_of(e.recv_high, -n_d,
                                 std::max<std::int64_t>(0, lo - rows_lo),
                                 hi - rows_lo);
            });
    }
}

void stencil_parallel(omp::ThreadTeam& team, const core::StencilCoeffs& a,
                      const core::Field3& in, core::Field3& out,
                      const core::RowSpace& rows, omp::Schedule schedule) {
    omp::parallel_for(team, 0, rows.size(), schedule,
                      [&a, &in, &out, &rows](std::int64_t lo, std::int64_t hi) {
                          core::apply_stencil_rows(a, in, out, rows, lo, hi);
                      });
}

void stencil_var_parallel(omp::ThreadTeam& team, const core::CoeffCache& cache,
                          const core::Field3& in, core::Field3& out,
                          const core::RowSpace& rows, omp::Schedule schedule) {
    omp::parallel_for(
        team, 0, rows.size(), schedule,
        [&cache, &in, &out, &rows](std::int64_t lo, std::int64_t hi) {
            core::apply_stencil_var_rows(cache, in, out, rows, lo, hi);
        });
}

void copy_parallel(omp::ThreadTeam& team, const core::Field3& src,
                   core::Field3& dst, const core::RowSpace& rows) {
    omp::parallel_for(team, 0, rows.size(), omp::Schedule::Static,
                      [&src, &dst, &rows](std::int64_t lo, std::int64_t hi) {
                          core::copy_rows(src, dst, rows, lo, hi);
                      });
}

void write_block(core::Field3& global, const core::Field3& local,
                 const core::Index3& origin) {
    core::copy_box(local.ptr(0, 0, 0), local.x_stride(), local.xy_stride(),
                   global.ptr(origin.i, origin.j, origin.k), global.x_stride(),
                   global.xy_stride(), local.extents());
}

SolveResult finish_result(const SolverConfig& cfg, core::Field3 state,
                          double wall) {
    SolveResult r;
    r.error = core::error_vs_analytic(cfg.problem, state, cfg.steps);
    r.state = std::move(state);
    r.wall_seconds = wall;
    return r;
}

}  // namespace advect::impl
