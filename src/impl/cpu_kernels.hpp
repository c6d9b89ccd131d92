#pragma once
/// \file cpu_kernels.hpp
/// Thread-parallel building blocks shared by the CPU sides of all
/// implementations: the periodic halo copy (paper Step 1), the stencil
/// update (Step 2), the new-to-current state copy (Step 3), plus small
/// utilities (timing, global assembly, result finishing).

#include "core/coeff_cache.hpp"
#include "core/rows.hpp"
#include "impl/config.hpp"
#include "omp/parallel_for.hpp"

namespace advect::impl {

/// Wall-clock seconds from a monotonic clock (the substrate's
/// system_clock; the paper uses the Fortran intrinsic of that name).
[[nodiscard]] double now_seconds();

/// Step 1 for the single-task case: periodic halo copies within one field,
/// dimension-serialized, rows parallelised across the team (the paper
/// parallelises the outer loops of the doubly nested copy loops).
void halo_fill_parallel(advect::omp::ThreadTeam& team, core::Field3& f);

/// Step 2: apply the stencil over `rows`, scheduled across the team.
void stencil_parallel(advect::omp::ThreadTeam& team,
                      const core::StencilCoeffs& a, const core::Field3& in,
                      core::Field3& out, const core::RowSpace& rows,
                      advect::omp::Schedule schedule =
                          advect::omp::Schedule::Static);

/// Step 2, variable-coefficient scenarios: the same row sweep reading each
/// cell's coefficients from the per-rank cache (bitwise-shared arithmetic
/// with the reference loop; see core/coeff_cache.hpp).
void stencil_var_parallel(advect::omp::ThreadTeam& team,
                          const core::CoeffCache& cache,
                          const core::Field3& in, core::Field3& out,
                          const core::RowSpace& rows,
                          advect::omp::Schedule schedule =
                              advect::omp::Schedule::Static);

/// Step 3 over part of the box: copy the new state back to the current
/// state over `rows` (the cpu_gpu_* walls). The paper's CPU codes copy the
/// whole box too; the plan executor runs that case as a buffer swap, and
/// the model prices the copy per machine (MachineSpec::copy_bytes_per_point).
void copy_parallel(advect::omp::ThreadTeam& team, const core::Field3& src,
                   core::Field3& dst, const core::RowSpace& rows);

/// Write `local`'s interior into `global` at `origin`. Writes are disjoint
/// across ranks, so concurrent assembly needs no locking.
void write_block(core::Field3& global, const core::Field3& local,
                 const core::Index3& origin);

/// Build the SolveResult: attach analytic-error norms to the final state.
[[nodiscard]] SolveResult finish_result(const SolverConfig& cfg,
                                        core::Field3 state, double wall);

}  // namespace advect::impl
