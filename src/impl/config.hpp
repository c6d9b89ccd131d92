#pragma once
/// \file config.hpp
/// Common configuration and result types for the nine implementations of
/// the paper's §IV. Every implementation consumes the same SolverConfig and
/// produces the same SolveResult, so tests and examples can iterate the
/// registry uniformly.

#include "core/problem.hpp"
#include "gpu/types.hpp"

namespace advect::impl {

/// Knobs shared by the implementations; each implementation reads the
/// subset that applies to it (documented per field).
struct SolverConfig {
    core::AdvectionProblem problem = core::AdvectionProblem::standard(24);
    int steps = 8;

    /// MPI tasks (implementations B, C, D, F, G, H, I).
    int ntasks = 1;
    /// OpenMP threads per MPI task (all CPU-computing implementations).
    int threads_per_task = 1;

    /// Simulated-GPU generation (E, F, G, H, I).
    gpu::DeviceProps gpu_props = gpu::DeviceProps::tesla_c2050();
    /// GPU thread-block xy tile (E, F, G, H, I). Launched blocks are
    /// (bx+2, by+2) threads: halo threads only perform memory operations.
    int block_x = 32;
    int block_y = 8;
    /// MPI tasks sharing one GPU device (F, G, H, I): "the number of MPI
    /// tasks per GPU is a tunable performance parameter" (§IV-F).
    int tasks_per_gpu = 1;

    /// CPU box-wall thickness (H, I), the Fig. 1 load-balance parameter.
    int box_thickness = 1;

    /// Temporal-blocking fuse factor (all implementations): advance `fuse`
    /// time steps per fused super-step from halos `fuse` deep, exchanged
    /// once (docs/PERF.md "Temporal blocking"). steps % fuse remainder steps
    /// run through an unfused plan. 1 disables fusing. Results are
    /// bitwise-identical for every legal value.
    int fuse = 1;

    /// Verification-only (docs/VERIFICATION.md "Schedule exploration"):
    /// when nonzero, HostIssue plan executors issue ready tasks in a seeded
    /// dependency-respecting permutation instead of plan order, to prove the
    /// executed state does not depend on FIFO issue order. 0 (the default)
    /// keeps exact plan order.
    unsigned schedule_seed = 0;
};

/// Outcome of a solve: the assembled global state, wall time of the stepping
/// loop, and the error norms against the analytic solution.
struct SolveResult {
    core::Field3 state;
    double wall_seconds = 0.0;
    core::Norms error;

    /// GF over the measured time, counting the flops that ran: the paper's
    /// 53 per point per step (§II) for the full 27-term stencil, fewer for
    /// a zero-coefficient-compacted one (1 for the Courant-1 shift).
    [[nodiscard]] double gf(const SolverConfig& cfg) const {
        return core::gflops(cfg.problem.domain.volume(), cfg.steps,
                            wall_seconds,
                            core::flops_per_point(cfg.problem.stencil_terms()));
    }
};

}  // namespace advect::impl
