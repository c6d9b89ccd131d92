#pragma once
/// \file plan_executor.hpp
/// Executes a plan::StepPlan over the real msg/omp/gpu substrates: one
/// substrate call per plan task, in the plan's issue order. This is consumer
/// (1) of the step-plan IR (docs/ARCHITECTURE.md) — the nine §IV drivers
/// build their plan and loop run_step(); the imperative step bodies they
/// used to contain live here, dispatched on Op.
///
/// When tracing is enabled, every executed task records one span in
/// category "plan", named after the task and stamped with the task's
/// resource lane — the executed twin of the DES-lowered schedule, which the
/// parity tests compare structurally.

#include <vector>

#include "core/boundary.hpp"
#include "core/coeff_cache.hpp"
#include "core/fused.hpp"
#include "core/rows.hpp"
#include "impl/config.hpp"
#include "impl/exchange.hpp"
#include "impl/gpu_task.hpp"
#include "msg/comm.hpp"
#include "omp/thread_team.hpp"
#include "plan/ir.hpp"

namespace advect::impl {

/// The runtime objects a plan's tasks operate on. Members a plan does not
/// need (per its substrate flags) stay null.
struct ExecContext {
    const SolverConfig* cfg = nullptr;
    const core::StencilCoeffs* coeffs = nullptr;
    core::Field3* cur = nullptr;  ///< current host state (the mirror in F/G)
    core::Field3* nxt = nullptr;  ///< new host state (unused by E/F/G)
    advect::omp::ThreadTeam* team = nullptr;
    msg::Communicator* comm = nullptr;
    HaloExchange* exchange = nullptr;
    gpu::Device* device = nullptr;
    std::vector<gpu::Stream>* streams = nullptr;
    DeviceField* d_cur = nullptr;
    DeviceField* d_nxt = nullptr;
    GpuStaging* staging = nullptr;

    /// Manufactured-source context (verification): null or inactive means no
    /// source arithmetic anywhere. `origin` is the global index of the local
    /// field's (0,0,0); `time_level` points at the harness-owned counter of
    /// completed time steps (shared between a fused executor and its
    /// remainder executor), read at task-issue time.
    const core::SourceField* source = nullptr;
    core::Index3 origin{};
    const int* time_level = nullptr;

    /// Scenario context (docs/SCENARIOS.md). All three stay null for the
    /// default periodic constant-velocity scenario; `boundary` and
    /// `scenario` are required when the plan declares open faces,
    /// `coeff_cache` when the plan is variable-coefficient. The cache is
    /// built once per rank at setup (the coefficients are steady), never in
    /// the timed loop.
    const core::Scenario* scenario = nullptr;
    const core::BoundaryField* boundary = nullptr;
    const core::CoeffCache* coeff_cache = nullptr;
};

class PlanExecutor {
  public:
    /// Prebuilds per-task row spaces (outside the timed loop, exactly as the
    /// hand-written drivers constructed their RowSpaces up front).
    PlanExecutor(const plan::StepPlan& plan, ExecContext ctx);

    /// Execute one time step.
    void run_step();

  private:
    void run_host_issue();
    void run_team_stages();
    void run_task(const plan::Task& task, std::size_t index);
    /// run_task under a chaos session: retries launches the injector failed
    /// (each retry draws a fresh occurrence, so retries terminate).
    void run_task_retrying(const plan::Task& task, std::size_t index);
    /// Fused cpu Stencil: the team drains cache-sized tiles, each advanced
    /// `fuse` steps through per-thread ping-pong scratch (the tentpole of
    /// docs/PERF.md "Temporal blocking").
    void run_fused_stencil(std::size_t index, plan::Sched schedule);
    /// Per-thread scratch slice for apply_fused_tile.
    [[nodiscard]] std::span<double> scratch(int thread_id);
    [[nodiscard]] gpu::Stream& stream(int index);
    /// True when a manufactured source is wired and active.
    [[nodiscard]] bool has_source() const {
        return ctx_.source != nullptr && ctx_.source->active();
    }
    /// Time level of the state this step starts from.
    [[nodiscard]] int base_level() const {
        return ctx_.time_level != nullptr
                   ? *ctx_.time_level
                   : step_ * (plan_->fuse < 1 ? 1 : plan_->fuse);
    }

    const plan::StepPlan* plan_;
    ExecContext ctx_;
    /// HostIssue issue order; empty means plan order. Populated only when
    /// cfg.schedule_seed != 0 (verification's schedule exploration): a
    /// seeded topological shuffle of the task graph that keeps the relative
    /// order of communication-class ops and of device-class ops (their FIFO
    /// progressions are load-bearing across ranks and streams) while freely
    /// permuting compute tasks within their dependencies.
    std::vector<std::size_t> order_;
    std::vector<core::RowSpace> rows_;  ///< per task; empty where unused
    /// Per task: the fused tile decomposition of a Stencil with
    /// payload.fuse > 1 (empty elsewhere).
    std::vector<core::FusedSweepPlan> fused_;
    std::vector<double> scratch_;       ///< per-thread fused-tile scratch
    std::size_t scratch_stride_ = 0;    ///< doubles per thread in scratch_
    std::vector<std::size_t> stages_;   ///< TeamStages: Stencil/Copy tasks
    int master_task_ = -1;              ///< TeamStages: MasterExchange task
    /// The whole-box Copy closing the step, run as an O(1) exchange of the
    /// cur/nxt storage (TeamStages: after the region joins); -1 when the
    /// plan has none (cpu_gpu_* copy their walls row by row).
    int swap_task_ = -1;
    int step_ = 0;  ///< steps completed; the chaos injection coordinate
};

}  // namespace advect::impl
