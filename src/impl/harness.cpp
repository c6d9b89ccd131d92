#include "impl/harness.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/box_partition.hpp"
#include "core/decomposition.hpp"
#include "impl/cpu_kernels.hpp"
#include "impl/device_field.hpp"
#include "impl/exchange.hpp"
#include "impl/gpu_task.hpp"
#include "impl/plan_executor.hpp"
#include "plan/builders.hpp"

namespace advect::impl {

namespace omp = advect::omp;

namespace {

/// Split `steps` into fused super-steps plus unfused remainder steps. The
/// remainder runs through a second, fuse-1 plan of the same implementation
/// over the same runtime state (fields keep their deep halos; the exchange
/// and staging simply move more than the single-step minimum, which is
/// harmless: a deeper halo of exact time-t data is a superset of the
/// 1-deep halo).
struct FusedSchedule {
    int supers = 0;     ///< fused super-steps (each advances plan.fuse)
    int remainder = 0;  ///< trailing unfused steps
};

FusedSchedule fused_schedule(const plan::StepPlan& plan, int steps) {
    const int fuse = plan.fuse < 1 ? 1 : plan.fuse;
    return {steps / fuse, fuse > 1 ? steps % fuse : 0};
}

/// The fuse-1 plan for the remainder steps (nullopt when none are needed).
/// Inherits the fused plan's scenario stamps so remainder steps keep filling
/// open boundaries (var_coeff forces fuse = 1, so it never reaches here).
std::optional<plan::StepPlan> remainder_plan(const plan::StepPlan& plan,
                                             const SolverConfig& cfg,
                                             const FusedSchedule& sched,
                                             core::Extents3 local) {
    if (sched.remainder == 0) return std::nullopt;
    return plan::build_step_plan(plan.impl_id,
                                 {local, cfg.box_thickness, /*fuse=*/1,
                                  plan.open_faces, plan.var_coeff});
}

/// Per-rank scenario runtime, built once at setup (outside the timed loop):
/// the Dirichlet boundary data and, for variable-velocity scenarios, the
/// compacted coefficient row cache over this rank's block.
struct ScenarioRuntime {
    core::BoundaryField boundary;
    std::optional<core::CoeffCache> cache;

    ScenarioRuntime(const core::AdvectionProblem& p, core::Extents3 local,
                    core::Index3 origin)
        : boundary(core::make_boundary_field(p)) {
        if (!p.constant_coefficients())
            cache.emplace(p.coeff_field(), local, origin);
    }

    /// Point the context at this runtime; `p` must outlive the executor.
    void wire(ExecContext& ctx, const core::AdvectionProblem& p) const {
        ctx.scenario = &p.scenario;
        ctx.boundary = &boundary;
        ctx.coeff_cache = cache ? &*cache : nullptr;
    }
};

/// §IV-A: single task, host state only.
SolveResult run_single_host(const plan::StepPlan& plan,
                            const SolverConfig& cfg) {
    const auto& p = cfg.problem;
    const auto coeffs = p.coeffs();
    const auto n = p.domain.extents();

    core::Field3 cur(n, plan.fuse);
    core::Field3 nxt(n, plan.fuse);
    core::fill_initial(cur, p.domain, p.wave);

    omp::ThreadTeam team(cfg.threads_per_task);

    const core::SourceField source = core::make_source_field(p);
    const ScenarioRuntime scen(p, n, {0, 0, 0});
    int level = 0;  // completed time steps, shared with the remainder plan

    ExecContext ctx;
    ctx.cfg = &cfg;
    ctx.coeffs = &coeffs;
    ctx.cur = &cur;
    ctx.nxt = &nxt;
    ctx.team = &team;
    ctx.source = &source;
    ctx.time_level = &level;
    scen.wire(ctx, p);
    PlanExecutor exec(plan, ctx);

    const FusedSchedule sched = fused_schedule(plan, cfg.steps);
    const auto rem_plan = remainder_plan(plan, cfg, sched, n);
    std::optional<PlanExecutor> rem_exec;
    if (rem_plan) rem_exec.emplace(*rem_plan, ctx);

    const int fuse = plan.fuse < 1 ? 1 : plan.fuse;
    const double t0 = now_seconds();
    for (int s = 0; s < sched.supers; ++s) {
        exec.run_step();
        level += fuse;
    }
    for (int s = 0; s < sched.remainder; ++s) {
        rem_exec->run_step();
        ++level;
    }
    const double t1 = now_seconds();

    return finish_result(cfg, std::move(cur), t1 - t0);
}

/// §IV-E: single device, problem resident in device memory; the initial
/// upload and final download are not timed.
SolveResult run_single_resident(const plan::StepPlan& plan,
                                const SolverConfig& cfg) {
    const auto& p = cfg.problem;
    const auto n = p.domain.extents();

    gpu::Device device(cfg.gpu_props, device_workers(cfg.gpu_props, 1));
    upload_coefficients(device, p.coeffs());
    std::vector<gpu::Stream> streams;
    for (int k = 0; k < plan.streams; ++k)
        streams.push_back(device.create_stream());

    core::Field3 host(n, plan.fuse);
    core::fill_initial(host, p.domain, p.wave);

    DeviceField d_cur(device, n, plan.fuse);
    DeviceField d_nxt(device, n, plan.fuse);
    streams[0].memcpy_h2d(d_cur.buffer(), 0, host.raw());

    const core::SourceField source = core::make_source_field(p);
    const ScenarioRuntime scen(p, n, {0, 0, 0});
    int level = 0;

    ExecContext ctx;
    ctx.cfg = &cfg;
    ctx.device = &device;
    ctx.streams = &streams;
    ctx.d_cur = &d_cur;
    ctx.d_nxt = &d_nxt;
    ctx.source = &source;
    ctx.time_level = &level;
    scen.wire(ctx, p);
    PlanExecutor exec(plan, ctx);

    const FusedSchedule sched = fused_schedule(plan, cfg.steps);
    const auto rem_plan = remainder_plan(plan, cfg, sched, n);
    std::optional<PlanExecutor> rem_exec;
    if (rem_plan) rem_exec.emplace(*rem_plan, ctx);

    const int fuse = plan.fuse < 1 ? 1 : plan.fuse;
    // "The CPU and GPU synchronize immediately before timer calls."
    streams[0].synchronize();
    const double t0 = now_seconds();
    for (int s = 0; s < sched.supers; ++s) {
        exec.run_step();
        level += fuse;
    }
    for (int s = 0; s < sched.remainder; ++s) {
        rem_exec->run_step();
        ++level;
    }
    streams[0].synchronize();
    const double t1 = now_seconds();

    streams[0].memcpy_d2h(host.raw(), d_cur.buffer(), 0);
    streams[0].synchronize();
    return finish_result(cfg, std::move(host), t1 - t0);
}

}  // namespace

RankOutcome run_plan_rank(const plan::StepPlan& plan, const SolverConfig& cfg,
                          const core::Decomp3& decomp, msg::Communicator& comm,
                          gpu::Device* device) {
    const auto& p = cfg.problem;
    const int rank = comm.rank();
    const auto n = decomp.local_extents(rank);
    const auto origin = decomp.origin(rank);
    const auto coeffs = p.coeffs();

    // §IV-F/G maintain only a host shell mirror (`cur`), no second host
    // field; the CPU implementations keep the full cur/nxt pair. Halos (and
    // the exchange below) are `plan.fuse` deep so one exchange feeds a whole
    // fused super-step.
    core::Field3 cur(n, plan.fuse);
    core::fill_initial(cur, p.domain, p.wave, origin);
    std::optional<core::Field3> nxt;
    if (!plan.mirror_only) nxt.emplace(n, plan.fuse);

    omp::ThreadTeam team(cfg.threads_per_task);
    HaloExchange exchange(decomp, rank, plan.fuse);

    const core::SourceField source = core::make_source_field(p);
    const ScenarioRuntime scen(p, n, origin);
    int level = 0;

    ExecContext ctx;
    ctx.cfg = &cfg;
    ctx.coeffs = &coeffs;
    ctx.cur = &cur;
    ctx.nxt = nxt ? &*nxt : nullptr;
    ctx.team = &team;
    ctx.comm = &comm;
    ctx.exchange = &exchange;
    ctx.source = &source;
    ctx.origin = origin;
    ctx.time_level = &level;
    scen.wire(ctx, p);

    std::vector<gpu::Stream> streams;
    std::optional<core::BoxPartition> box;
    std::optional<DeviceField> d_cur;
    std::optional<DeviceField> d_nxt;
    std::optional<GpuStaging> staging;
    if (plan.uses_gpu) {
        for (int k = 0; k < plan.streams; ++k)
            streams.push_back(device->create_stream());
        d_cur.emplace(*device, n, plan.fuse);
        d_nxt.emplace(*device, n, plan.fuse);
        if (plan.staging == plan::StagingKind::BoxShell) {
            box.emplace(n, cfg.box_thickness, plan.fuse);
            staging.emplace(*device, box->gpu_halo_shell(),
                            box->block_boundary_shell());
        } else {
            staging.emplace(*device, mpi_halo_regions(n, plan.fuse),
                            boundary_shell_regions(n, plan.fuse));
        }
        streams[0].memcpy_h2d(d_cur->buffer(), 0, cur.raw());
        streams[0].synchronize();

        ctx.device = device;
        ctx.streams = &streams;
        ctx.d_cur = &*d_cur;
        ctx.d_nxt = &*d_nxt;
        ctx.staging = &*staging;
    }

    PlanExecutor exec(plan, ctx);

    const FusedSchedule sched = fused_schedule(plan, cfg.steps);
    const auto rem_plan = remainder_plan(plan, cfg, sched, n);
    std::optional<PlanExecutor> rem_exec;
    if (rem_plan) rem_exec.emplace(*rem_plan, ctx);

    const int fuse = plan.fuse < 1 ? 1 : plan.fuse;
    comm.barrier();  // "a barrier immediately before measuring the start"
    const double t0 = now_seconds();
    for (int s = 0; s < sched.supers; ++s) {
        exec.run_step();
        level += fuse;
    }
    for (int s = 0; s < sched.remainder; ++s) {
        rem_exec->run_step();
        ++level;
    }
    comm.barrier();
    const double t1 = now_seconds();
    // Every rank computes the same reduced wall time.
    const double wall = comm.allreduce_max(t1 - t0);

    switch (plan.finalize) {
        case plan::Finalize::HostState:
            break;
        case plan::Finalize::DeviceState:
            streams[0].memcpy_d2h(cur.raw(), d_cur->buffer(), 0);
            streams[0].synchronize();
            break;
        case plan::Finalize::BlockMerge: {
            // Assemble: walls from the host state, block from the device.
            core::Field3 block_out(n, plan.fuse);
            streams[0].memcpy_d2h(block_out.raw(), d_cur->buffer(), 0);
            streams[0].synchronize();
            cur.copy_region_from(block_out, box->gpu_block());
            break;
        }
    }
    return {std::move(cur), wall};
}

SolveResult run_plan_solver(const std::string& impl_id,
                            const SolverConfig& cfg) {
    const auto& p = cfg.problem;

    const std::string scen_err = p.scenario.validate_error();
    if (!scen_err.empty())
        throw std::invalid_argument("invalid scenario: " + scen_err);
    const bool var = !p.constant_coefficients();

    // The single-task implementations (§IV-A/E) ignore the decomposition:
    // probe the plan on the full domain and run it directly.
    const plan::StepPlan probe = plan::build_step_plan(
        impl_id, {p.domain.extents(), cfg.box_thickness, cfg.fuse,
                  p.scenario.open_faces(), var});
    if (!probe.uses_comm)
        return probe.resident ? run_single_resident(probe, cfg)
                              : run_single_host(probe, cfg);

    const auto decomp = core::make_decomposition(p.domain.extents(),
                                                 cfg.ntasks);
    // Build every rank's plan up front, on the calling thread: a geometry
    // the builder rejects (e.g. a box_thickness leaving rank r with an empty
    // GPU block, or a fuse factor whose deepened halo exceeds a rank's local
    // box) must throw here, not on a rank thread while the other ranks sit
    // in a barrier.
    std::vector<plan::StepPlan> plans;
    plans.reserve(static_cast<std::size_t>(decomp.nranks()));
    for (int r = 0; r < decomp.nranks(); ++r) {
        try {
            plans.push_back(plan::build_step_plan(
                impl_id,
                {decomp.local_extents(r), cfg.box_thickness, cfg.fuse,
                 core::local_open_faces(p.scenario, decomp, r), var}));
        } catch (const plan::FuseGeometryError& e) {
            throw plan::FuseGeometryError("rank " + std::to_string(r) + ": " +
                                          e.what());
        }
    }

    const auto coeffs = p.coeffs();
    std::optional<DevicePool> pool;
    if (plans[0].uses_gpu)
        pool.emplace(cfg.gpu_props, decomp.nranks(), cfg.tasks_per_gpu,
                     coeffs);

    core::Field3 global(p.domain.extents());
    double wall = 0.0;

    msg::run_ranks(decomp.nranks(), [&](msg::Communicator& comm) {
        const int rank = comm.rank();
        const plan::StepPlan& plan = plans[static_cast<std::size_t>(rank)];
        gpu::Device* device =
            plan.uses_gpu ? &pool->device_for_rank(rank) : nullptr;
        RankOutcome out = run_plan_rank(plan, cfg, decomp, comm, device);
        write_block(global, out.state, decomp.origin(rank));
        // Every rank holds the same reduced wall time; rank 0's write is
        // ordered before run_ranks returns, so no lock is needed.
        if (rank == 0) wall = out.wall_seconds;
    });

    return finish_result(cfg, std::move(global), wall);
}

}  // namespace advect::impl
