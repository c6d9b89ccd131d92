/// \file test_plan_parity.cpp
/// The tentpole guarantee of the plan IR: for every implementation, the
/// trace the *executed* code emits and the task graph the *DES model*
/// simulates are the same plan. One rank's per-step "plan" spans must match
/// the plan's task names, lanes and dependency order, and the modelled
/// step_spans must contain exactly the plan's tasks — so a driver, builder,
/// or lowering that drifts from the others fails here, not in a bench.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/decomposition.hpp"
#include "core/initial.hpp"
#include "impl/exchange.hpp"
#include "impl/plan_executor.hpp"
#include "impl/registry.hpp"
#include "msg/comm.hpp"
#include "omp/thread_team.hpp"
#include "plan/builders.hpp"
#include "sched/node_model.hpp"
#include "sched/report.hpp"
#include "trace/span.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace model = advect::model;
namespace msg = advect::msg;
namespace omp = advect::omp;
namespace plan = advect::plan;
namespace sched = advect::sched;
namespace trace = advect::trace;

namespace {

constexpr int kN = 24;
constexpr int kSteps = 4;
constexpr int kTasks = 4;
constexpr int kBox = 2;

/// The plan rank 0 executes under the test configuration.
plan::StepPlan rank0_plan(const impl::Implementation& entry) {
    core::Extents3 local{kN, kN, kN};
    if (entry.uses_mpi) {
        const auto decomp =
            core::make_decomposition({kN, kN, kN}, kTasks);
        local = decomp.local_extents(0);
    }
    return plan::build_step_plan(entry.id, {local, kBox});
}

/// Rank-0 "plan"-category spans of a traced solve, in emission order.
std::vector<trace::Span> rank0_plan_spans(const impl::Implementation& entry) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(kN);
    cfg.steps = kSteps;
    cfg.ntasks = entry.uses_mpi ? kTasks : 1;
    cfg.threads_per_task = 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    cfg.box_thickness = kBox;

    trace::reset();
    trace::set_enabled(true);
    (void)entry.solve(cfg);
    trace::set_enabled(false);

    std::vector<trace::Span> out;
    // Single-rank implementations (A, E) run outside msg ranks and stamp
    // rank -1; MPI implementations stamp real ranks, keep rank 0's.
    for (const auto& s : trace::snapshot())
        if (std::strcmp(s.category, "plan") == 0 && s.rank <= 0)
            out.push_back(s);
    // One rank thread emits its spans with monotonically increasing end
    // times (§IV-D's master span starts mid-region, so sort by t1, not t0).
    std::stable_sort(out.begin(), out.end(),
                     [](const trace::Span& a, const trace::Span& b) {
                         return a.t1 < b.t1;
                     });
    return out;
}

}  // namespace

/// Executed structure == planned structure, for every implementation: each
/// step emits exactly the plan's tasks on the plan's lanes, and every
/// planned dependency edge is respected by the measured timestamps.
TEST(PlanParity, ExecutedTraceMatchesPlanEveryStep) {
    for (const auto& entry : impl::registry()) {
        SCOPED_TRACE(entry.id);
        const plan::StepPlan p = rank0_plan(entry);
        const auto spans = rank0_plan_spans(entry);
        const std::size_t per_step = p.tasks.size();
        ASSERT_EQ(spans.size(), per_step * kSteps);

        for (int s = 0; s < kSteps; ++s) {
            const std::size_t base = static_cast<std::size_t>(s) * per_step;

            // Same tasks on the same lanes, step after step.
            std::map<std::string, trace::Lane> seen;
            for (std::size_t i = 0; i < per_step; ++i)
                seen.emplace(spans[base + i].name, spans[base + i].lane);
            ASSERT_EQ(seen.size(), per_step) << "step " << s;
            for (const auto& t : p.tasks) {
                const auto it = seen.find(t.name);
                ASSERT_NE(it, seen.end()) << "step " << s << ": " << t.name;
                EXPECT_EQ(it->second, t.lane) << "step " << s << ": "
                                              << t.name;
            }

            // Host-issued steps replay the plan's issue order exactly.
            if (p.mode == plan::Mode::HostIssue)
                for (std::size_t i = 0; i < per_step; ++i)
                    EXPECT_EQ(spans[base + i].name, p.tasks[i].name)
                        << "step " << s << ", position " << i;

            // Every planned dependency edge holds in the measured timeline:
            // a task's span never ends before its dependency's began.
            std::map<std::string, std::size_t> index;
            for (std::size_t i = 0; i < per_step; ++i)
                index.emplace(spans[base + i].name, base + i);
            for (const auto& t : p.tasks)
                for (const int d : t.deps) {
                    const auto& dep = p.tasks[static_cast<std::size_t>(d)];
                    EXPECT_GE(spans[index[t.name]].t1,
                              spans[index[dep.name]].t0)
                        << "step " << s << ": " << t.name << " vs "
                        << dep.name;
                }
        }
    }
}

/// Modelled structure == planned structure: the DES lowering simulates
/// exactly the plan's tasks (plus its one step-0 anchor per chain), each on
/// the lane of the plan task's resource claim.
TEST(PlanParity, ModelledSpansMatchPlan) {
    const char* kIds[] = {
        "single_task",        "mpi_bulk",     "mpi_nonblocking",
        "mpi_thread_overlap", "gpu_resident", "gpu_mpi_bulk",
        "gpu_mpi_streams",    "cpu_gpu_bulk", "cpu_gpu_overlap",
    };
    constexpr int kModelSteps = 3;
    for (const char* id : kIds) {
        SCOPED_TRACE(id);
        const auto code = sched::code_from_id(id);
        sched::RunConfig cfg;
        cfg.machine = model::MachineSpec::yona();
        cfg.nodes = 1;
        cfg.threads_per_task = cfg.machine.cores_per_node();  // one chain
        cfg.box_thickness = kBox;

        const plan::StepPlan p = sched::plan_for(code, cfg);
        const auto spans = sched::step_spans(code, cfg, kModelSteps);
        ASSERT_EQ(spans.size(), 1 + p.tasks.size() * kModelSteps);

        std::map<std::string, int> count;
        for (const auto& s : spans) ++count[s.name];
        EXPECT_EQ(count["anchor"], 1);
        for (const auto& t : p.tasks) {
            EXPECT_EQ(count[t.name], kModelSteps) << t.name;
            for (const auto& s : spans)
                if (s.name == t.name)
                    EXPECT_EQ(s.lane, t.lane) << t.name;
        }
    }
}

/// The plan the model simulates is the plan the rank executes: identical
/// task lists for the same local geometry.
TEST(PlanParity, PlanForMatchesRankPlan) {
    sched::RunConfig cfg;
    cfg.machine = model::MachineSpec::yona();
    cfg.nodes = 1;
    cfg.threads_per_task = cfg.machine.cores_per_node();
    cfg.box_thickness = 1;
    for (const auto& entry : impl::registry()) {
        const auto code = sched::code_from_id(entry.id);
        const plan::StepPlan p = sched::plan_for(code, cfg);
        EXPECT_EQ(p.impl_id, entry.id);
        EXPECT_EQ(p.validate_error(), "");
        EXPECT_EQ(entry.uses_gpu, p.uses_gpu) << entry.id;
        EXPECT_EQ(entry.uses_mpi, p.uses_comm) << entry.id;
    }
}

// ---------------------------------------------------------------------------
// Step 3 as a buffer swap: the executor runs the whole-box `copy` that closes
// the §IV-A..D steps as an exchange of the cur/nxt storage, and keeps real
// row copies for partial regions (the cpu_gpu_* walls).

namespace {

/// The 27-term sweep (velocity (1, .5, .25), nu = 0.5) at n^3: no stencil
/// coefficient is zero, and the interior rows of the overlap variants end in
/// a remainder the 32-point blocks do not cover.
core::AdvectionProblem sweep_problem(int n) {
    core::AdvectionProblem p = core::AdvectionProblem::standard(n);
    p.velocity = {1.0, 0.5, 0.25};
    p.nu = 0.5;
    return p;
}

constexpr const char* kHostPlans[] = {"single_task", "mpi_bulk",
                                      "mpi_nonblocking", "mpi_thread_overlap"};

}  // namespace

TEST(StepSwap, HostPlansMatchReferenceAtOddAndEvenSteps) {
    for (const char* id : kHostPlans) {
        const impl::Implementation& entry = impl::find_implementation(id);
        // fuse 2 over 5 steps runs two fused super-steps and one step of the
        // remainder plan, whose executor shares the swapped fields.
        for (const int fuse : {1, 2})
            for (const int steps : {5, 6}) {
                SCOPED_TRACE(std::string(id) + " fuse " +
                             std::to_string(fuse) + " steps " +
                             std::to_string(steps));
                impl::SolverConfig cfg;
                cfg.problem = sweep_problem(20);
                cfg.steps = steps;
                cfg.ntasks = entry.uses_mpi ? 2 : 1;
                cfg.threads_per_task = 2;
                cfg.fuse = fuse;
                const impl::SolveResult r = entry.solve(cfg);
                EXPECT_TRUE(r.state.interior_equals(
                    core::run_reference(cfg.problem, steps)));
            }
    }
}

TEST(StepSwap, ExecutorExchangesStorageEveryStep) {
    // One rank driven step by step: after every step `cur` holds the
    // reference state in the other buffer, so a silent return to copying
    // (the pointers would stay put) fails here. mpi_thread_overlap covers
    // the TeamStages path, where the swap runs after the region joins.
    const core::AdvectionProblem p = sweep_problem(12);
    const core::Extents3 n = p.domain.extents();
    for (const char* id : kHostPlans) {
        SCOPED_TRACE(id);
        const plan::StepPlan pl = plan::build_step_plan(id, {n, 1});
        impl::SolverConfig cfg;
        cfg.problem = p;
        const core::StencilCoeffs coeffs = p.coeffs();
        core::Field3 cur(n);
        core::Field3 nxt(n);
        core::fill_initial(cur, p.domain, p.wave);
        omp::ThreadTeam team(2);
        msg::World world(1);
        msg::Communicator comm(world, 0);
        impl::HaloExchange exchange(core::make_decomposition(n, 1), 0);
        impl::ExecContext ctx;
        ctx.cfg = &cfg;
        ctx.coeffs = &coeffs;
        ctx.cur = &cur;
        ctx.nxt = &nxt;
        ctx.team = &team;
        ctx.comm = &comm;
        ctx.exchange = &exchange;
        impl::PlanExecutor exec(pl, ctx);
        const double* first = cur.raw().data();
        const double* second = nxt.raw().data();
        for (int s = 1; s <= 4; ++s) {
            exec.run_step();
            EXPECT_EQ(cur.raw().data(), s % 2 == 1 ? second : first)
                << "step " << s;
            EXPECT_EQ(nxt.raw().data(), s % 2 == 1 ? first : second)
                << "step " << s;
            EXPECT_TRUE(cur.interior_equals(core::run_reference(p, s)))
                << "step " << s;
        }
    }
}

TEST(StepSwap, PartialCopyCopiesRowsInPlace) {
    // A copy over part of the box (cpu_gpu_*'s copy_walls) must stay a row
    // copy: the storage stays put and points outside the region keep the
    // current state.
    const core::Extents3 n{6, 5, 4};
    const core::Range3 wall{{0, 0, 0}, {6, 5, 1}};
    plan::StepPlan pl;
    pl.impl_id = "partial_copy";
    pl.local = n;
    plan::Task t;
    t.name = "copy_walls";
    t.op = plan::Op::Copy;
    t.lane = trace::Lane::Cpu;
    t.payload.regions = {wall};
    t.payload.points = wall.volume();
    pl.tasks.push_back(t);
    pl.terminal = 0;

    core::Field3 cur(n, 1.0);
    core::Field3 nxt(n, 2.0);
    omp::ThreadTeam team(2);
    impl::ExecContext ctx;
    ctx.cur = &cur;
    ctx.nxt = &nxt;
    ctx.team = &team;
    impl::PlanExecutor exec(pl, ctx);
    const double* before = cur.raw().data();
    exec.run_step();
    EXPECT_EQ(cur.raw().data(), before);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i)
                EXPECT_EQ(cur(i, j, k), k < 1 ? 2.0 : 1.0)
                    << i << "," << j << "," << k;
}

TEST(StepSwap, CpuGpuPlansKeepCopyingTheirWalls) {
    // §IV-H/I copy only the CPU walls back (the device block arrives from
    // the device), so their copy_walls task is a partial row copy.
    for (const char* id : {"cpu_gpu_bulk", "cpu_gpu_overlap"}) {
        const plan::StepPlan pl =
            plan::build_step_plan(id, {{16, 16, 16}, 2});
        const int cw = pl.find("copy_walls");
        ASSERT_GE(cw, 0) << id;
        const auto& regions =
            pl.tasks[static_cast<std::size_t>(cw)].payload.regions;
        const core::Range3 box{{0, 0, 0}, {16, 16, 16}};
        EXPECT_FALSE(regions.size() == 1 && regions[0] == box) << id;
        impl::SolverConfig cfg;
        cfg.problem = sweep_problem(16);
        cfg.steps = 5;
        cfg.ntasks = 2;
        cfg.threads_per_task = 2;
        cfg.box_thickness = 2;
        cfg.block_x = 8;
        cfg.block_y = 4;
        const impl::SolveResult r =
            impl::find_implementation(id).solve(cfg);
        EXPECT_TRUE(r.state.interior_equals(
            core::run_reference(cfg.problem, cfg.steps)))
            << id;
    }
}
