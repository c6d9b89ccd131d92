#include "impl/launch.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "chaos/inject.hpp"
#include "core/decomposition.hpp"
#include "impl/cpu_kernels.hpp"
#include "impl/gpu_task.hpp"
#include "impl/harness.hpp"
#include "impl/registry.hpp"
#include "msg/transport/process.hpp"
#include "msg/transport/wire.hpp"
#include "plan/builders.hpp"

namespace advect::impl {

namespace {

namespace wire = msg::wire;

/// Deserialized span categories must outlive the report; span categories are
/// `const char*` pointing at string literals everywhere else, so interned
/// copies are leaked deliberately (a handful of distinct category names per
/// process lifetime).
const char* intern_category(const std::string& s) {
    static std::mutex mu;
    static std::set<std::string>* pool = new std::set<std::string>;
    std::lock_guard lock(mu);
    return pool->insert(s).first->c_str();
}

/// What one worker ships back: its local state block, the (identical on all
/// ranks) wall time, its fault events, and its spans on the shared monotonic
/// timeline.
void marshal_outcome(wire::ByteWriter& w, const core::Field3& state,
                     core::Index3 origin, double wall,
                     const std::vector<chaos::FaultEvent>& log,
                     const std::vector<trace::Span>& spans) {
    w.i32(origin.i);
    w.i32(origin.j);
    w.i32(origin.k);
    const auto e = state.extents();
    w.i32(e.nx);
    w.i32(e.ny);
    w.i32(e.nz);
    // Fused runs carry fuse-wide halos; the receiver must rebuild the same
    // padded shape or the raw payload will not fit.
    w.i32(state.halo_width());
    w.f64(wall);
    w.doubles(state.raw());
    w.u32(static_cast<std::uint32_t>(log.size()));
    for (const auto& ev : log) {
        w.u8(static_cast<std::uint8_t>(ev.kind));
        w.i32(ev.rule);
        w.i32(ev.rank);
        w.i32(ev.step);
        w.i32(ev.occurrence);
        w.str(ev.site);
        w.f64(ev.amount_us);
    }
    // Spans rebased to absolute monotonic time; the parent re-bases onto its
    // own epoch, putting every worker on one timeline.
    const double epoch = trace::epoch_seconds();
    w.u32(static_cast<std::uint32_t>(spans.size()));
    for (const auto& s : spans) {
        w.str(s.name);
        w.str(s.category);
        w.u8(static_cast<std::uint8_t>(s.lane));
        w.f64(epoch + s.t0);
        w.f64(epoch + s.t1);
        w.i32(s.rank);
        w.i32(s.thread);
        w.i32(s.stream);
    }
}

struct WorkerOutcome {
    core::Index3 origin;
    core::Field3 state;
    double wall = 0.0;
    std::vector<chaos::FaultEvent> log;
    std::vector<trace::Span> spans;  ///< absolute monotonic times
};

WorkerOutcome unmarshal_outcome(std::span<const std::uint8_t> bytes) {
    wire::ByteReader r(bytes);
    WorkerOutcome out;
    out.origin.i = r.i32();
    out.origin.j = r.i32();
    out.origin.k = r.i32();
    core::Extents3 e;
    e.nx = r.i32();
    e.ny = r.i32();
    e.nz = r.i32();
    const int halo = r.i32();
    out.wall = r.f64();
    out.state = core::Field3(e, halo);
    const auto data = r.doubles();
    if (data.size() != out.state.raw().size())
        throw std::runtime_error("launch: state payload size mismatch");
    std::copy(data.begin(), data.end(), out.state.raw().begin());
    const std::uint32_t nlog = r.u32();
    out.log.reserve(nlog);
    for (std::uint32_t i = 0; i < nlog; ++i) {
        chaos::FaultEvent ev;
        ev.kind = static_cast<chaos::FaultKind>(r.u8());
        ev.rule = r.i32();
        ev.rank = r.i32();
        ev.step = r.i32();
        ev.occurrence = r.i32();
        ev.site = r.str();
        ev.amount_us = r.f64();
        out.log.push_back(std::move(ev));
    }
    const std::uint32_t nspans = r.u32();
    out.spans.reserve(nspans);
    for (std::uint32_t i = 0; i < nspans; ++i) {
        trace::Span s;
        s.name = r.str();
        s.category = intern_category(r.str());
        s.lane = static_cast<trace::Lane>(r.u8());
        s.t0 = r.f64();
        s.t1 = r.f64();
        s.rank = r.i32();
        s.thread = r.i32();
        s.stream = r.i32();
        out.spans.push_back(std::move(s));
    }
    if (!r.done()) throw std::runtime_error("launch: trailing payload bytes");
    return out;
}

/// The in-process path: the classic entry.solve call with the launcher
/// owning the recorder and the (single, shared) chaos session around it —
/// the same sequence `advectctl chaos` has always run.
LaunchReport launch_in_process(const Implementation& entry,
                               const SolverConfig& cfg,
                               const LaunchOptions& opts) {
    LaunchReport report;
    if (opts.trace) {
        trace::set_enabled(false);
        trace::reset();
        trace::set_enabled(true);
    }
    {
        std::optional<chaos::Session> session;
        if (opts.fault_plan != nullptr) session.emplace(*opts.fault_plan);
        report.result = entry.solve(cfg);
        if (session) report.fault_log = session->log();
        // Session destruction joins chaos delivery threads, so every span
        // they record lands before the snapshot below.
    }
    if (opts.trace) {
        trace::set_enabled(false);
        report.spans = trace::snapshot();
        trace::reset();
    }
    return report;
}

/// One worker process's body: run this rank, marshal the outcome. Runs with
/// the worker's own recorder, chaos session and (if needed) device.
std::vector<std::uint8_t> socket_worker(const Implementation& entry,
                                        const SolverConfig& cfg,
                                        const LaunchOptions& opts,
                                        const core::Decomp3* decomp,
                                        msg::Communicator& comm) {
    trace::set_enabled(false);
    trace::reset();
    if (opts.trace) trace::set_enabled(true);
    trace::set_current_rank(comm.rank());

    std::optional<chaos::Session> session;
    if (opts.fault_plan != nullptr) session.emplace(*opts.fault_plan);

    core::Field3 state;
    core::Index3 origin{0, 0, 0};
    double wall = 0.0;
    if (decomp == nullptr) {
        // §IV-A/E: no communication; the worker is a one-process solve.
        auto r = entry.solve(cfg);
        state = std::move(r.state);
        wall = r.wall_seconds;
    } else {
        const plan::StepPlan plan = plan::build_step_plan(
            entry.id,
            {decomp->local_extents(comm.rank()), cfg.box_thickness, cfg.fuse,
             core::local_open_faces(cfg.problem.scenario, *decomp,
                                    comm.rank()),
             !cfg.problem.constant_coefficients()});
        std::optional<gpu::Device> own;
        gpu::Device* device = nullptr;
        if (plan.uses_gpu) {
            // Simulated devices are per process: this rank gets its own
            // (tasks_per_gpu sharing is an in-process-only feature), and
            // the job's rank processes split the CPUs among their devices.
            own.emplace(cfg.gpu_props,
                        device_workers(cfg.gpu_props, comm.size()));
            upload_coefficients(*own, cfg.problem.coeffs());
            device = &*own;
        }
        RankOutcome out = run_plan_rank(plan, cfg, *decomp, comm, device);
        state = std::move(out.state);
        wall = out.wall_seconds;
        origin = decomp->origin(comm.rank());
    }

    std::vector<chaos::FaultEvent> log;
    if (session) {
        log = session->log();
        session.reset();  // join delivery threads before snapshotting
    }
    trace::set_enabled(false);

    wire::ByteWriter w;
    marshal_outcome(w, state, origin, wall,
                    log, opts.trace ? trace::snapshot()
                                    : std::vector<trace::Span>{});
    return w.take();
}

/// The forked-worker path, shared by the Unix-socket and TCP backends: the
/// same per-rank body runs either way; only the launcher (inherited
/// socketpair mesh vs host-list rendezvous + progress engine) differs.
LaunchReport launch_forked(const Implementation& entry,
                           const SolverConfig& cfg,
                           const LaunchOptions& opts) {
    const auto& p = cfg.problem;
    std::optional<core::Decomp3> decomp;
    const bool var = !p.constant_coefficients();
    const plan::StepPlan probe = plan::build_step_plan(
        entry.id, {p.domain.extents(), cfg.box_thickness, cfg.fuse,
                   p.scenario.open_faces(), var});
    int nranks = 1;
    if (probe.uses_comm) {
        decomp = core::make_decomposition(p.domain.extents(), cfg.ntasks);
        nranks = decomp->nranks();
        // Validate every rank's geometry here, in the parent, so a bad
        // config throws std::invalid_argument instead of a worker error.
        for (int r = 0; r < nranks; ++r)
            (void)plan::build_step_plan(
                entry.id,
                {decomp->local_extents(r), cfg.box_thickness, cfg.fuse,
                 core::local_open_faces(p.scenario, *decomp, r), var});
    }

    // Pin this process's recorder epoch before forking: worker spans arrive
    // as absolute monotonic times and are re-based below, so the report's
    // timeline starts near zero like an in-process trace.
    if (opts.trace) {
        trace::set_enabled(false);
        trace::reset();
    }

    const core::Decomp3* dp = decomp ? &*decomp : nullptr;
    const auto body = [&](msg::Communicator& comm) {
        return socket_worker(entry, cfg, opts, dp, comm);
    };
    const auto payloads =
        opts.transport == TransportKind::Tcp
            ? msg::run_tcp_ranks(nranks, opts.progress, body)
            : msg::run_process_ranks(nranks, body);

    LaunchReport report;
    core::Field3 global(p.domain.extents());
    const double parent_epoch = trace::epoch_seconds();
    double wall = 0.0;
    for (int r = 0; r < nranks; ++r) {
        WorkerOutcome out =
            unmarshal_outcome(payloads[static_cast<std::size_t>(r)]);
        write_block(global, out.state, out.origin);
        if (r == 0) wall = out.wall;
        report.fault_log.insert(report.fault_log.end(), out.log.begin(),
                                out.log.end());
        for (auto& s : out.spans) {
            s.t0 -= parent_epoch;
            s.t1 -= parent_epoch;
            report.spans.push_back(std::move(s));
        }
    }
    report.result = finish_result(cfg, std::move(global), wall);
    chaos::sort_log(report.fault_log);
    std::stable_sort(report.spans.begin(), report.spans.end(),
                     [](const trace::Span& a, const trace::Span& b) {
                         return a.t0 < b.t0;
                     });
    return report;
}

}  // namespace

const char* transport_name(TransportKind kind) {
    switch (kind) {
        case TransportKind::Socket: return "socket";
        case TransportKind::Tcp: return "tcp";
        case TransportKind::InProcess: break;
    }
    return "inproc";
}

TransportKind transport_from_name(const std::string& name) {
    if (name == "inproc" || name == "in-process" || name == "thread")
        return TransportKind::InProcess;
    if (name == "socket" || name == "process") return TransportKind::Socket;
    if (name == "tcp") return TransportKind::Tcp;
    throw std::invalid_argument("launch: unknown transport: " + name);
}

LaunchReport launch_solver(const std::string& impl_id,
                           const SolverConfig& cfg,
                           const LaunchOptions& opts) {
    const Implementation& entry = find_implementation(impl_id);
    auto c = cfg;
    if (!entry.uses_mpi) c.ntasks = 1;
    if (opts.transport != TransportKind::InProcess)
        return launch_forked(entry, c, opts);
    return launch_in_process(entry, c, opts);
}

}  // namespace advect::impl
