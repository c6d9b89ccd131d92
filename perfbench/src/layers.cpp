/// \file layers.cpp
/// Per-layer probes of the traced run: each layer's public functions timed
/// on their own, wall clock only, after the call has fully completed. Each
/// probe is repeated and reported as a median with its sample count.

#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "core/coeff_cache.hpp"
#include "core/decomposition.hpp"
#include "core/fused.hpp"
#include "core/halo.hpp"
#include "core/rows.hpp"
#include "core/scenario.hpp"
#include "core/stencil.hpp"
#include "gpu/device.hpp"
#include "impl/device_field.hpp"
#include "impl/exchange.hpp"
#include "impl/plan_executor.hpp"
#include "impl/registry.hpp"
#include "model/machine.hpp"
#include "msg/comm.hpp"
#include "msg/transport/process.hpp"
#include "omp/parallel_for.hpp"
#include "omp/thread_team.hpp"
#include "plan/builders.hpp"
#include "service/admission.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = advect::core;
namespace gpu = advect::gpu;
namespace impl = advect::impl;
namespace msg = advect::msg;
namespace omp = advect::omp;
namespace plan = advect::plan;
namespace service = advect::service;

namespace {

/// Wall seconds of `fn` over at least `min_reps` repetitions and until
/// `budget_s` has passed (at most `max_reps`).
template <class Fn>
std::vector<double> sample(int min_reps, double budget_s, Fn&& fn,
                           int max_reps = 1000) {
    std::vector<double> t;
    const double start = now_s();
    while (static_cast<int>(t.size()) < min_reps ||
           (now_s() - start < budget_s &&
            static_cast<int>(t.size()) < max_reps))
        t.push_back(wall_seconds(fn));
    return t;
}

std::vector<std::uint8_t> encode(double v) {
    std::vector<std::uint8_t> b(sizeof v);
    std::memcpy(b.data(), &v, sizeof v);
    return b;
}

double decode(const std::vector<std::uint8_t>& b) {
    double v = 0.0;
    if (b.size() != sizeof v)
        throw std::runtime_error("perfbench: malformed rank payload");
    std::memcpy(&v, b.data(), sizeof v);
    return v;
}

/// Geometry of the message probes: small subdomains, so exchange, wire and
/// progress engine dominate. Two ranks, not four: with the progress engine
/// on, each rank process adds an engine thread, and four ranks would put
/// eight busy threads on four cores.
constexpr int kMsgN = 32;
constexpr int kMsgRanks = 2;
constexpr int kExchangeSteps = 200;
constexpr int kAllreduceReps = 500;

enum class Substrate { InProc, Socket, TcpOn, TcpOff };

/// Run `body` on kMsgRanks ranks of `sub` and return each rank's double.
std::vector<double> on_ranks(Substrate sub,
                             const std::function<double(msg::Communicator&)>&
                                 body) {
    std::vector<double> out(kMsgRanks, 0.0);
    const auto wrap = [&](msg::Communicator& c) { return encode(body(c)); };
    switch (sub) {
        case Substrate::InProc:
            msg::run_ranks(kMsgRanks, [&](msg::Communicator& c) {
                out[static_cast<std::size_t>(c.rank())] = body(c);
            });
            return out;
        case Substrate::Socket: {
            const auto p = msg::run_process_ranks(kMsgRanks, wrap);
            for (std::size_t r = 0; r < p.size(); ++r) out[r] = decode(p[r]);
            return out;
        }
        case Substrate::TcpOn:
        case Substrate::TcpOff: {
            const auto p = msg::run_tcp_ranks(
                kMsgRanks,
                sub == Substrate::TcpOn ? msg::ProgressMode::Thread
                                        : msg::ProgressMode::Polled,
                wrap);
            for (std::size_t r = 0; r < p.size(); ++r) out[r] = decode(p[r]);
            return out;
        }
    }
    return out;
}

double max_of(const std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m = std::max(m, x);
    return m;
}

/// msg: exchange, allreduce and launch on every substrate. Runs first:
/// the forked launchers need a process with no other live threads, and
/// every probe joins its threads before returning.
void probe_msg(Report& report, SpanLog& log) {
    const core::Decomp3 decomp =
        core::make_decomposition({kMsgN, kMsgN, kMsgN}, kMsgRanks);
    const auto exchange_body = [&](msg::Communicator& c) {
        impl::HaloExchange ex(decomp, c.rank(), 1);
        core::Field3 f(decomp.local_extents(c.rank()));
        ex.exchange_all(c, f);  // warm the connections and buffers
        c.barrier();
        const double t = wall_seconds([&] {
            for (int s = 0; s < kExchangeSteps; ++s) ex.exchange_all(c, f);
        });
        return t / kExchangeSteps;
    };
    const auto allreduce_body = [&](msg::Communicator& c) {
        double acc = c.allreduce_max(1.0);
        c.barrier();
        const double t = wall_seconds([&] {
            for (int s = 0; s < kAllreduceReps; ++s)
                acc = c.allreduce_max(acc + c.rank());
        });
        return t / kAllreduceReps;
    };
    const struct {
        Substrate sub;
        const char* name;
    } subs[] = {{Substrate::InProc, "inproc"},
                {Substrate::Socket, "socket"},
                {Substrate::TcpOn, "tcp_on"},
                {Substrate::TcpOff, "tcp_off"}};
    for (const auto& s : subs) {
        LayerSpan span(log, "msg", std::string("exchange_all ") + s.name);
        std::vector<double> per_run;
        for (int rep = 0; rep < 3; ++rep)
            per_run.push_back(max_of(on_ranks(s.sub, exchange_body)));
        report.add(std::string("msg.exchange.") + s.name + ".us_per_step",
                   median(per_run) * 1e6, "us",
                   per_run.size() * kExchangeSteps);
    }
    {
        // Computed from the halo plan of rank 0: six faces per step.
        const impl::HaloExchange ex(decomp, 0, 1);
        double bytes = 0.0;
        for (int d = 0; d < 3; ++d)
            bytes += 2.0 * static_cast<double>(ex.plan().message_count(d)) *
                     sizeof(double);
        report.add("msg.exchange.msgs_per_step", 6.0, "count");
        report.add("msg.exchange.bytes_per_step", bytes, "B");
    }
    for (const auto& s : subs) {
        if (s.sub == Substrate::TcpOff) continue;
        LayerSpan span(log, "msg", std::string("allreduce_max ") + s.name);
        std::vector<double> per_run;
        for (int rep = 0; rep < 3; ++rep)
            per_run.push_back(max_of(on_ranks(s.sub, allreduce_body)));
        report.add(std::string("msg.allreduce.") + s.name + ".us",
                   median(per_run) * 1e6, "us",
                   per_run.size() * kAllreduceReps);
    }
    // Launch: fork + mesh + reap with an empty rank body.
    const auto empty = [](msg::Communicator&) { return 0.0; };
    double socket_launch = 0.0;
    for (const auto& s : subs) {
        if (s.sub != Substrate::Socket && s.sub != Substrate::TcpOn) continue;
        LayerSpan span(log, "msg", std::string("launch ") + s.name);
        const auto t = sample(8, 0.5, [&] { (void)on_ranks(s.sub, empty); }, 40);
        if (s.sub == Substrate::Socket) socket_launch = median(t);
        report.add(std::string("msg.launch.") + s.name + ".s", median(t), "s",
                   t.size());
    }
    {
        // Marshalling: the same launch returning an n^3 payload per rank;
        // the empty launch's median is taken out.
        LayerSpan span(log, "msg", "launch socket payload");
        constexpr int kPayloadN = 96;
        const std::size_t bytes =
            sizeof(double) * static_cast<std::size_t>(kPayloadN) * kPayloadN *
            kPayloadN;
        const auto body = [&](msg::Communicator&) {
            return std::vector<std::uint8_t>(bytes, 0x5a);
        };
        const auto t = sample(5, 0.5, [&] {
            const auto p = msg::run_process_ranks(kMsgRanks, body);
            if (p.size() != kMsgRanks || p[0].size() != bytes)
                throw std::runtime_error("perfbench: payload lost");
        }, 20);
        const double moved = static_cast<double>(bytes) * kMsgRanks;
        report.add("msg.launch.marshal_gb_s",
                   moved / std::max(median(t) - socket_launch, 1e-6) / 1e9,
                   "GB/s", t.size());
    }
}

/// core: kernel, copy bandwidth, fused tile, variable rows, halo pack,
/// periodic fill, initial state and norms, on the workload's own grid.
void probe_core(const core::AdvectionProblem& p, Report& report,
                SpanLog& log) {
    const auto ext = p.domain.extents();
    const double volume = static_cast<double>(p.domain.volume());
    const auto coeffs = p.coeffs();
    core::Field3 in(ext);
    core::Field3 out(ext);
    core::fill_initial(in, p.domain, p.wave);
    core::fill_periodic_halo(in);
    const core::RowSpace rows({in.interior()});

    const int terms = stencil_terms(p);
    double stencil_mpts = 0.0;
    {
        LayerSpan span(log, "core", "apply_stencil");
        const auto t = sample(5, 0.6, [&] { core::apply_stencil(coeffs, in, out); });
        stencil_mpts = volume / median(t) / 1e6;
        report.add("core.stencil.mpts_s", stencil_mpts, "Mpts/s", t.size());
        report.add("core.stencil.terms", terms, "count");
        report.add("core.stencil.gflops_real",
                   stencil_mpts * 1e6 * flops_per_point(terms) / 1e9, "GF",
                   t.size());
    }
    {
        LayerSpan span(log, "core", "copy_rows");
        const auto t = sample(5, 0.4, [&] {
            core::copy_rows(in, out, rows, 0, rows.size());
        });
        // One read and one write of every interior point.
        const double copy_gb_s = 2.0 * 8.0 * volume / median(t) / 1e9;
        report.add("core.copy_rows.gb_s", copy_gb_s, "GB/s", t.size());
        // Computed minimum traffic of the sweep: read `in`, write `out`.
        const double bytes_per_pt = 16.0;
        report.add("core.stencil.bytes_per_pt", bytes_per_pt, "B");
        report.add("core.stencil.bw_frac",
                   stencil_mpts * 1e6 * bytes_per_pt / (copy_gb_s * 1e9),
                   "frac", t.size());
    }
    {
        LayerSpan span(log, "core", "apply_fused_sweep F=2");
        core::Field3 in2(ext, 2);
        core::Field3 out2(ext, 2);
        core::fill_initial(in2, p.domain, p.wave);
        core::fill_periodic_halo(in2);
        const core::FusedSweepPlan fplan({in2.interior()}, 2);
        std::vector<double> scratch(fplan.scratch_doubles());
        const auto t = sample(3, 0.6, [&] {
            core::apply_fused_sweep(coeffs, in2, out2, fplan, scratch);
        });
        report.add("core.fused.mpts_s", 2.0 * volume / median(t) / 1e6,
                   "Mpts/s", t.size());
    }
    {
        LayerSpan span(log, "core", "apply_stencil_var_rows rotating");
        core::AdvectionProblem rot = p;
        rot.scenario = core::scenario_by_name("rotating");
        rot.nu = 0.5 / rot.velocity_field().max_abs();
        const core::CoeffCache cache(rot.coeff_field(), ext, {0, 0, 0});
        const auto t = sample(3, 0.6, [&] {
            core::apply_stencil_var_rows(cache, in, out, rows, 0, rows.size());
        });
        report.add("core.stencil_var.mpts_s", volume / median(t) / 1e6,
                   "Mpts/s", t.size());
    }
    {
        LayerSpan span(log, "core", "pack+unpack faces");
        const core::HaloPlan hp = core::HaloPlan::make(ext, 1);
        std::vector<double> buf;
        double doubles = 0.0;
        for (const auto& d : hp.dims) {
            doubles += static_cast<double>(d.send_low.volume() +
                                           d.send_high.volume());
            buf.resize(std::max(buf.size(), d.send_low.volume()));
        }
        const auto t = sample(5, 0.3, [&] {
            for (const auto& d : hp.dims) {
                const std::span<double> b(buf.data(), d.send_low.volume());
                core::pack(in, d.send_low, b);
                core::unpack(out, d.recv_high, b);
                core::pack(in, d.send_high, b);
                core::unpack(out, d.recv_low, b);
            }
        });
        // Each double is read and written by pack, and again by unpack.
        report.add("core.halo_pack.gb_s", 4.0 * 8.0 * doubles / median(t) / 1e9,
                   "GB/s", t.size());
    }
    {
        LayerSpan span(log, "core", "fill_periodic_halo");
        const auto t = sample(5, 0.2, [&] { core::fill_periodic_halo(in); });
        report.add("core.periodic_halo.us", median(t) * 1e6, "us", t.size());
    }
    {
        LayerSpan span(log, "core", "fill_initial");
        const auto t = sample(3, 0.3, [&] {
            core::fill_initial(out, p.domain, p.wave);
        });
        report.add("core.initial_s", median(t), "s", t.size());
    }
    {
        LayerSpan span(log, "core", "error_vs_analytic");
        const auto t = sample(3, 0.3, [&] {
            (void)core::error_vs_analytic(p, in, 10);
        });
        report.add("core.norms_s", median(t), "s", t.size());
    }
}

/// omp: row-sweep speed-up of a 4-thread team and the cost of an empty
/// parallel region.
void probe_omp(const core::AdvectionProblem& p, Report& report,
               SpanLog& log) {
    const auto ext = p.domain.extents();
    const auto coeffs = p.coeffs();
    core::Field3 in(ext);
    core::Field3 out(ext);
    core::fill_initial(in, p.domain, p.wave);
    core::fill_periodic_halo(in);
    const core::RowSpace rows({in.interior()});
    const auto sweep = [&](omp::ThreadTeam& team) {
        omp::parallel_for(team, 0, rows.size(), omp::Schedule::Static,
                          [&](std::int64_t lo, std::int64_t hi) {
                              core::apply_stencil_rows(coeffs, in, out, rows,
                                                       lo, hi);
                          });
    };
    {
        LayerSpan span(log, "omp", "parallel_for stencil 1t/4t");
        omp::ThreadTeam one(1);
        omp::ThreadTeam four(4);
        const auto t1 = sample(5, 0.5, [&] { sweep(one); });
        const auto t4 = sample(5, 0.5, [&] { sweep(four); });
        report.add("omp.stencil.speedup_4t", median(t1) / median(t4), "x",
                   t1.size() + t4.size());
    }
    {
        LayerSpan span(log, "omp", "empty region");
        omp::ThreadTeam four(4);
        constexpr int kBatch = 200;
        const auto t = sample(5, 0.3, [&] {
            for (int i = 0; i < kBatch; ++i) four.parallel([](int) {});
        });
        report.add("omp.region.us", median(t) / kBatch * 1e6, "us",
                   t.size() * kBatch);
    }
}

/// plan: build time and task count of every implementation's step plan on
/// the workload's grid (4-rank local extents for the communicating plans).
void probe_plan(const core::AdvectionProblem& p, Report& report,
                SpanLog& log) {
    const auto ext = p.domain.extents();
    const core::Decomp3 decomp = core::make_decomposition(ext, 4);
    for (const auto& entry : impl::registry()) {
        LayerSpan span(log, "plan", "build_step_plan " + entry.id);
        const plan::BuildParams whole{ext, 1, 1, 0u, false};
        const bool comm = plan::build_step_plan(entry.id, whole).uses_comm;
        const plan::BuildParams bp{comm ? decomp.local_extents(0) : ext, 1, 1,
                                   0u, false};
        std::size_t tasks = 0;
        const auto t = sample(20, 0.05, [&] {
            tasks = plan::build_step_plan(entry.id, bp).tasks.size();
        });
        report.add("plan.build_s." + entry.id, median(t), "s", t.size());
        report.add("plan.tasks_per_step." + entry.id,
                   static_cast<double>(tasks), "count");
    }
}

/// impl: PlanExecutor::run_step of the single-task plan on a tiny grid,
/// per task — the executor's own dispatch cost.
void probe_executor(Report& report, SpanLog& log) {
    LayerSpan span(log, "impl", "PlanExecutor::run_step 6^3");
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(6);
    const auto coeffs = cfg.problem.coeffs();
    const auto ext = cfg.problem.domain.extents();
    const plan::StepPlan sp =
        plan::build_step_plan("single_task", {ext, 1, 1, 0u, false});
    core::Field3 cur(ext);
    core::Field3 nxt(ext);
    core::fill_initial(cur, cfg.problem.domain, cfg.problem.wave);
    omp::ThreadTeam team(1);
    const core::SourceField source = core::make_source_field(cfg.problem);
    int level = 0;
    impl::ExecContext ctx;
    ctx.cfg = &cfg;
    ctx.coeffs = &coeffs;
    ctx.cur = &cur;
    ctx.nxt = &nxt;
    ctx.team = &team;
    ctx.source = &source;
    ctx.time_level = &level;
    impl::PlanExecutor exec(sp, ctx);
    constexpr int kSteps = 200;
    const auto t = sample(5, 0.3, [&] {
        for (int s = 0; s < kSteps; ++s) {
            exec.run_step();
            ++level;
        }
    });
    report.add("impl.executor.us_per_task",
               median(t) / kSteps / static_cast<double>(sp.tasks.size()) * 1e6,
               "us", t.size() * kSteps);
}

/// gpu: device creation, PCIe-style copies, the tiled kernel and a stream
/// round trip on the simulated device, each timed through synchronize().
void probe_gpu(const core::AdvectionProblem& p, Report& report,
               SpanLog& log) {
    const gpu::DeviceProps props = gpu::DeviceProps::tesla_c2050();
    const auto coeffs = p.coeffs();
    {
        LayerSpan span(log, "gpu", "Device create+upload");
        const auto t = sample(5, 0.2, [&] {
            gpu::Device dev(props);
            impl::upload_coefficients(dev, coeffs);
        });
        report.add("gpu.device_create_s", median(t), "s", t.size());
    }
    const auto ext = p.domain.extents();
    gpu::Device dev(props);
    impl::upload_coefficients(dev, coeffs);
    gpu::Stream stream = dev.create_stream();
    impl::DeviceField din(dev, ext, 1);
    impl::DeviceField dout(dev, ext, 1);
    core::Field3 host(ext);
    core::fill_initial(host, p.domain, p.wave);
    core::fill_periodic_halo(host);
    const auto raw = host.raw();
    const double bytes = static_cast<double>(raw.size_bytes());
    {
        LayerSpan span(log, "gpu", "memcpy_h2d+sync");
        const auto t = sample(3, 0.3, [&] {
            stream.memcpy_h2d(din.buffer(), 0, raw);
            stream.synchronize();
        });
        report.add("gpu.h2d.gb_s", bytes / median(t) / 1e9, "GB/s", t.size());
    }
    {
        LayerSpan span(log, "gpu", "launch_stencil+sync");
        const core::Range3 region{{0, 0, 0}, {ext.nx, ext.ny, ext.nz}};
        const auto t = sample(3, 0.6, [&] {
            impl::launch_stencil(stream, dev, din, dout, region, 32, 8);
            stream.synchronize();
        });
        report.add("gpu.kernel.mpts_s",
                   static_cast<double>(p.domain.volume()) / median(t) / 1e6,
                   "Mpts/s", t.size());
    }
    {
        LayerSpan span(log, "gpu", "memcpy_d2h+sync");
        const auto t = sample(3, 0.3, [&] {
            stream.memcpy_d2h(host.raw(), dout.buffer(), 0);
            stream.synchronize();
        });
        report.add("gpu.d2h.gb_s", bytes / median(t) / 1e9, "GB/s", t.size());
    }
    {
        LayerSpan span(log, "gpu", "event round trip");
        const auto t = sample(50, 0.1, [&] {
            (void)stream.record_event();
            stream.synchronize();
        });
        report.add("gpu.sync.us", median(t) * 1e6, "us", t.size());
    }
}

/// sched/model: the admission oracle's price per spec, and its prediction
/// over the measured loop time for the workload's own jobs.
void probe_sched(const Outcome& workload, Report& report, SpanLog& log) {
    const service::CostOracle oracle{advect::model::MachineSpec::localhost()};
    service::JobSpec spec;
    spec.tenant = "probe";
    spec.impl = "mpi_nonblocking";
    spec.n = 64;
    spec.steps = 20;
    spec.ranks = 4;
    spec.threads = 1;
    {
        LayerSpan span(log, "sched", "CostOracle::price_seconds");
        const auto t = sample(20, 0.2, [&] {
            (void)oracle.price_seconds(spec);
        });
        report.add("sched.price_s", median(t), "s", t.size());
    }
    std::vector<double> ratio;
    for (const JobSample& j : workload.jobs)
        if (j.ok && j.wall_s > 0.0 && std::isfinite(j.price_s) &&
            j.price_s > 0.0)
            ratio.push_back(j.price_s / j.wall_s);
    report.add("sched.pred_over_meas", median(ratio), "ratio", ratio.size());
}

}  // namespace

void run_layer_probes(const core::AdvectionProblem& workload_problem,
                      const Outcome& workload, Report& report, SpanLog& log) {
    probe_msg(report, log);  // first: forks need a single-threaded process
    probe_core(workload_problem, report, log);
    probe_omp(workload_problem, report, log);
    probe_plan(workload_problem, report, log);
    probe_executor(report, log);
    probe_gpu(workload_problem, report, log);
    probe_sched(workload, report, log);
}

}  // namespace perfbench
