/// \file advectctl.cpp
/// The repository's command-line driver: one binary exposing the library's
/// main entry points.
///
///   advectctl solve   [impl] [n] [steps] [tasks] [threads]
///       run one of the nine implementations for real and verify it
///   advectctl trace   [impl] [n] [steps] [tasks] [threads] [out.json]
///       run one implementation with runtime tracing on, write a Chrome
///       trace-event JSON timeline and print the measured overlap summary
///   advectctl chaos   [scenario] [impl] [x] [seed] [n] [steps] [tasks]
///                     [threads] [out.json]
///       run one implementation for real under a fault scenario — a named
///       one (docs/CHAOS.md) or a JSON scenario file (*.json,
///       chaos/scenario_file.hpp) — export a Chrome trace with the injected
///       spans in their own category, print the fault log, the overlap
///       summary with its injected-vs-hidden line, and verify against the
///       fault-free reference
///   advectctl launch  [--transport inproc|socket|tcp] [--ranks N]
///                     [--progress on|off] [--chaos scenario|file.json]
///                     [--x amp] [--seed s] [--scenario name]
///                     [--trace out.json] [impl] [n] [steps] [threads]
///       run one implementation through the launcher (docs/TRANSPORT.md):
///       ranks as threads over the in-process mailbox, as forked worker
///       processes over the Unix-socket transport, or over the rendezvous'd
///       TCP mesh with the progress engine on (--progress on, a dedicated
///       per-process thread) or off (polled, no asynchronous progress —
///       the paper's Fig-3 pathology). --scenario selects a
///       named workload (docs/SCENARIOS.md): variable-coefficient velocity
///       and/or open boundaries. Output (solution check, fault log, trace
///       summary) is identical across backends
///   advectctl scenarios
///       list the named workload scenarios --scenario accepts
///   advectctl plan    [impl] [n] [tasks] [box] [out.json]
///       print one implementation's step plan (tasks, lanes, dependencies) —
///       the IR both the executor and the DES model consume — and
///       optionally export it as a dependency-depth timeline for
///       chrome://tracing
///   advectctl model   [machine] [impl] [nodes] [threads] [box]
///       modelled step time / GF / utilization for one configuration
///   advectctl tune    [machine] [nodes]
///       autotune the full-overlap implementation (§VI)
///   advectctl scaling [machine] [impl]
///       modelled best-GF strong-scaling series
///   advectctl machines
///       list the Table II machine models
///   advectctl impls
///       list the nine §IV implementations

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/inject.hpp"
#include "chaos/report.hpp"
#include "chaos/scenario.hpp"
#include "chaos/scenario_file.hpp"
#include "core/decomposition.hpp"
#include "core/scenario.hpp"
#include "impl/launch.hpp"
#include "impl/registry.hpp"
#include "chaos/gameday.hpp"
#include "plan/builders.hpp"
#include "sched/report.hpp"
#include "service/client.hpp"
#include "service/gameday.hpp"
#include "service/job.hpp"
#include "sched/sweeps.hpp"
#include "trace/export.hpp"
#include "trace/span.hpp"
#include "tune/tuner.hpp"
#include "verify/convergence.hpp"
#include "verify/fuzz.hpp"
#include "verify/mms.hpp"
#include "verify/schedule.hpp"

namespace core = advect::core;
namespace impl = advect::impl;
namespace msg = advect::msg;
namespace model = advect::model;
namespace sched = advect::sched;
namespace tune = advect::tune;

namespace {

model::MachineSpec machine_by_name(const std::string& name) {
    if (name == "jaguarpf") return model::MachineSpec::jaguarpf();
    if (name == "hopper2") return model::MachineSpec::hopper2();
    if (name == "lens") return model::MachineSpec::lens();
    if (name == "yona") return model::MachineSpec::yona();
    if (name == "localhost") {
        // Calibrated against the measured kernel rates when the perf
        // trajectory is present (docs/SERVICE.md §admission); otherwise
        // the nominal spec, with a note whose error names the path.
        try {
            return model::localhost_from_bench("BENCH_kernels.json");
        } catch (const std::exception& e) {
            std::fprintf(stderr, "advectctl: uncalibrated localhost (%s)\n",
                         e.what());
            return model::MachineSpec::localhost();
        }
    }
    std::fprintf(stderr, "unknown machine '%s'\n", name.c_str());
    std::exit(2);
}

int cmd_solve(int argc, char** argv) {
    const std::string id = argc > 0 ? argv[0] : "cpu_gpu_overlap";
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(argc > 1 ? std::atoi(argv[1]) : 24);
    cfg.steps = argc > 2 ? std::atoi(argv[2]) : 8;
    cfg.ntasks = argc > 3 ? std::atoi(argv[3]) : 4;
    cfg.threads_per_task = argc > 4 ? std::atoi(argv[4]) : 2;
    cfg.block_x = 8;
    cfg.block_y = 4;

    const auto& entry = impl::find_implementation(id);
    if (!entry.uses_mpi) cfg.ntasks = 1;
    std::printf("solving %d^3 x %d steps with %s (%s)...\n",
                cfg.problem.domain.n, cfg.steps, entry.id.c_str(),
                entry.paper_section.c_str());
    const auto r = entry.solve(cfg);
    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    std::printf("  wall %.3f s   host %.2f GF   Linf vs analytic %.3e   "
                "matches reference: %s\n",
                r.wall_seconds, r.gf(cfg), r.error.linf,
                r.state.interior_equals(ref) ? "yes" : "NO");
    return r.state.interior_equals(ref) ? 0 : 1;
}

int cmd_trace(int argc, char** argv) {
    namespace trace = advect::trace;
    const std::string id = argc > 0 ? argv[0] : "cpu_gpu_overlap";
    impl::SolverConfig cfg;
    cfg.problem =
        core::AdvectionProblem::standard(argc > 1 ? std::atoi(argv[1]) : 24);
    cfg.steps = argc > 2 ? std::atoi(argv[2]) : 8;
    cfg.ntasks = argc > 3 ? std::atoi(argv[3]) : 4;
    cfg.threads_per_task = argc > 4 ? std::atoi(argv[4]) : 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    const std::string out_path =
        argc > 5 ? argv[5] : (id + ".trace.json");

    const auto& entry = impl::find_implementation(id);
    if (!entry.uses_mpi) cfg.ntasks = 1;
    std::printf("tracing %d^3 x %d steps of %s (%s)...\n",
                cfg.problem.domain.n, cfg.steps, entry.id.c_str(),
                entry.paper_section.c_str());
    advect::trace::reset();
    advect::trace::set_enabled(true);
    const auto r = entry.solve(cfg);
    advect::trace::set_enabled(false);
    const auto spans = advect::trace::snapshot();

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fputs(trace::to_chrome_json(spans).c_str(), f);
    std::fclose(f);

    std::printf("  wall %.3f s   %zu spans -> %s (chrome://tracing)\n",
                r.wall_seconds, spans.size(), out_path.c_str());
    if (advect::trace::dropped() > 0)
        std::printf("  warning: %zu spans dropped (shard capacity)\n",
                    advect::trace::dropped());
    std::fputs(trace::format_summary(trace::summarize(spans)).c_str(),
               stdout);
    return 0;
}

int cmd_chaos(int argc, char** argv) {
    namespace chaos = advect::chaos;
    namespace trace = advect::trace;
    const std::string scenario = argc > 0 ? argv[0] : "nic-jitter";
    if (scenario == "--list") {
        std::printf("single-knob scenarios (x = amplitude us or "
                    "probability):\n");
        for (const auto& name : chaos::scenario_names())
            std::printf("  %s\n", name.c_str());
        std::printf("game-day drills (correlated plans; also committed "
                    "under chaos/scenarios/):\n");
        for (const auto& g : chaos::game_day_catalog())
            std::printf("  %-22s %-28s %s\n", g.name.c_str(),
                        ("chaos/scenarios/" + g.file).c_str(),
                        g.summary.c_str());
        return 0;
    }
    if (scenario == "--dump") {
        // Print the catalog plan as scenario-file JSON; this is how the
        // committed chaos/scenarios/*.json files are (re)generated and how
        // the tests pin them to the in-code catalog.
        if (argc < 2) {
            std::fprintf(stderr, "chaos --dump needs a game-day name\n");
            return 2;
        }
        // plan_to_json is newline-terminated; print verbatim so the file is
        // byte-identical to what the pin test compares against.
        std::printf("%s",
                    chaos::plan_to_json(chaos::game_day_by_name(argv[1]).plan)
                        .c_str());
        return 0;
    }
    const std::string id = argc > 1 ? argv[1] : "mpi_nonblocking";
    const double x = argc > 2 ? std::atof(argv[2]) : 200.0;
    const std::uint64_t seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
    impl::SolverConfig cfg;
    cfg.problem =
        core::AdvectionProblem::standard(argc > 4 ? std::atoi(argv[4]) : 24);
    cfg.steps = argc > 5 ? std::atoi(argv[5]) : 8;
    cfg.ntasks = argc > 6 ? std::atoi(argv[6]) : 4;
    cfg.threads_per_task = argc > 7 ? std::atoi(argv[7]) : 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    const std::string out_path =
        argc > 8 ? argv[8] : (id + ".chaos.trace.json");

    // A scenario argument ending in .json names a scenario file
    // (chaos/scenario_file.hpp); x and seed then come from the file.
    const bool from_file =
        scenario.size() > 5 &&
        scenario.compare(scenario.size() - 5, 5, ".json") == 0;
    const chaos::FaultPlan plan = from_file
                                      ? chaos::load_plan_file(scenario)
                                      : chaos::scenario_by_name(scenario, x,
                                                                seed);
    const auto& entry = impl::find_implementation(id);
    if (!entry.uses_mpi) cfg.ntasks = 1;
    if (from_file)
        std::printf("chaos file '%s' (%zu rules, seed=%llu) on %d^3 x %d "
                    "steps of %s (%s)...\n",
                    scenario.c_str(), plan.rules.size(),
                    static_cast<unsigned long long>(plan.seed),
                    cfg.problem.domain.n, cfg.steps, entry.id.c_str(),
                    entry.paper_section.c_str());
    else
        std::printf("chaos '%s' (x=%g, seed=%llu) on %d^3 x %d steps of %s "
                    "(%s)...\n",
                    scenario.c_str(), x,
                    static_cast<unsigned long long>(seed),
                    cfg.problem.domain.n, cfg.steps, entry.id.c_str(),
                    entry.paper_section.c_str());

    trace::reset();
    trace::set_enabled(true);
    auto session = std::make_unique<chaos::Session>(plan);
    const auto r = entry.solve(cfg);
    const auto log = session->log();
    const double injected_ms = 1e3 * session->max_rank_injected_seconds();
    session.reset();  // join delivery threads before snapshotting spans
    trace::set_enabled(false);
    const auto spans = trace::snapshot();

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fputs(trace::to_chrome_json(spans).c_str(), f);
    std::fclose(f);

    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const bool ok = r.state.interior_equals(ref);
    std::printf("  wall %.3f s   %zu faults fired   worst-rank injected "
                "%.2f ms\n",
                r.wall_seconds, log.size(), injected_ms);
    std::printf("  trace absorbed fraction %.1f%%   %zu spans -> %s "
                "(chaos spans in their own category)\n",
                100.0 * chaos::absorbed_fraction(spans), spans.size(),
                out_path.c_str());
    if (!log.empty()) {
        constexpr std::size_t kShow = 10;
        std::fputs(chaos::format_log({log.data(),
                                      std::min(log.size(), kShow)})
                       .c_str(),
                   stdout);
        if (log.size() > kShow)
            std::printf("  ... (%zu more)\n", log.size() - kShow);
    }
    // The overlap summary folds the injection in: its chaos line shows
    // injected time vs the share hidden under real work.
    std::fputs(trace::format_summary(trace::summarize(spans)).c_str(),
               stdout);
    std::printf("  matches reference: %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}

int cmd_launch(int argc, char** argv) {
    namespace chaos = advect::chaos;
    namespace trace = advect::trace;
    impl::LaunchOptions opts;
    std::string chaos_arg;
    std::string scenario_name;
    std::string trace_path;
    double x = 200.0;
    std::uint64_t seed = 42;
    int ranks = 4;
    std::vector<std::string> pos;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (++i >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[i];
        };
        if (a == "--transport")
            opts.transport = impl::transport_from_name(next());
        else if (a == "--progress") {
            const std::string v = next();
            opts.progress = (v == "off" || v == "poll" || v == "polled")
                                ? msg::ProgressMode::Polled
                                : msg::ProgressMode::Thread;
        } else if (a == "--ranks")
            ranks = std::atoi(next());
        else if (a == "--chaos")
            chaos_arg = next();
        else if (a == "--scenario")
            scenario_name = next();
        else if (a == "--x")
            x = std::atof(next());
        else if (a == "--seed")
            seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--trace") {
            trace_path = next();
            opts.trace = true;
        } else {
            pos.push_back(a);
        }
    }
    const std::string id = !pos.empty() ? pos[0] : "cpu_gpu_overlap";
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(
        pos.size() > 1 ? std::atoi(pos[1].c_str()) : 24);
    cfg.steps = pos.size() > 2 ? std::atoi(pos[2].c_str()) : 8;
    cfg.threads_per_task = pos.size() > 3 ? std::atoi(pos[3].c_str()) : 2;
    cfg.ntasks = ranks;
    cfg.block_x = 8;
    cfg.block_y = 4;
    if (!scenario_name.empty()) {
        cfg.problem.scenario = core::scenario_by_name(scenario_name);
        // standard(n) picks nu at the constant-velocity stability limit;
        // variable-coefficient scenarios see a larger max |c|, so rescale
        // to a safe Courant fraction against the actual field.
        if (!cfg.problem.constant_coefficients())
            cfg.problem.nu = 0.5 / cfg.problem.velocity_field().max_abs();
    }

    std::optional<chaos::FaultPlan> plan;
    if (!chaos_arg.empty()) {
        const bool from_file =
            chaos_arg.size() > 5 &&
            chaos_arg.compare(chaos_arg.size() - 5, 5, ".json") == 0;
        plan = from_file ? chaos::load_plan_file(chaos_arg)
                         : chaos::scenario_by_name(chaos_arg, x, seed);
        opts.fault_plan = &*plan;
    }

    const auto& entry = impl::find_implementation(id);
    std::printf("launching %d^3 x %d steps of %s (%s) on the %s transport, "
                "%d rank(s), scenario %s...\n",
                cfg.problem.domain.n, cfg.steps, entry.id.c_str(),
                entry.paper_section.c_str(),
                impl::transport_name(opts.transport),
                entry.uses_mpi ? cfg.ntasks : 1,
                scenario_name.empty() ? "periodic" : scenario_name.c_str());
    const impl::LaunchReport report = impl::launch_solver(id, cfg, opts);

    const auto ref = core::run_reference(cfg.problem, cfg.steps);
    const bool ok = report.result.state.interior_equals(ref);
    std::printf("  wall %.3f s   host %.2f GF   Linf vs analytic %.3e   "
                "matches reference: %s\n",
                report.result.wall_seconds, report.result.gf(cfg),
                report.result.error.linf, ok ? "yes" : "NO");
    if (plan) {
        std::printf("  %zu faults fired\n", report.fault_log.size());
        constexpr std::size_t kShow = 10;
        std::fputs(chaos::format_log(
                       {report.fault_log.data(),
                        std::min(report.fault_log.size(), kShow)})
                       .c_str(),
                   stdout);
        if (report.fault_log.size() > kShow)
            std::printf("  ... (%zu more)\n", report.fault_log.size() - kShow);
    }
    if (opts.trace) {
        std::FILE* f = std::fopen(trace_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
            return 1;
        }
        std::fputs(trace::to_chrome_json(report.spans).c_str(), f);
        std::fclose(f);
        std::printf("  %zu spans -> %s (chrome://tracing)\n",
                    report.spans.size(), trace_path.c_str());
        std::fputs(
            trace::format_summary(trace::summarize(report.spans)).c_str(),
            stdout);
    }
    return ok ? 0 : 1;
}

int cmd_plan(int argc, char** argv) {
    namespace plan = advect::plan;
    namespace trace = advect::trace;
    const std::string id = argc > 0 ? argv[0] : "cpu_gpu_overlap";
    const int n = argc > 1 ? std::atoi(argv[1]) : 24;
    const int tasks = argc > 2 ? std::atoi(argv[2]) : 4;
    const int box = argc > 3 ? std::atoi(argv[3]) : 2;

    // Single-task plans (A, E) cover the whole domain; the rest get the
    // representative rank-0 subdomain of the requested decomposition.
    plan::StepPlan p = plan::build_step_plan(id, {{n, n, n}, box});
    if (p.uses_comm) {
        const auto decomp = core::make_decomposition({n, n, n}, tasks);
        p = plan::build_step_plan(id, {decomp.local_extents(0), box});
    }

    std::printf("%s: one step of a %d^3 run%s (%zu tasks, %s)\n",
                p.impl_id.c_str(), n,
                p.uses_comm ? (" over " + std::to_string(tasks) + " tasks")
                                  .c_str()
                            : "",
                p.tasks.size(),
                p.mode == plan::Mode::TeamStages ? "one team-staged region"
                                                 : "host issue order");
    std::printf("%3s  %-16s %-16s %-5s %-18s %s\n", "#", "task", "op", "lane",
                "deps", "payload");
    std::vector<int> depth(p.tasks.size(), 0);
    for (std::size_t i = 0; i < p.tasks.size(); ++i) {
        const plan::Task& t = p.tasks[i];
        std::string deps;
        for (const int d : t.deps) {
            if (!deps.empty()) deps += ",";
            deps += p.tasks[static_cast<std::size_t>(d)].name;
            depth[i] = std::max(depth[i], depth[static_cast<std::size_t>(d)] + 1);
        }
        if (!t.cross_step_dep.empty())
            deps += "prev:" + t.cross_step_dep;
        if (t.also_prev_terminal)
            deps += deps.empty() ? "prev-step" : "+prev-step";
        std::string payload;
        if (t.payload.bytes > 0)
            payload += std::to_string(t.payload.bytes) + " B";
        if (t.payload.points > 0)
            payload += (payload.empty() ? "" : ", ") +
                       std::to_string(t.payload.points) + " pts";
        if (t.payload.stream > 0)
            payload += (payload.empty() ? "" : ", ") + std::string("stream ") +
                       std::to_string(t.payload.stream);
        std::printf("%3zu  %-16s %-16s %-5s %-18s %s%s\n", i, t.name.c_str(),
                    plan::op_name(t.op), trace::lane_name(t.lane),
                    deps.c_str(), payload.c_str(),
                    static_cast<int>(i) == p.terminal ? "  <- terminal" : "");
    }

    if (argc > 4) {
        // Export a synthetic timeline (each task one unit at its dependency
        // depth) through the same Chrome-trace exporter the runtime uses.
        std::vector<trace::Span> spans;
        for (std::size_t i = 0; i < p.tasks.size(); ++i) {
            trace::Span s;
            s.name = p.tasks[i].name;
            s.category = "plan";
            s.lane = p.tasks[i].lane;
            s.t0 = 1e-6 * depth[i];
            s.t1 = 1e-6 * (depth[i] + 1);
            spans.push_back(std::move(s));
        }
        std::FILE* f = std::fopen(argv[4], "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", argv[4]);
            return 1;
        }
        std::fputs(trace::to_chrome_json(spans).c_str(), f);
        std::fclose(f);
        std::printf("(dependency-depth timeline -> %s)\n", argv[4]);
    }
    return 0;
}

int cmd_model(int argc, char** argv) {
    sched::RunConfig cfg;
    cfg.machine = machine_by_name(argc > 0 ? argv[0] : "yona");
    const auto code = sched::code_from_id(argc > 1 ? argv[1] : "cpu_gpu_overlap");
    cfg.nodes = argc > 2 ? std::atoi(argv[2]) : 1;
    cfg.threads_per_task = argc > 3 ? std::atoi(argv[3])
                                    : cfg.machine.cores_per_node();
    cfg.box_thickness = argc > 4 ? std::atoi(argv[4]) : 1;
    const auto report = sched::step_report(code, cfg);
    std::fputs(sched::format_report(code, cfg, report).c_str(), stdout);
    return 0;
}

int cmd_tune(int argc, char** argv) {
    sched::RunConfig base;
    base.machine = machine_by_name(argc > 0 ? argv[0] : "yona");
    base.nodes = argc > 1 ? std::atoi(argv[1]) : 4;
    const auto space = tune::TuningSpace::full(base.machine, sched::Code::I);
    tune::SearchStats stats;
    const auto best = tune::coordinate_descent(sched::Code::I, base, space,
                                               std::nullopt, &stats);
    std::printf("tuned IV-I on %s, %d node(s): %d thr/task, box %d, block "
                "%dx%d -> %.1f GF (%d evaluations)\n",
                base.machine.name.c_str(), base.nodes, best.threads_per_task,
                best.box_thickness, best.block_x, best.block_y, best.gf,
                stats.evaluations);
    return best.gf > 0.0 ? 0 : 1;
}

int cmd_scaling(int argc, char** argv) {
    const auto m = machine_by_name(argc > 0 ? argv[0] : "yona");
    const auto code = sched::code_from_id(argc > 1 ? argv[1] : "mpi_bulk");
    const auto nodes = sched::default_node_counts(m);
    const auto series = sched::best_series(code, m, nodes);
    std::printf("%s, %s: best modelled GF\n", m.name.c_str(),
                sched::code_label(code).c_str());
    for (const auto& p : series)
        std::printf("  %8d cores  %10.1f GF  (T=%d%s)\n", p.cores, p.gf,
                    p.threads,
                    p.box > 0 ? (", box=" + std::to_string(p.box)).c_str()
                              : "");
    return 0;
}

int cmd_gantt(int argc, char** argv) {
    sched::RunConfig cfg;
    cfg.machine = machine_by_name(argc > 0 ? argv[0] : "yona");
    const auto code =
        sched::code_from_id(argc > 1 ? argv[1] : "cpu_gpu_overlap");
    cfg.nodes = argc > 2 ? std::atoi(argv[2]) : 1;
    cfg.threads_per_task = argc > 3 ? std::atoi(argv[3])
                                    : cfg.machine.cores_per_node();
    std::printf("%s on %s, %d node(s): two modelled steps\n",
                sched::code_label(code).c_str(), cfg.machine.name.c_str(),
                cfg.nodes);
    std::fputs(sched::render_step_gantt(code, cfg).c_str(), stdout);
    return 0;
}

int cmd_machines() {
    for (const auto& m :
         {model::MachineSpec::jaguarpf(), model::MachineSpec::hopper2(),
          model::MachineSpec::lens(), model::MachineSpec::yona(),
          machine_by_name("localhost")}) {
        std::printf("%-34s %6d nodes x %2d cores  %-16s %s\n", m.name.c_str(),
                    m.nodes, m.cores_per_node(), m.interconnect.c_str(),
                    m.gpu ? m.gpu->props.name.c_str() : "-");
    }
    return 0;
}

int cmd_impls() {
    for (const auto& e : impl::registry())
        std::printf("%-20s %-6s %s\n", e.id.c_str(), e.paper_section.c_str(),
                    e.description.c_str());
    return 0;
}

int cmd_scenarios() {
    for (const auto& s : core::scenario_catalog()) {
        char shape[48];
        if (s.scenario.constant_velocity())
            std::snprintf(shape, sizeof shape, "%s",
                          core::to_string(core::VelocityKind::Constant));
        else
            std::snprintf(shape, sizeof shape, "%s(%.2g)",
                          core::to_string(s.scenario.velocity),
                          s.scenario.amplitude);
        std::printf("%-16s %-22s %s\n", s.name, shape, s.summary);
    }
    return 0;
}

// --------------------------------------------------------------------------
// advectctl verify: the docs/VERIFICATION.md entry points.

int cmd_verify_norms(int argc, char** argv) {
    const std::string id = argc > 0 ? argv[0] : "single_task";
    const int n = argc > 1 ? std::atoi(argv[1]) : 32;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 16;
    const int fuse = argc > 3 ? std::atoi(argv[3]) : 1;
    impl::SolverConfig cfg;
    cfg.problem = advect::verify::mms_problem(n);
    cfg.steps = steps;
    cfg.fuse = fuse;
    cfg.ntasks = impl::find_implementation(id).uses_mpi ? 2 : 1;
    cfg.threads_per_task = 2;
    const auto r = impl::find_implementation(id).solve(cfg);
    std::printf(
        "%s on the manufactured problem, n=%d steps=%d fuse=%d:\n"
        "  L1 %.6e  L2 %.6e  Linf %.6e\n",
        id.c_str(), n, steps, fuse, r.error.l1, r.error.l2, r.error.linf);
    return 0;
}

int cmd_verify_order(int argc, char** argv) {
    const std::string id = argc > 0 ? argv[0] : "single_task";
    const int fuse = argc > 1 ? std::atoi(argv[1]) : 1;
    const auto study = advect::verify::convergence_study(id, fuse);
    std::printf("%s", advect::verify::format_study(study).c_str());
    return 0;
}

int cmd_verify_fuzz(int argc, char** argv) {
    std::uint64_t seed = 0;
    int count = 1;
    for (int i = 0; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (flag == "--count")
            count = std::atoi(argv[i + 1]);
        else {
            std::fprintf(stderr, "verify fuzz: unknown flag '%s'\n",
                         flag.c_str());
            return 2;
        }
    }
    const auto summary = advect::verify::run_campaign(seed, count, true);
    return summary.ok() ? 0 : 1;
}

int cmd_verify_schedule(int argc, char** argv) {
    const std::string id = argc > 0 ? argv[0] : "mpi_nonblocking";
    const int n = argc > 1 ? std::atoi(argv[1]) : 14;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 4;
    const int tasks = argc > 3 ? std::atoi(argv[3]) : 3;
    const int nseeds = argc > 4 ? std::atoi(argv[4]) : 8;
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    cfg.ntasks = tasks;
    cfg.threads_per_task = 2;
    std::vector<unsigned> seeds;
    for (int i = 0; i < nseeds; ++i)
        seeds.push_back(static_cast<unsigned>(i) * 2654435761u + 17u);
    const auto report = advect::verify::explore_schedules(id, cfg, seeds);
    std::printf("%s", advect::verify::format_report(report).c_str());
    return report.ok() ? 0 : 1;
}

int cmd_verify(int argc, char** argv) {
    if (argc < 1) {
        std::fprintf(
            stderr,
            "usage: advectctl verify <norms|order|fuzz|schedule> [args...]\n"
            "  norms    [impl] [n] [steps] [fuse]\n"
            "  order    [impl] [fuse]\n"
            "  fuzz     [--seed N] [--count M]\n"
            "  schedule [impl] [n] [steps] [tasks] [nseeds]\n");
        return 2;
    }
    const std::string sub = argv[0];
    if (sub == "norms") return cmd_verify_norms(argc - 1, argv + 1);
    if (sub == "order") return cmd_verify_order(argc - 1, argv + 1);
    if (sub == "fuzz") return cmd_verify_fuzz(argc - 1, argv + 1);
    if (sub == "schedule") return cmd_verify_schedule(argc - 1, argv + 1);
    std::fprintf(stderr, "verify: unknown subcommand '%s'\n", sub.c_str());
    return 2;
}

int cmd_submit(int argc, char** argv) {
    namespace service = advect::service;
    std::string socket_path = "/tmp/advectd.sock";
    std::string spec_path;
    bool wait = false;
    service::JobSpec spec;
    spec.tenant = "cli";
    std::vector<std::string> pos;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (++i >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[i];
        };
        if (a == "--socket")
            socket_path = next();
        else if (a == "--spec")
            spec_path = next();
        else if (a == "--tenant")
            spec.tenant = next();
        else if (a == "--priority")
            spec.priority = std::atoi(next());
        else if (a == "--deadline")
            spec.deadline_s = std::atof(next());
        else if (a == "--ranks")
            spec.ranks = std::atoi(next());
        else if (a == "--fuse")
            spec.fuse = std::atoi(next());
        else if (a == "--transport")
            spec.transport = impl::transport_from_name(next());
        else if (a == "--scenario")
            spec.scenario = next();
        else if (a == "--chaos")
            spec.chaos = next();
        else if (a == "--x")
            spec.chaos_x = std::atof(next());
        else if (a == "--seed")
            spec.chaos_seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--state")
            spec.return_state = true;
        else if (a == "--wait")
            wait = true;
        else
            pos.push_back(a);
    }
    if (!spec_path.empty()) {
        std::FILE* f = std::fopen(spec_path.c_str(), "rb");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
            return 1;
        }
        std::string text;
        char buf[4096];
        for (std::size_t got; (got = std::fread(buf, 1, sizeof buf, f)) > 0;)
            text.append(buf, got);
        std::fclose(f);
        spec = service::job_from_json(text, spec_path);
    } else {
        if (!pos.empty()) spec.impl = pos[0];
        if (pos.size() > 1) spec.n = std::atoi(pos[1].c_str());
        if (pos.size() > 2) spec.steps = std::atoi(pos[2].c_str());
        if (pos.size() > 3) spec.threads = std::atoi(pos[3].c_str());
    }

    service::Client client(socket_path);
    try {
        const std::uint64_t id = client.submit(spec);
        std::printf("job %llu admitted (tenant %s, %s %d^3 x %d)\n",
                    static_cast<unsigned long long>(id),
                    spec.tenant.c_str(), spec.impl.c_str(), spec.n,
                    spec.steps);
        if (!wait) return 0;
        const service::CompletedJob done = client.wait(id);
        std::printf("job %llu %s   wall %.3f s   queue wait %.3f s   Linf "
                    "%.3e\n",
                    static_cast<unsigned long long>(done.id),
                    done.ok ? "completed" : ("FAILED: " + done.error).c_str(),
                    done.wall_s, done.queue_wait_s, done.linf);
        if (done.faults > 0)
            std::printf("  %zu faults fired, absorbed fraction %.1f%%\n",
                        done.faults, 100.0 * done.absorbed);
        return done.ok ? 0 : 1;
    } catch (const service::RejectedError& e) {
        std::fprintf(stderr, "rejected (%s): %s\n",
                     service::reject_reason_name(e.reason()),
                     e.detail().c_str());
        return 1;
    }
}

int cmd_status(int argc, char** argv) {
    namespace service = advect::service;
    const std::string socket_path =
        argc > 1 && std::strcmp(argv[0], "--socket") == 0
            ? argv[1]
            : "/tmp/advectd.sock";
    service::Client client(socket_path);
    std::fputs(client.status().c_str(), stdout);
    std::fputs("\n", stdout);
    return 0;
}

int cmd_drain(int argc, char** argv) {
    namespace service = advect::service;
    const std::string socket_path =
        argc > 1 && std::strcmp(argv[0], "--socket") == 0
            ? argv[1]
            : "/tmp/advectd.sock";
    service::Client client(socket_path);
    std::fputs(client.drain().c_str(), stdout);
    std::fputs("\n", stdout);
    return 0;
}

int cmd_gameday(int argc, char** argv) {
    namespace service = advect::service;
    service::GameDayConfig cfg;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (++i >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[i];
        };
        if (a == "--tenants")
            cfg.tenants = std::atoi(next());
        else if (a == "--jobs-per-weight")
            cfg.jobs_per_weight = std::atoi(next());
        else if (a == "--bench")
            cfg.bench_path = next();
        else if (a == "--label")
            cfg.bench_label = next();
        else if (a == "--socket")
            cfg.socket_path = next();
        else if (a == "--impl")
            cfg.base.impl = next();
        else if (a == "--no-verify")
            cfg.verify_states = false;
        else
            cfg.scenario = a;
    }
    {
        // Stamp the trajectory entry with today's date, like
        // tools/record_bench.py does.
        char day[16];
        const std::time_t now = std::time(nullptr);
        std::tm tm_utc{};
        gmtime_r(&now, &tm_utc);
        std::strftime(day, sizeof day, "%Y-%m-%d", &tm_utc);
        cfg.bench_date = day;
    }
    std::printf("game day '%s': %d tenants (weights 2:1:...), %d jobs per "
                "unit weight, %s %d^3 x %d\n",
                cfg.scenario.c_str(), cfg.tenants, cfg.jobs_per_weight,
                cfg.base.impl.c_str(), cfg.base.n, cfg.base.steps);
    std::fflush(stdout);
    const service::GameDayOutcome out = service::run_game_day(cfg);
    std::printf("  admitted %d   completed %d   failed %d\n", out.admitted,
                out.completed, out.failed);
    std::printf("  bitwise identical to standalone: %s\n",
                out.bitwise_ok ? "yes" : "NO");
    std::printf("  fair-share: weight-2 tenant served %.2fx the mean "
                "weight-1 tenant (want 2.0 +/- 15%%), spread %.2f\n",
                out.observed_ratio, out.fair_share_spread);
    if (out.absorbed_fraction >= 0.0)
        std::printf("  chaos absorbed fraction %.1f%%\n",
                    100.0 * out.absorbed_fraction);
    if (!cfg.bench_path.empty())
        std::printf("  SLO report -> %s (label %s)\n",
                    cfg.bench_path.c_str(), cfg.bench_label.c_str());
    std::printf("  gate: %s\n", out.gate_ok() ? "PASS" : "FAIL");
    return out.gate_ok() ? 0 : 1;
}

void usage() {
    std::fprintf(stderr,
                 "usage: advectctl <solve|trace|chaos|launch|plan|model|tune|"
                 "scaling|gantt|verify|machines|impls|scenarios|submit|"
                 "status|drain|gameday> [args...]\n"
                 "  solve   [impl] [n] [steps] [tasks] [threads]\n"
                 "  trace   [impl] [n] [steps] [tasks] [threads] [out.json]\n"
                 "  chaos   [scenario] [impl] [x] [seed] [n] [steps] [tasks]"
                 " [threads] [out.json]\n"
                 "          scenarios: nic-jitter message-drops gpu-slow"
                 " gpu-flaky straggler, or a *.json scenario file\n"
                 "  launch  [--transport inproc|socket|tcp] [--ranks N]"
                 " [--progress on|off]\n"
                 "          [--chaos scenario|file.json] [--x amp] [--seed s]"
                 " [--scenario name]\n"
                 "          [--trace out.json] [impl] [n] [steps] [threads]\n"
                 "  scenarios\n"
                 "          list the named workload scenarios"
                 " (docs/SCENARIOS.md) --scenario accepts\n"
                 "  plan    [impl] [n] [tasks] [box] [out.json]\n"
                 "  model   [machine] [impl] [nodes] [threads] [box]\n"
                 "  tune    [machine] [nodes]\n"
                 "  scaling [machine] [impl]\n"
                 "  gantt   [machine] [impl] [nodes] [threads]\n"
                 "  verify  <norms|order|fuzz|schedule> [args...]\n"
                 "  submit  [--socket p] [--spec job.json | [impl] [n]"
                 " [steps] [threads]]\n"
                 "          [--tenant t] [--priority p] [--deadline s]"
                 " [--ranks N] [--fuse F]\n"
                 "          [--transport inproc|socket|tcp] [--scenario name]"
                 " [--chaos name|file.json]\n"
                 "          [--state] [--wait]    submit one job to advectd\n"
                 "  status  [--socket p]          print the advectd SLO"
                 " report\n"
                 "  drain   [--socket p]          drain advectd and print"
                 " the final report\n"
                 "  gameday [scenario] [--tenants N] [--jobs-per-weight J]"
                 " [--impl id]\n"
                 "          [--bench BENCH_service.json] [--label L]"
                 " [--no-verify]\n"
                 "          run a game-day drill against live traffic"
                 " (docs/SERVICE.md)\n"
                 "  chaos --list\n"
                 "          list single-knob chaos scenarios and the"
                 " game-day catalog\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "solve") return cmd_solve(argc - 2, argv + 2);
        if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
        if (cmd == "chaos") return cmd_chaos(argc - 2, argv + 2);
        if (cmd == "launch") return cmd_launch(argc - 2, argv + 2);
        if (cmd == "plan") return cmd_plan(argc - 2, argv + 2);
        if (cmd == "model") return cmd_model(argc - 2, argv + 2);
        if (cmd == "tune") return cmd_tune(argc - 2, argv + 2);
        if (cmd == "scaling") return cmd_scaling(argc - 2, argv + 2);
        if (cmd == "gantt") return cmd_gantt(argc - 2, argv + 2);
        if (cmd == "verify") return cmd_verify(argc - 2, argv + 2);
        if (cmd == "machines") return cmd_machines();
        if (cmd == "impls") return cmd_impls();
        if (cmd == "scenarios") return cmd_scenarios();
        if (cmd == "submit") return cmd_submit(argc - 2, argv + 2);
        if (cmd == "status") return cmd_status(argc - 2, argv + 2);
        if (cmd == "drain") return cmd_drain(argc - 2, argv + 2);
        if (cmd == "gameday") return cmd_gameday(argc - 2, argv + 2);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    usage();
    return 2;
}
