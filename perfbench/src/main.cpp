/// \file main.cpp
/// perfbench: the repository's end-to-end benchmark.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--out-dir <dir>]
///
/// --trace 0 runs the workload with tracing off and prints the end-to-end
/// metrics; --trace 1 runs it with LaunchOptions::trace, probes every layer,
/// writes <out-dir>/trace-<workload>.json (Chrome/Perfetto) and prints the
/// per-layer metrics and a self-time table. Human-readable lines start with
/// "# "; the last line is the JSON result. Exit status is nonzero when any
/// job failed or was not bitwise equal to the reference.

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "trace/export.hpp"
#include "workloads.hpp"

namespace core = advect::core;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_build/perfbench";
};

Args parse(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument(k + ": missing value");
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
            if (!(a.seconds > 0.0))
                throw std::invalid_argument("--seconds must be positive");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (k == "--out-dir") {
            a.out_dir = v;
        } else {
            throw std::invalid_argument("unknown option " + k);
        }
    }
    if (!have_workload || !perfbench::is_workload(a.workload))
        throw std::invalid_argument(
            "--workload must be paper-sweep, hybrid-gpu or service-mix");
    return a;
}

/// Library jobs standing in for the service mix when tracing overhead is
/// measured (the daemon owns its launches, so they cannot be traced from
/// here): one job of each kind in the mix, run through launch_solver.
std::vector<perfbench::LibJob> service_kinds(std::uint64_t seed) {
    std::vector<perfbench::LibJob> out;
    for (const auto& j : perfbench::service_jobs(seed, 1.0, 8.0)) {
        perfbench::LibJob l;
        l.impl = j.spec.impl;
        l.cfg = j.spec.solver_config();
        l.opts.transport = j.spec.transport;
        l.label = j.spec.impl + " " + std::to_string(j.spec.n) + "^3 " +
                  (j.spec.scenario.empty() ? "periodic" : j.spec.scenario);
        out.push_back(std::move(l));
    }
    return out;
}

void append(perfbench::Outcome& into, const perfbench::Outcome& more) {
    into.jobs.insert(into.jobs.end(), more.jobs.begin(), more.jobs.end());
    into.attempted += more.attempted;
    into.failed += more.failed;
    into.run_s += more.run_s;
}

/// Million point-updates per second of the stepping loops of `o`'s
/// successful jobs: sum of points x steps over sum of wall_seconds.
double loop_mpts_s(const perfbench::Outcome& o, std::size_t* samples) {
    double work = 0.0;
    double wall = 0.0;
    std::size_t n = 0;
    for (const auto& j : o.jobs)
        if (j.ok) {
            work += j.points_steps;
            wall += j.wall_s;
            ++n;
        }
    if (samples != nullptr) *samples = n;
    return wall > 0.0 ? work / wall / 1e6 : 0.0;
}

void add_end_to_end(const perfbench::Outcome& o, perfbench::Report& r) {
    std::vector<double> job_s;
    std::vector<double> setup_s;
    for (const auto& j : o.jobs) {
        job_s.push_back(j.job_s);
        setup_s.push_back(j.job_s - j.wall_s);
    }
    std::size_t ok = 0;
    const double rate = loop_mpts_s(o, &ok);
    r.add("loop_mpts_s", rate, "Mpts/s", ok);
    r.add("job_s_p50", perfbench::median(job_s), "s", job_s.size());
    r.add("setup_s", perfbench::median(setup_s), "s", setup_s.size());
    r.add("jobs_per_s", static_cast<double>(o.jobs.size()) / o.run_s, "1/s",
          o.jobs.size());
    r.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
}

/// Per-job-kind medians, for reading the end-to-end numbers.
void print_jobs(const perfbench::Outcome& o) {
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_label;
    for (const auto& j : o.jobs) {
        by_label[j.label].first.push_back(j.job_s);
        by_label[j.label].second.push_back(j.wall_s);
    }
    std::printf("# %-40s %6s %12s %12s\n", "job", "n", "job_s_p50",
                "wall_s_p50");
    for (const auto& [label, t] : by_label)
        std::printf("# %-40s %6zu %12.6f %12.6f\n", label.c_str(),
                    t.first.size(), perfbench::median(t.first),
                    perfbench::median(t.second));
}

/// Rounds of the library jobs with tracing off and on, alternated for
/// `seconds` so machine drift hits both alike; returns 1 - the median of
/// the paired round rates traced / untraced. Spans of the first traced
/// round go to `log`.
double trace_overhead(const std::vector<perfbench::LibJob>& jobs,
                      double seconds, perfbench::SpanLog& log,
                      perfbench::Outcome& all) {
    perfbench::SpanLog quiet(false);
    std::vector<double> ratio;
    const double start = perfbench::now_s();
    do {
        const perfbench::Outcome off =
            perfbench::run_library(jobs, 0.0, false, quiet);
        const perfbench::Outcome on =
            perfbench::run_library(jobs, 0.0, true, ratio.empty() ? log : quiet);
        const double r_off = loop_mpts_s(off, nullptr);
        if (r_off > 0.0) ratio.push_back(loop_mpts_s(on, nullptr) / r_off);
        append(all, off);
        append(all, on);
    } while (perfbench::now_s() - start < seconds);
    return ratio.empty() ? 0.0 : 1.0 - perfbench::median(ratio);
}

int run(const Args& a) {
    std::printf("# host: %s\n", perfbench::host_fingerprint(a.seed).c_str());
    std::printf("# workload: %s  seconds: %g  trace: %d\n",
                a.workload.c_str(), a.seconds, a.trace ? 1 : 0);

    const bool service = a.workload == "service-mix";
    std::vector<perfbench::LibJob> jobs =
        service ? service_kinds(a.seed) : perfbench::library_jobs(a.workload,
                                                                  a.seed);
    // Honest flops: the headline workloads must run the 27-term sweep; a
    // job that compacts to fewer terms would silently measure another
    // kernel.
    for (const auto& j : jobs) {
        const int terms = perfbench::stencil_terms(j.cfg.problem);
        if (perfbench::is_headline(a.workload) && terms != 27) {
            std::fprintf(stderr,
                         "perfbench: %s: job '%s' has %d stencil terms, not "
                         "27; refusing to run\n",
                         a.workload.c_str(), j.label.c_str(), terms);
            return 4;
        }
    }
    if (service) {
        // JobSpec maps the periodic scenario to AdvectionProblem::standard.
        std::printf("# stencil terms: periodic %d (the Courant-1 shift), "
                    "rotating 27 (variable coefficients)\n",
                    perfbench::stencil_terms(
                        core::AdvectionProblem::standard(24)));
    } else {
        std::printf("# stencil terms: %d\n",
                    perfbench::stencil_terms(jobs.front().cfg.problem));
    }

    perfbench::SpanLog log(a.trace);
    perfbench::Report report;
    perfbench::Outcome workload;
    perfbench::ServiceStats stats;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    if (!a.trace) {
        if (service)
            workload = perfbench::run_service(
                perfbench::service_jobs(a.seed, a.seconds,
                                        perfbench::kServiceRate),
                a.out_dir, stats, log);
        else
            workload = perfbench::run_library(jobs, a.seconds, false, log);
        add_end_to_end(workload, report);
        print_jobs(workload);
        attempted = workload.attempted;
        failed = workload.failed;
        if (service)
            std::printf("# admission oracle: %s\n", stats.oracle.c_str());
    } else {
        // Workload pass: the service loop itself (service-mix), then the
        // workload's jobs with tracing off and on.
        double overhead = 0.0;
        if (service) {
            workload = perfbench::run_service(
                perfbench::service_jobs(a.seed, a.seconds / 2,
                                        perfbench::kServiceRate),
                a.out_dir, stats, log);
            perfbench::Outcome lib;
            overhead = trace_overhead(jobs, a.seconds / 2, log, lib);
            attempted += lib.attempted;
            failed += lib.failed;
        } else {
            overhead = trace_overhead(jobs, a.seconds, log, workload);
        }
        attempted += workload.attempted;
        failed += workload.failed;

        const core::AdvectionProblem problem =
            service ? core::AdvectionProblem::standard(48)
                    : jobs.front().cfg.problem;
        perfbench::run_layer_probes(problem, workload, report, log);

        if (!service) {
            // The service layer, probed with a short run of the service
            // mix (after the forking probes: the daemon is a thread).
            const perfbench::Outcome probe = perfbench::run_service(
                perfbench::service_jobs(a.seed, 2.0, perfbench::kServiceRate),
                a.out_dir, stats, log);
            attempted += probe.attempted;
            failed += probe.failed;
        }
        perfbench::add_service_metrics(stats, report);
        std::printf("# admission oracle: %s\n", stats.oracle.c_str());
        report.add("trace.overhead_frac", overhead, "frac");

        const std::string path =
            a.out_dir + "/trace-" + a.workload + ".json";
        std::ofstream f(path);
        f << advect::trace::to_chrome_json(log.spans());
        if (!f)
            throw std::runtime_error("cannot write " + path);
        std::printf("# trace: %s (%zu spans; %zu traced launches over the "
                    "span bound not kept)\n",
                    path.c_str(), log.spans().size(), log.dropped_launches());
        std::printf("# %-28s %8s %12s %12s\n", "layer", "spans", "total_s",
                    "self_s");
        for (const auto& row : perfbench::layer_table(log.spans()))
            std::printf("# %-28s %8zu %12.6f %12.6f\n", row.layer.c_str(),
                        row.spans, row.total_s, row.self_s);
    }

    report.print_table(a.trace ? "per-layer metrics" : "end-to-end metrics");
    if (!a.trace) {
        // Reported, not gated: on a host whose hypervisor steals CPU in
        // bursts the tail moves far beyond any bound a gate could hold.
        std::vector<double> job_s;
        for (const auto& j : workload.jobs) job_s.push_back(j.job_s);
        std::printf("# job_s_p90: %.6g s (%zu jobs)\n",
                    perfbench::quantile(job_s, 0.9), job_s.size());
    }
    std::printf("# fail_frac: %.6g (%zu of %zu jobs)\n",
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0,
                failed, attempted);
    const bool correct = failed == 0;
    std::printf("%s\n", report.result_json(correct, attempted, failed).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
    std::fprintf(stderr,
                 "perfbench: refusing to measure an assert-enabled build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
#endif
    Args args;
    try {
        args = parse(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
