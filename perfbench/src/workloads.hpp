#pragma once
/// \file workloads.hpp
/// The three workloads (perfbench/README.md) and the per-layer probes. A
/// library workload is a fixed mix of solver jobs run through
/// impl::launch_solver; the service workload drives an in-process advectd
/// over Unix sockets. The seed draws job order, tenants and arrival times;
/// every job's final state is checked bitwise against core::run_reference.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "impl/launch.hpp"
#include "service/job.hpp"

namespace perfbench {

/// One library job: an implementation, its configuration and transport.
struct LibJob {
    std::string label;  ///< e.g. "mpi_bulk 2x1 fuse2"
    std::string impl;
    advect::impl::SolverConfig cfg;
    advect::impl::LaunchOptions opts;
};

/// What one executed job contributes to the end-to-end metrics.
struct JobSample {
    std::string label;
    double job_s = 0.0;    ///< call to return (library) or due to reply
    double wall_s = 0.0;   ///< SolveResult::wall_seconds (stepping loop)
    double points_steps = 0.0;
    double price_s = 0.0;  ///< admission oracle's modelled run time
    bool ok = false;
};

/// The counters the final result line reports.
struct Outcome {
    std::vector<JobSample> jobs;
    std::size_t attempted = 0;
    std::size_t failed = 0;  ///< failed, rejected, timed out or not bitwise
    double run_s = 0.0;      ///< wall time of the measured loop
};

/// Everything the service workload measures beyond the job samples.
struct ServiceStats {
    std::vector<double> submit_ack_s;
    std::vector<double> queue_wait_s;
    std::vector<double> exec_s;
    std::vector<double> reply_s;
    std::vector<double> late_s;
    std::size_t rejected = 0;
    std::string oracle;  ///< which machine spec priced admission
};

[[nodiscard]] bool is_workload(const std::string& name);
/// True for the workloads that run the 27-term sweep and must refuse to
/// run if it degenerates (paper-sweep, hybrid-gpu).
[[nodiscard]] bool is_headline(const std::string& name);

/// The fixed job mix of a library workload, in the seed's order.
[[nodiscard]] std::vector<LibJob> library_jobs(const std::string& workload,
                                               std::uint64_t seed);

/// Run whole rounds of `jobs` until `seconds` have elapsed (at least one
/// round), each job timed from the call into launch_solver to its return
/// and checked bitwise against the reference. With `trace` set, jobs run
/// with LaunchOptions::trace and the first round's spans go to `log`.
[[nodiscard]] Outcome run_library(const std::vector<LibJob>& jobs,
                                  double seconds, bool trace, SpanLog& log);

/// The service workload's job specs for one run: a fixed mix of periodic
/// (one-term shift) and rotating (variable-coefficient) jobs, ordered and
/// assigned to tenants by the seed.
struct ServiceJob {
    advect::service::JobSpec spec;
    double due_s = 0.0;  ///< offset from the start of the open loop
};
[[nodiscard]] std::vector<ServiceJob> service_jobs(std::uint64_t seed,
                                                   double seconds,
                                                   double rate_per_s);
/// Offered rate of the service workload's open loop, jobs per second.
inline constexpr double kServiceRate = 16.0;

/// Run an in-process advectd and drive `jobs` at their due times through
/// service::Client over Unix sockets, one connection per job. `sock_dir`
/// holds the socket (inside the checkout).
[[nodiscard]] Outcome run_service(const std::vector<ServiceJob>& jobs,
                                  const std::string& sock_dir,
                                  ServiceStats& stats, SpanLog& log);

/// The per-layer probes of a traced run: every layer's public entry points
/// timed in isolation, written to `report`. `workload_problem` supplies the
/// coefficients and grid the core, omp, plan and gpu probes use; `workload`
/// the workload's own job samples for the model-accuracy ratio.
void run_layer_probes(const advect::core::AdvectionProblem& workload_problem,
                      const Outcome& workload, Report& report, SpanLog& log);

/// Service-layer metrics from a service run.
void add_service_metrics(const ServiceStats& stats, Report& report);

}  // namespace perfbench
