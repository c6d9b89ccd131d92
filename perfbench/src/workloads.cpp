#include "workloads.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "model/machine.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace perfbench {

namespace core = advect::core;
namespace impl = advect::impl;
namespace service = advect::service;

namespace {

/// The paper's 27-term Lax-Wendroff sweep: a velocity with no Courant-1
/// component at nu = 0.5 keeps every tensor factor nonzero.
core::AdvectionProblem sweep_problem(int n) {
    core::AdvectionProblem p = core::AdvectionProblem::standard(n);
    p.velocity = {1.0, 0.5, 0.25};
    p.nu = 0.5;
    return p;
}

/// An in-process job of `impl_id` on `ntasks` x `threads`.
LibJob lib_job(const std::string& impl_id, const core::AdvectionProblem& p,
               int steps, int ntasks, int threads, int fuse = 1) {
    LibJob j;
    j.impl = impl_id;
    j.cfg.problem = p;
    j.cfg.steps = steps;
    j.cfg.ntasks = ntasks;
    j.cfg.threads_per_task = threads;
    j.cfg.fuse = fuse;
    j.opts.transport = impl::TransportKind::InProcess;
    std::ostringstream label;
    label << impl_id << ' ' << ntasks << 'x' << threads;
    if (fuse > 1) label << " fuse" << fuse;
    j.label = label.str();
    return j;
}

/// Key of the reference a job is checked against.
std::string problem_key(const core::AdvectionProblem& p, int steps) {
    std::ostringstream os;
    os.precision(17);
    os << p.domain.n << '|' << steps << '|' << p.nu << '|' << p.velocity.cx
       << ',' << p.velocity.cy << ',' << p.velocity.cz << '|'
       << static_cast<int>(p.scenario.velocity) << '|'
       << p.scenario.amplitude << '|' << p.scenario.open_faces();
    return os.str();
}

/// The admission oracle every modelled price comes from: the nominal
/// localhost spec, built explicitly so prices never depend on the working
/// directory (no calibration file is read).
const service::CostOracle& oracle() {
    static const service::CostOracle o{advect::model::MachineSpec::localhost()};
    return o;
}

service::JobSpec spec_of(const LibJob& j) {
    service::JobSpec s;
    s.tenant = "bench";
    s.impl = j.impl;
    s.n = j.cfg.problem.domain.n;
    s.steps = j.cfg.steps;
    s.ranks = j.cfg.ntasks;
    s.threads = j.cfg.threads_per_task;
    s.fuse = j.cfg.fuse;
    s.block_x = j.cfg.block_x;
    s.block_y = j.cfg.block_y;
    s.transport = j.opts.transport;
    return s;
}

/// core::run_reference of (p, steps), computed once per process and kept:
/// the reference is never part of any timed region, and later calls with
/// the same problem (further rounds, the traced passes) reuse it. Call
/// only from the main thread.
const core::Field3& reference(const core::AdvectionProblem& p, int steps) {
    static std::map<std::string, core::Field3> refs;
    const std::string key = problem_key(p, steps);
    auto it = refs.find(key);
    if (it == refs.end())
        it = refs.emplace(key, core::run_reference(p, steps)).first;
    return it->second;
}

double points_steps(const core::AdvectionProblem& p, int steps) {
    return static_cast<double>(p.domain.volume()) * steps;
}

}  // namespace

bool is_workload(const std::string& name) {
    return name == "paper-sweep" || name == "hybrid-gpu" ||
           name == "service-mix";
}

bool is_headline(const std::string& name) {
    return name == "paper-sweep" || name == "hybrid-gpu";
}

std::vector<LibJob> library_jobs(const std::string& workload,
                                 std::uint64_t seed) {
    std::vector<LibJob> jobs;
    if (workload == "paper-sweep") {
        // Compute-bound regime: two 128^3 fields are 34 MB, beyond the
        // aggregate L2; kernel, fused tile and thread team do the work. Two
        // threads per job, not four: a four-thread job needs every core at
        // each step's barrier, so CPU time stolen from any core stalls it.
        const auto p = sweep_problem(128);
        const int steps = 40;
        jobs.push_back(lib_job("single_task", p, steps, 1, 2));
        jobs.push_back(lib_job("mpi_bulk", p, steps, 2, 1));
        jobs.push_back(lib_job("mpi_nonblocking", p, steps, 2, 1));
        jobs.push_back(lib_job("mpi_thread_overlap", p, steps, 1, 2));
        jobs.push_back(lib_job("mpi_bulk", p, steps, 2, 1, 2));
    } else if (workload == "hybrid-gpu") {
        // The simulated-device implementations E-I (paper §IV-E..I).
        const auto p = sweep_problem(96);
        const int steps = 20;
        jobs.push_back(lib_job("gpu_resident", p, steps, 1, 1));
        for (const char* id : {"gpu_mpi_bulk", "gpu_mpi_streams",
                               "cpu_gpu_bulk", "cpu_gpu_overlap"})
            jobs.push_back(lib_job(id, p, steps, 2, 1));
    } else {
        throw std::invalid_argument("perfbench: '" + workload +
                                    "' is not a library workload");
    }
    Rng rng(seed);
    rng.shuffle(jobs);
    return jobs;
}

Outcome run_library(const std::vector<LibJob>& jobs, double seconds,
                    bool trace, SpanLog& log) {
    // References and modelled prices are computed before the clock starts:
    // neither is part of any job's time.
    std::vector<const core::Field3*> refs;
    std::vector<double> prices;
    for (const LibJob& j : jobs) {
        refs.push_back(&reference(j.cfg.problem, j.cfg.steps));
        prices.push_back(oracle().price_seconds(spec_of(j)));
    }

    Outcome out;
    const double start = now_s();
    // Spans are kept for the first round only: later traced rounds still
    // pay the recording cost (the overhead measurement) but would only
    // repeat the same picture at many times the file size.
    for (bool first = true;; first = false) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const LibJob& j = jobs[i];
            impl::LaunchOptions opts = j.opts;
            opts.trace = trace;
            JobSample s;
            s.label = j.label;
            s.points_steps = points_steps(j.cfg.problem, j.cfg.steps);
            s.price_s = prices[i];
            ++out.attempted;
            const double span_t0 = log.now();
            try {
                impl::LaunchReport rep;
                s.job_s = wall_seconds(
                    [&] { rep = impl::launch_solver(j.impl, j.cfg, opts); });
                const double span_t1 = log.now();
                s.wall_s = rep.result.wall_seconds;
                s.ok = bitwise_equal(rep.result.state, *refs[i]);
                if (trace && first) {
                    log.add("impl", "launch_solver " + j.label, span_t0,
                            span_t1);
                    log.merge_launch(std::move(rep.spans), span_t0);
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: job '%s' failed: %s\n",
                             j.label.c_str(), e.what());
                s.ok = false;
            }
            if (!s.ok) ++out.failed;
            out.jobs.push_back(std::move(s));
        }
        if (now_s() - start >= seconds) break;
    }
    out.run_s = now_s() - start;
    return out;
}

std::vector<ServiceJob> service_jobs(std::uint64_t seed, double seconds,
                                     double rate_per_s) {
    // The fixed mix: short setup-heavy jobs, 40% the periodic scenario
    // (c = (1,1,1) at nu = 1, which compacts to the one-term shift) and 60%
    // the variable-coefficient rotating scenario, none wider than two
    // threads. Listed by expected job time: the kinds on either side of the
    // median (5th/6th) and of p90 (9th/10th) are the same size, so neither
    // percentile sits on a step between very different jobs.
    struct Kind {
        int n, steps;
        const char* scenario;
        const char* impl;
        int ranks, threads;
    };
    static const Kind kinds[] = {
        {24, 8, "", "mpi_bulk", 2, 1},
        {24, 8, "rotating", "single_task", 1, 2},
        {32, 12, "", "single_task", 1, 2},
        {40, 16, "", "mpi_nonblocking", 2, 1},
        {32, 12, "rotating", "mpi_bulk", 2, 1},
        {32, 12, "rotating", "mpi_nonblocking", 2, 1},
        {48, 20, "", "mpi_thread_overlap", 1, 2},
        {40, 16, "rotating", "mpi_nonblocking", 2, 1},
        {48, 20, "rotating", "mpi_bulk", 2, 1},
        {48, 20, "rotating", "single_task", 1, 2},
    };
    constexpr std::size_t kKinds = sizeof kinds / sizeof kinds[0];
    Rng rng(seed);
    const auto count = static_cast<std::size_t>(
        std::ceil(seconds * rate_per_s / kKinds) * kKinds);
    std::vector<ServiceJob> out;
    double due = 0.0;
    std::vector<std::size_t> round;
    for (std::size_t i = 0; i < count; ++i) {
        if (round.empty()) {
            for (std::size_t k = 0; k < kKinds; ++k) round.push_back(k);
            rng.shuffle(round);
        }
        const Kind& k = kinds[round.back()];
        round.pop_back();
        ServiceJob j;
        // Tenants in the 2:1 ratio of their fair-share weights.
        j.spec.tenant = rng.uniform() < 2.0 / 3.0 ? "alpha" : "beta";
        j.spec.impl = k.impl;
        j.spec.n = k.n;
        j.spec.steps = k.steps;
        j.spec.ranks = k.ranks;
        j.spec.threads = k.threads;
        j.spec.scenario = k.scenario;
        j.spec.transport = impl::TransportKind::InProcess;
        j.spec.return_state = true;
        j.due_s = due;
        // Open loop: gaps uniform in [0.5, 1.5] of the mean gap.
        due += (0.5 + rng.uniform()) / rate_per_s;
        out.push_back(std::move(j));
    }
    return out;
}

namespace {

/// advectd serving on a thread of this process. stop() (also run by the
/// destructor, so error paths join too) drains the daemon, joins its
/// thread and rethrows whatever the daemon's run() threw.
class DaemonThread {
  public:
    explicit DaemonThread(const service::DaemonConfig& cfg)
        : daemon_(cfg), path_(cfg.socket_path), thread_([this] {
              try {
                  daemon_.run();
              } catch (...) {
                  error_ = std::current_exception();
                  failed_ = true;
              }
          }) {}
    ~DaemonThread() {
        try {
            stop();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: advectd: %s\n", e.what());
        }
    }
    DaemonThread(const DaemonThread&) = delete;
    DaemonThread& operator=(const DaemonThread&) = delete;

    [[nodiscard]] bool failed() const { return failed_; }

    void stop() {
        if (!thread_.joinable()) return;
        if (!failed_) {
            try {
                service::Client ctl(path_, 60.0);
                (void)ctl.drain();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: drain: %s\n", e.what());
            }
        }
        thread_.join();
        if (error_) std::rethrow_exception(error_);
    }

  private:
    service::Daemon daemon_;
    std::string path_;
    std::exception_ptr error_;  ///< written by the thread, read after join
    std::atomic<bool> failed_{false};
    std::thread thread_;  ///< last: starts after the members it uses
};

/// Client threads of the service loop's open-loop generator.
constexpr int kServiceClients = 8;

/// What the client thread serving one job records; each job's slot is
/// written only by the thread that took it.
struct ServiceSlot {
    double due = 0.0, spawn = 0.0, ack = 0.0, read = 0.0;
    double queue_wait = 0.0, turnaround = 0.0, wall = 0.0;
    bool ok = false;
    bool rejected = false;
};

}  // namespace

Outcome run_service(const std::vector<ServiceJob>& jobs,
                    const std::string& sock_dir, ServiceStats& stats,
                    SpanLog& log) {
    // Computed before any client thread starts; the threads only read.
    std::vector<const core::Field3*> refs;
    std::vector<double> prices;
    for (const ServiceJob& j : jobs) {
        const impl::SolverConfig cfg = j.spec.solver_config();
        refs.push_back(&reference(cfg.problem, cfg.steps));
        prices.push_back(oracle().price_seconds(j.spec));
    }

    service::DaemonConfig dc;
    dc.socket_path =
        sock_dir + "/advectd-" + std::to_string(::getpid()) + ".sock";
    dc.queue_capacity = 4 * jobs.size() + 16;  // never the limiting factor
    dc.tenant_weights = {{"alpha", 2.0}, {"beta", 1.0}};
    dc.oracle = oracle();
    stats.oracle = dc.oracle.machine.name;
    ::unlink(dc.socket_path.c_str());

    DaemonThread server(dc);
    // Wait for the listener (bounded), then run the open loop.
    const double ready_deadline = now_s() + 10.0;
    for (;;) {
        try {
            service::Client probe(dc.socket_path, 5.0);
            break;
        } catch (const std::system_error&) {
            if (now_s() > ready_deadline || server.failed()) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    // A fixed pool of client threads takes the jobs in due order; each
    // sleeps until its job is due, so arrivals follow the schedule unless
    // every client is still waiting for a reply (then lateness shows).
    std::vector<ServiceSlot> slots(jobs.size());
    std::atomic<std::size_t> next{0};
    const double start = now_s() + 0.02;
    const auto client_loop = [&] {
        for (std::size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
            ServiceSlot& s = slots[i];
            const service::JobSpec& spec = jobs[i].spec;
            s.due = start + jobs[i].due_s;
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.due))));
            s.spawn = now_s();
            try {
                service::Client c(dc.socket_path, 60.0);
                const std::uint64_t id = c.submit(spec);
                s.ack = now_s();
                const service::CompletedJob done = c.wait(id);
                s.read = now_s();
                s.queue_wait = done.queue_wait_s;
                s.turnaround = done.turnaround_s;
                s.wall = done.wall_s;
                s.ok = done.ok && done.state.has_value() &&
                       bitwise_equal(*done.state, *refs[i]);
                if (!done.ok)
                    std::fprintf(stderr, "perfbench: service job failed: %s\n",
                                 done.error.c_str());
            } catch (const service::RejectedError& e) {
                s.rejected = true;
                std::fprintf(stderr, "perfbench: %s\n", e.what());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: service job: %s\n", e.what());
            }
            if (s.read == 0.0) s.read = now_s();
        }
    };
    std::vector<std::thread> workers;
    try {
        for (int w = 0; w < kServiceClients; ++w)
            workers.emplace_back(client_loop);
    } catch (...) {
        for (auto& w : workers) w.join();
        throw;
    }
    for (auto& w : workers) w.join();
    double end = start;
    for (const auto& s : slots) end = std::max(end, s.read);
    server.stop();
    ::unlink(dc.socket_path.c_str());

    Outcome out;
    out.run_s = end - start;
    const double log0 = log.now() - now_s();  // steady clock -> log timeline
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ServiceSlot& s = slots[i];
        const auto& spec = jobs[i].spec;
        JobSample j;
        j.label = spec.impl + " " + std::to_string(spec.n) + "^3 " +
                  (spec.scenario.empty() ? "periodic" : spec.scenario);
        j.job_s = s.read - s.due;
        j.wall_s = s.wall;
        j.points_steps = static_cast<double>(spec.n) * spec.n * spec.n *
                         spec.steps;
        j.price_s = prices[i];
        j.ok = s.ok;
        ++out.attempted;
        if (!s.ok) ++out.failed;
        if (s.rejected) ++stats.rejected;
        out.jobs.push_back(std::move(j));
        if (s.ack > 0.0) {
            stats.late_s.push_back(s.spawn - s.due);
            stats.submit_ack_s.push_back(s.ack - s.spawn);
            stats.queue_wait_s.push_back(s.queue_wait);
            stats.exec_s.push_back(s.turnaround - s.queue_wait);
            // What remains of the job once the daemon-side turnaround is
            // taken out: delivery of the event and state frames.
            stats.reply_s.push_back(
                std::max(0.0, (s.read - s.ack) - s.turnaround));
            log.add("service", "submit " + spec.tenant, log0 + s.spawn,
                    log0 + s.ack);
            log.add("service", "wait " + j.label, log0 + s.ack,
                    log0 + s.read);
        }
    }
    return out;
}

void add_service_metrics(const ServiceStats& stats, Report& report) {
    const std::size_t n = stats.submit_ack_s.size();
    report.add("service.submit_ack_s", median(stats.submit_ack_s), "s", n);
    report.add("service.queue_wait_s", median(stats.queue_wait_s), "s", n);
    report.add("service.exec_s", median(stats.exec_s), "s", n);
    report.add("service.reply_s", median(stats.reply_s), "s", n);
    const std::size_t attempted = n + stats.rejected;
    report.add("service.reject_frac",
               attempted > 0 ? static_cast<double>(stats.rejected) /
                                   static_cast<double>(attempted)
                             : 0.0,
               "frac", attempted);
    report.add("service.generator_late_s", median(stats.late_s), "s",
               stats.late_s.size());
}

}  // namespace perfbench
