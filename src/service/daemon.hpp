#pragma once
/// \file daemon.hpp
/// The advectd daemon (docs/SERVICE.md): a single-threaded poll loop over a
/// Unix-domain listening socket. Frames are accepted and admitted between
/// job executions; execution itself is synchronous — impl::launch_solver
/// owns the process-global trace recorder and chaos session, and the
/// socket-transport launcher forks workers, which requires a quiescent
/// process (msg/transport/process.hpp). One batch at a time is therefore
/// not a simplification but the substrate's contract; concurrency lives in
/// the kernel's listen backlog and the admission queue.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "service/admission.hpp"
#include "service/fleet.hpp"
#include "service/scheduler.hpp"
#include "service/slo.hpp"

namespace advect::service {

struct DaemonConfig {
    std::string socket_path = "/tmp/advectd.sock";
    std::size_t queue_capacity = 64;  ///< admission bound
    int max_batch = 4;                ///< jobs fused into one launch
    /// DRR credit per visit at weight 1.0; 0 = auto (the oracle's price of
    /// a default job).
    double quantum_s = 0.0;
    /// Fair-share weights; unlisted tenants default to 1.0.
    std::vector<std::pair<std::string, double>> tenant_weights;
    /// Start with this game-day overlay active ("" = none). Can also be
    /// switched at runtime with a kFrameGameDay frame.
    std::string gameday;
    /// When non-empty, the final SLO report JSON is written here at drain.
    std::string report_path;
    /// Admission cost oracle; defaults to the (possibly calibrated)
    /// localhost machine.
    CostOracle oracle;
    /// Dispatch barrier: hold every job in the queue until this many jobs
    /// have been admitted, or until a drain arrives; then dispatch as
    /// usual. A drill that submits a known batch sets it to the batch size
    /// so fair share sees every tenant backlogged, however fast the first
    /// jobs would have run. 0 dispatches from the first admission on.
    std::uint64_t dispatch_after = 0;
};

class Daemon {
  public:
    explicit Daemon(DaemonConfig cfg);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Bind the socket and serve until a drain completes: after a
    /// kFrameDrain no new jobs are admitted, in-flight and queued work
    /// finishes, every drain requester receives the final SLO report, and
    /// run() returns. Throws std::system_error on socket failures.
    void run();

    /// The report so far (tests; run() serves it over the wire).
    [[nodiscard]] SloReport report() const;

    [[nodiscard]] const DaemonConfig& config() const { return cfg_; }

  private:
    struct Conn {
        int fd = -1;
        /// Stable identity, assigned at accept and never reused. Queued
        /// jobs reference this id, never the fd: the kernel recycles fd
        /// numbers as soon as a client disconnects, and a recycled number
        /// must not route one tenant's completion frames to another.
        std::uint64_t id = 0;
        bool drain_requested = false;
        /// Outbound frames not yet accepted by the kernel. The daemon never
        /// blocks on a slow reader: frames are queued here and flushed on
        /// POLLOUT, so one client mid-submit cannot stall events bound for
        /// another (the classic single-threaded-daemon deadlock).
        std::vector<std::uint8_t> outbuf;
        std::size_t outpos = 0;
        /// Inbound bytes not yet forming a complete frame. Client sockets
        /// are non-blocking; the daemon only ever recv()s what the kernel
        /// already has, so a client trickling a partial frame can never
        /// stall the poll loop for the other tenants.
        std::vector<std::uint8_t> inbuf;
    };

    void handle_frame(std::size_t conn_index, std::uint8_t type,
                      const std::vector<std::uint8_t>& payload);
    void handle_submit(std::size_t conn_index, const std::string& text);
    void dispatch_one();
    void send_event(const JobResult& r, double queue_wait_s,
                    double turnaround_s);
    void send_to_conn(std::uint64_t conn_id, std::uint8_t type,
                      const std::string& text);
    /// Non-blocking drain of whatever the kernel has buffered for this
    /// connection, then dispatch of every complete frame accumulated in
    /// inbuf. Closes the connection on EOF, hard error, or an oversized
    /// (corrupt) frame header.
    void read_conn(std::size_t conn_index);
    /// Index of the live connection with this id, or conns_.size().
    [[nodiscard]] std::size_t find_conn(std::uint64_t conn_id) const;
    /// Append one framed message to the connection's outbound buffer and
    /// attempt an immediate non-blocking flush.
    void queue_frame(std::size_t conn_index, std::uint8_t type,
                     std::span<const std::uint8_t> payload);
    /// Push buffered bytes with MSG_DONTWAIT until done or EAGAIN; closes
    /// the connection on a hard send error (EPIPE etc.).
    void flush_conn(std::size_t conn_index);
    /// Blocking best-effort flush of every connection (drain shutdown).
    void flush_all_blocking(double timeout_s);
    void close_conn(std::size_t conn_index);
    [[nodiscard]] double now_s() const;
    /// A job is queued and the dispatch barrier is open (job ids count
    /// admissions, so next_id_ is the number admitted so far).
    [[nodiscard]] bool dispatch_ready() const {
        return !scheduler_.empty() &&
               (next_id_ >= cfg_.dispatch_after || draining_);
    }

    DaemonConfig cfg_;
    AdmissionController admission_;
    FairShareScheduler scheduler_;
    FleetManager fleet_;
    SloCollector slo_;
    /// Live connections; dead entries are compacted away each poll round
    /// (jobs reference connections by Conn::id, so indices may shift).
    std::vector<Conn> conns_;
    int listen_fd_ = -1;
    bool draining_ = false;
    std::uint64_t next_id_ = 0;
    std::uint64_t next_conn_id_ = 0;
    double start_s_ = 0.0;
    std::string gameday_;
    chaos::FaultPlan gameday_plan_;
};

}  // namespace advect::service
