#include "service/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <span>
#include <system_error>

#include "chaos/gameday.hpp"
#include "core/json.hpp"
#include "service/protocol.hpp"

namespace advect::service {

namespace json = core::json;
namespace wire = msg::wire;

namespace {

/// The daemon's quantum when none was configured: the modelled cost of the
/// default job, so a typical mixed queue interleaves at job granularity.
double auto_quantum(const CostOracle& oracle) {
    JobSpec probe;
    probe.tenant = "quantum";
    const double q = oracle.cost_seconds(probe);
    return q > 0.0 ? q : 0.05;
}

/// Client -> daemon frames are small JSON documents (job specs, scenario
/// names); a length prefix beyond this is a corrupt stream, and the daemon
/// drops the connection rather than buffering towards it.
constexpr std::uint32_t kMaxInboundFrameBytes = 1u << 20;

}  // namespace

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      admission_(cfg_.queue_capacity, cfg_.oracle),
      scheduler_(cfg_.quantum_s > 0.0 ? cfg_.quantum_s
                                      : auto_quantum(cfg_.oracle)),
      fleet_(cfg_.max_batch) {
    for (const auto& [tenant, weight] : cfg_.tenant_weights) {
        scheduler_.set_weight(tenant, weight);
        slo_.set_weight(tenant, weight);
    }
    if (!cfg_.gameday.empty()) {
        gameday_ = cfg_.gameday;
        gameday_plan_ = chaos::game_day_by_name(gameday_).plan;
    }
}

Daemon::~Daemon() {
    for (auto& c : conns_)
        if (c.fd >= 0) ::close(c.fd);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(cfg_.socket_path.c_str());
    }
}

double Daemon::now_s() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SloReport Daemon::report() const {
    return slo_.report(start_s_ > 0.0 ? now_s() - start_s_ : 0.0, gameday_);
}

void Daemon::close_conn(std::size_t conn_index) {
    Conn& c = conns_[conn_index];
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
}

void Daemon::queue_frame(std::size_t conn_index, std::uint8_t type,
                         std::span<const std::uint8_t> payload) {
    Conn& c = conns_[conn_index];
    if (c.fd < 0) return;
    std::uint8_t header[5];
    header[0] = type;
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::memcpy(header + 1, &len, sizeof len);
    c.outbuf.insert(c.outbuf.end(), header, header + sizeof header);
    c.outbuf.insert(c.outbuf.end(), payload.begin(), payload.end());
    flush_conn(conn_index);
}

void Daemon::flush_conn(std::size_t conn_index) {
    Conn& c = conns_[conn_index];
    while (c.fd >= 0 && c.outpos < c.outbuf.size()) {
        const ssize_t sent =
            ::send(c.fd, c.outbuf.data() + c.outpos,
                   c.outbuf.size() - c.outpos, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (sent > 0) {
            c.outpos += static_cast<std::size_t>(sent);
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;  // kernel buffer full; POLLOUT will resume the flush
        if (sent < 0 && errno == EINTR) continue;
        // A departed client is not the daemon's problem: its jobs still
        // run (the SLO ledger needs them), its frames go nowhere.
        close_conn(conn_index);
        return;
    }
    if (c.outpos == c.outbuf.size()) {
        c.outbuf.clear();
        c.outpos = 0;
    }
}

void Daemon::flush_all_blocking(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (now_s() < deadline) {
        std::vector<pollfd> fds;
        std::vector<std::size_t> conn_of_fd;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (conns_[i].fd < 0 || conns_[i].outbuf.empty()) continue;
            fds.push_back({conns_[i].fd, POLLOUT, 0});
            conn_of_fd.push_back(i);
        }
        if (fds.empty()) return;
        int rc;
        do {
            rc = ::poll(fds.data(), fds.size(), 100);
        } while (rc < 0 && errno == EINTR);
        if (rc <= 0) continue;
        for (std::size_t k = 0; k < fds.size(); ++k)
            if ((fds[k].revents & (POLLOUT | POLLERR | POLLHUP)) != 0)
                flush_conn(conn_of_fd[k]);
    }
}

std::size_t Daemon::find_conn(std::uint64_t conn_id) const {
    for (std::size_t i = 0; i < conns_.size(); ++i)
        if (conns_[i].id == conn_id && conns_[i].fd >= 0) return i;
    return conns_.size();
}

void Daemon::send_to_conn(std::uint64_t conn_id, std::uint8_t type,
                          const std::string& text) {
    const std::size_t i = find_conn(conn_id);
    if (i == conns_.size()) return;  // client departed; frame goes nowhere
    queue_frame(i, type,
                {reinterpret_cast<const std::uint8_t*>(text.data()),
                 text.size()});
}

void Daemon::handle_submit(std::size_t conn_index, const std::string& text) {
    const std::uint64_t conn_id = conns_[conn_index].id;
    JobSpec spec;
    double cost = 0.0;
    try {
        spec = job_from_json(text);
        slo_.on_submitted(spec.tenant);
        if (draining_)
            throw AdmissionError(RejectReason::QueueFull,
                                 "daemon is draining; no new admissions");
        cost = admission_.admit(spec, scheduler_.size());
    } catch (const AdmissionError& e) {
        slo_.on_rejected(spec.tenant.empty() ? "<unknown>" : spec.tenant,
                         e.reason());
        json::Value v = json::Value::object();
        v.set("reason",
              json::Value::string(reject_reason_name(e.reason())));
        v.set("detail", json::Value::string(e.detail()));
        send_to_conn(conn_id, kFrameReject, json::dump(v, 0));
        return;
    } catch (const std::invalid_argument& e) {
        // job_from_json's named-key message, shipped verbatim.
        slo_.on_submitted("<unknown>");
        slo_.on_rejected("<unknown>", RejectReason::BadSpec);
        json::Value v = json::Value::object();
        v.set("reason", json::Value::string(
                            reject_reason_name(RejectReason::BadSpec)));
        v.set("detail", json::Value::string(e.what()));
        send_to_conn(conn_id, kFrameReject, json::dump(v, 0));
        return;
    }
    QueuedJob job;
    job.id = ++next_id_;
    job.spec = std::move(spec);
    job.cost_s = cost;
    job.conn = conn_id;
    job.admitted_at = now_s();
    slo_.on_admitted(job.spec.tenant);
    json::Value v = json::Value::object();
    v.set("id", json::Value::number(static_cast<double>(job.id)));
    v.set("cost_s", json::Value::number(cost));
    send_to_conn(conn_id, kFrameSubmitOk, json::dump(v, 0));
    scheduler_.push(std::move(job));
}

void Daemon::handle_frame(std::size_t conn_index, std::uint8_t type,
                          const std::vector<std::uint8_t>& payload) {
    const std::uint64_t conn_id = conns_[conn_index].id;
    const std::string text(reinterpret_cast<const char*>(payload.data()),
                           payload.size());
    switch (type) {
        case kFrameSubmit:
            handle_submit(conn_index, text);
            break;
        case kFrameStatus:
            send_to_conn(conn_id, kFrameReport, report().to_json());
            break;
        case kFrameDrain:
            draining_ = true;
            conns_[conn_index].drain_requested = true;
            break;
        case kFrameGameDay:
            try {
                if (text.empty()) {
                    gameday_.clear();
                    gameday_plan_ = chaos::FaultPlan{};
                } else {
                    gameday_plan_ = chaos::game_day_by_name(text).plan;
                    gameday_ = text;
                }
                json::Value v = json::Value::object();
                v.set("gameday", json::Value::string(gameday_));
                send_to_conn(conn_id, kFrameSubmitOk, json::dump(v, 0));
            } catch (const std::exception& e) {
                json::Value v = json::Value::object();
                v.set("reason", json::Value::string(reject_reason_name(
                                    RejectReason::BadSpec)));
                v.set("detail", json::Value::string(e.what()));
                send_to_conn(conn_id, kFrameReject, json::dump(v, 0));
            }
            break;
        default: {
            json::Value v = json::Value::object();
            v.set("reason", json::Value::string(
                                reject_reason_name(RejectReason::BadSpec)));
            v.set("detail",
                  json::Value::string("unknown frame type " +
                                      std::to_string(int(type))));
            send_to_conn(conn_id, kFrameReject, json::dump(v, 0));
        }
    }
}

void Daemon::send_event(const JobResult& r, double queue_wait_s,
                        double turnaround_s) {
    json::Value v = json::Value::object();
    v.set("id", json::Value::number(static_cast<double>(r.id)));
    v.set("tenant", json::Value::string(r.tenant));
    v.set("ok", json::Value::boolean(r.ok));
    v.set("error", json::Value::string(r.error));
    v.set("wall_s", json::Value::number(r.wall_s));
    v.set("l2", json::Value::number(r.norms.l2));
    v.set("linf", json::Value::number(r.norms.linf));
    v.set("faults", json::Value::number(static_cast<double>(r.faults)));
    v.set("absorbed", json::Value::number(r.absorbed));
    v.set("queue_wait_s", json::Value::number(queue_wait_s));
    v.set("turnaround_s", json::Value::number(turnaround_s));
    // Tells the client to expect a kFrameState frame right behind this one.
    v.set("state_follows", json::Value::boolean(r.state.has_value()));
    const std::size_t i = find_conn(r.conn);
    if (i == conns_.size()) return;  // submitter departed; SLO ledger keeps
                                     // the completion, the frames go nowhere
    const std::string event = json::dump(v, 0);
    queue_frame(i, kFrameEvent,
                {reinterpret_cast<const std::uint8_t*>(event.data()),
                 event.size()});
    // queue_frame's eager flush may have detected a dead peer; the index is
    // still valid (compaction only runs between poll passes).
    if (r.state && conns_[i].fd >= 0) {
        wire::ByteWriter w;
        w.u64(r.id);
        marshal_state(w, *r.state);
        queue_frame(i, kFrameState, w.bytes());
    }
}

void Daemon::dispatch_one() {
    // Snapshot before the pop: this is what makes a dispatch "contended"
    // for the fair-share ledger.
    std::vector<std::string> backlogged = scheduler_.backlogged();
    std::optional<QueuedJob> head = scheduler_.pop();
    if (!head) return;
    std::vector<QueuedJob> batch;
    batch.push_back(std::move(*head));
    for (auto& extra : scheduler_.take_matching(
             batch.front().spec.tenant, batch.front().spec.key(),
             fleet_.max_batch() - 1))
        batch.push_back(std::move(extra));

    const double dispatched_at = now_s();
    double total_cost = 0.0;
    std::vector<double> waits;
    waits.reserve(batch.size());
    for (const auto& j : batch) {
        total_cost += j.cost_s;
        waits.push_back(dispatched_at - j.admitted_at);
    }
    slo_.on_dispatched(batch.front().spec.tenant, total_cost,
                       static_cast<int>(batch.size()), std::move(backlogged),
                       waits);

    const chaos::FaultPlan* overlay =
        gameday_.empty() ? nullptr : &gameday_plan_;
    const std::vector<JobResult> results = fleet_.run_batch(batch, overlay);
    const double done_at = now_s();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double turnaround = done_at - batch[i].admitted_at;
        slo_.on_completed(results[i].tenant, results[i].ok,
                          results[i].wall_s, batch[i].spec.deadline_s,
                          turnaround, results[i].absorbed);
        send_event(results[i], waits[i], turnaround);
    }
}

void Daemon::read_conn(std::size_t conn_index) {
    // Drain what the kernel already has — never wait for more. POLLIN only
    // promises one readable byte; a blocking read here would let one client
    // mid-frame stall admission and event delivery for every other tenant.
    bool peer_gone = false;
    std::uint8_t chunk[65536];
    while (conns_[conn_index].fd >= 0) {
        const ssize_t r = ::recv(conns_[conn_index].fd, chunk, sizeof chunk,
                                 MSG_DONTWAIT);
        if (r > 0) {
            Conn& c = conns_[conn_index];
            c.inbuf.insert(c.inbuf.end(), chunk, chunk + r);
            continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        peer_gone = true;  // clean EOF or hard error
        break;
    }
    // Dispatch every complete frame buffered so far (a submit that raced a
    // disconnect still counts). handle_frame may close the connection via a
    // failed flush, so re-check liveness between frames.
    std::size_t pos = 0;
    while (conns_[conn_index].fd >= 0) {
        const Conn& c = conns_[conn_index];
        if (c.inbuf.size() - pos < 5) break;
        const std::uint8_t type = c.inbuf[pos];
        std::uint32_t len = 0;
        std::memcpy(&len, c.inbuf.data() + pos + 1, sizeof len);
        if (len > kMaxInboundFrameBytes) {
            close_conn(conn_index);  // corrupt stream, not a message
            return;
        }
        if (c.inbuf.size() - pos < 5 + static_cast<std::size_t>(len)) break;
        const std::vector<std::uint8_t> payload(
            c.inbuf.begin() + static_cast<std::ptrdiff_t>(pos) + 5,
            c.inbuf.begin() + static_cast<std::ptrdiff_t>(pos) + 5 + len);
        pos += 5 + len;
        handle_frame(conn_index, type, payload);
    }
    Conn& c = conns_[conn_index];
    if (c.fd < 0) return;
    if (pos > 0)
        c.inbuf.erase(c.inbuf.begin(),
                      c.inbuf.begin() + static_cast<std::ptrdiff_t>(pos));
    if (peer_gone) close_conn(conn_index);
}

void Daemon::run() {
    listen_fd_ = listen_unix(cfg_.socket_path);
    ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
    start_s_ = now_s();

    while (true) {
        // Drain every pending control frame before the (long, synchronous)
        // dispatch, so concurrent submissions land in the same scheduling
        // round and fair share has a full picture.
        bool progress = true;
        while (progress) {
            progress = false;
            // Dead connections are only marked (fd = -1) while a pass may
            // still hold indices; reclaim them between passes so a
            // long-running daemon's conns_ cannot grow without bound.
            std::erase_if(conns_, [](const Conn& c) { return c.fd < 0; });
            std::vector<pollfd> fds;
            fds.push_back({listen_fd_, POLLIN, 0});
            std::vector<std::size_t> conn_of_fd;
            for (std::size_t i = 0; i < conns_.size(); ++i) {
                if (conns_[i].fd < 0) continue;
                const short ev = conns_[i].outbuf.empty()
                                     ? short(POLLIN)
                                     : short(POLLIN | POLLOUT);
                fds.push_back({conns_[i].fd, ev, 0});
                conn_of_fd.push_back(i);
            }
            const bool idle = !dispatch_ready() && !draining_;
            int rc;
            do {
                rc = ::poll(fds.data(), fds.size(), idle ? 100 : 0);
            } while (rc < 0 && errno == EINTR);
            if (rc < 0)
                throw std::system_error(errno, std::generic_category(),
                                        "advectd: poll");
            if (rc == 0) break;
            if ((fds[0].revents & POLLIN) != 0) {
                while (true) {
                    const int fd = ::accept(listen_fd_, nullptr, nullptr);
                    if (fd < 0) break;
                    // Accepted sockets do not inherit the listener's
                    // O_NONBLOCK; set it so a trickling client can never
                    // block the loop mid-recv.
                    ::fcntl(fd, F_SETFL, O_NONBLOCK);
                    Conn c;
                    c.fd = fd;
                    c.id = ++next_conn_id_;
                    conns_.push_back(std::move(c));
                }
                progress = true;
            }
            for (std::size_t k = 1; k < fds.size(); ++k) {
                const std::size_t ci = conn_of_fd[k - 1];
                if ((fds[k].revents & POLLOUT) != 0) {
                    flush_conn(ci);
                    progress = true;
                }
                if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                    continue;
                if (conns_[ci].fd < 0) continue;  // flush hit a dead peer
                read_conn(ci);
                progress = true;
            }
        }

        if (dispatch_ready()) {
            dispatch_one();
            continue;
        }
        if (draining_) break;
    }

    const std::string report_json = report().to_json();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].fd >= 0 && conns_[i].drain_requested)
            queue_frame(i, kFrameReport,
                        {reinterpret_cast<const std::uint8_t*>(
                             report_json.data()),
                         report_json.size()});
    }
    flush_all_blocking(10.0);
    if (!cfg_.report_path.empty()) {
        std::ofstream out(cfg_.report_path);
        out << report_json << "\n";
    }
}

}  // namespace advect::service
