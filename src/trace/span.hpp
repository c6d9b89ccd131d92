#pragma once
/// \file span.hpp
/// Runtime trace spans for the execution layer (docs/OBSERVABILITY.md).
///
/// The paper's argument is about which resources are busy *concurrently*
/// (CPU cores, NIC, PCIe link, GPU); this recorder makes that measurable on
/// the real substrates, not just the DES model. Each span is one interval
/// of activity on one resource lane, stamped with the logical rank, team
/// thread and device stream that produced it. The recorder is:
///
///  * disabled by default, and zero-cost when disabled: every choke point
///    checks one relaxed atomic load and returns;
///  * thread-sharded: each recording thread appends to its own bounded
///    shard behind its own (uncontended) mutex, so instrumentation never
///    serializes the ranks/teams/streams it is observing;
///  * bounded: a shard that fills up drops further spans and counts them,
///    so tracing a long run degrades instead of exhausting memory.
///
/// Spans from every shard are merged by snapshot() and fed to the exporters
/// in export.hpp (Chrome trace-event JSON, overlap summary).

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace advect::trace {

/// The resource a span occupied, mirroring the DES node model's resources
/// ("cpu", "nic", "pcie", "gpu") plus a Host lane for driver-side phases,
/// waits and synchronizations that occupy no modelled resource.
enum class Lane : std::uint8_t { Host = 0, Cpu, Nic, Pcie, Gpu };
inline constexpr std::size_t kLaneCount = 5;

/// Lane name as used by the exporters and the DES resource mapping.
[[nodiscard]] const char* lane_name(Lane lane);
/// Inverse of lane_name; unknown names map to Lane::Host.
[[nodiscard]] Lane lane_from_name(const std::string& name);

/// One completed interval of activity.
struct Span {
    std::string name;           ///< operation, e.g. "kernel", "isend"
    const char* category = ""; ///< subsystem: "msg", "omp", "gpu", "impl", "model"
    Lane lane = Lane::Host;
    double t0 = 0.0;            ///< seconds since the recorder epoch
    double t1 = 0.0;
    std::int32_t rank = -1;     ///< msg rank, -1 when unknown
    std::int32_t thread = -1;   ///< omp team thread id, -1 when n/a
    std::int32_t stream = -1;   ///< gpu stream id, -1 when n/a
};

namespace detail {
extern std::atomic<bool> g_enabled;
// constinit: the compiler knows there is no dynamic initializer, so other
// translation units read the variable directly instead of through a TLS
// wrapper call (which a UBSan build resolved to a null address).
extern thread_local constinit int t_mute;
}  // namespace detail

/// Whether spans are being recorded on the calling thread. Inline relaxed
/// load: the entire cost of instrumentation when tracing is off. The
/// thread-local mute depth (ScopedMute) is only consulted after the load,
/// so a muted scope costs nothing extra while tracing is off.
[[nodiscard]] inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed) &&
           detail::t_mute == 0;
}

/// Turn recording on or off. Enabling for the first time (or after reset())
/// also pins the epoch all span times are relative to.
void set_enabled(bool on);

/// Drop all recorded spans and re-pin the epoch.
void reset();

/// Seconds since the recorder epoch (monotonic clock).
[[nodiscard]] double now();

/// The recorder epoch itself, as seconds on the monotonic clock's own
/// timeline (time_since_epoch). The clock is system-wide, so spans shipped
/// between processes (the socket transport's workers, impl/launch) can be
/// rebased onto one shared timeline: absolute time = epoch_seconds() + t.
[[nodiscard]] double epoch_seconds();

/// The calling thread's logical rank, attached to spans recorded without an
/// explicit rank. msg::run_ranks sets it on every rank thread; ThreadTeam
/// workers and gpu::Device executors inherit it from their creator.
void set_current_rank(int rank);
[[nodiscard]] int current_rank();

/// Record one completed span (no-op when disabled).
void record(Span span);

/// Convenience for spans timed by the caller.
void record(std::string name, const char* category, Lane lane, double t0,
            double t1, int rank = -1, int thread = -1, int stream = -1);

/// All spans recorded so far, merged across shards and sorted by t0.
[[nodiscard]] std::vector<Span> snapshot();

/// Spans dropped because a shard hit its capacity bound.
[[nodiscard]] std::size_t dropped();

/// RAII span over a scope. Captures the start time at construction and
/// records at destruction; inert when tracing is disabled at construction.
class ScopedSpan {
  public:
    /// `rank` defaults to the thread's current rank (see set_current_rank).
    ScopedSpan(const char* name, const char* category, Lane lane,
               int thread = -1, int stream = -1);
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ~ScopedSpan();

  private:
    const char* name_;
    const char* category_;
    Lane lane_;
    std::int32_t rank_;
    std::int32_t thread_;
    std::int32_t stream_;
    double t0_ = -1.0;  ///< < 0 marks an inert span
};

/// RAII: suppress span recording on the calling thread while alive
/// (nestable). The msg collectives run their internal point-to-point
/// machinery under a mute so the trace keeps the one logical span
/// ("barrier", "allreduce_sum", ...) call sites have always produced.
/// Other threads — chaos delivery threads included — are unaffected.
class ScopedMute {
  public:
    ScopedMute() { ++detail::t_mute; }
    ~ScopedMute() { --detail::t_mute; }
    ScopedMute(const ScopedMute&) = delete;
    ScopedMute& operator=(const ScopedMute&) = delete;
};

}  // namespace advect::trace
