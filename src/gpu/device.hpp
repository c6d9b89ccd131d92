#pragma once
/// \file device.hpp
/// The simulated CUDA device: global memory buffers, constant memory,
/// in-order streams with asynchronous host<->device copies, events, and
/// kernel launches. A dedicated executor thread drains stream queues one op
/// at a time, so host code genuinely runs concurrently with "device" work —
/// the property the paper's stream-overlap implementations (§IV-G, §IV-I)
/// exploit.
///
/// Kernels are written as *block-level* functors: the functor is invoked
/// once per thread block and iterates over the block's threads internally
/// where thread identity matters (e.g. halo threads that only perform
/// memory operations). This preserves the CUDA decomposition — grid of
/// blocks, per-block shared memory, block-size limits — without simulating
/// half a million threads.
///
/// Like a real device's multiprocessors, the blocks of one multi-block
/// kernel run concurrently: the executor and the device's helper threads
/// (`workers - 1` of them) claim block indices from one shared counter, each
/// with its own shared-memory scratch, and the executor completes the op
/// only once every block has finished. Stream order, events and the one
/// `kernel` trace span per launch are therefore unchanged; the contract a
/// kernel must meet is that its blocks write disjoint memory.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "gpu/types.hpp"
#include "trace/span.hpp"

namespace advect::gpu {

class Device;

namespace detail {

struct EventState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;

    void complete() {
        {
            std::lock_guard lock(mu);
            done = true;
        }
        cv.notify_all();
    }
    [[nodiscard]] bool is_done() {
        std::lock_guard lock(mu);
        return done;
    }
    void wait() {
        std::unique_lock lock(mu);
        cv.wait(lock, [this] { return done; });
    }
};

using BlockBody = std::function<void(Dim3 /*block_idx*/, Dim3 /*block_dim*/,
                                     std::span<double> /*shared*/)>;

/// A kernel launch as the executor runs it: `body` once per block of `grid`.
struct Kernel {
    Dim3 grid;
    Dim3 block;
    std::size_t shared_doubles = 0;
    BlockBody body;
};

struct Op {
    std::function<void()> run;                 // executed on the device thread
    Kernel kernel;                             // kernel ops: run is empty
    std::shared_ptr<EventState> gate;          // run only after gate completes
    std::shared_ptr<EventState> completion;    // marked done after run
    bool is_kernel = false;
    /// Chaos GpuSlow verdict drawn at enqueue time (on the launching rank
    /// thread, for determinism): extra device occupancy the executor sleeps
    /// after run(), attributed to the enqueuer's plan-task site.
    double chaos_slow_us = 0.0;
    const char* chaos_site = nullptr;
    /// Trace context captured at enqueue time; the executor thread records a
    /// span around run() under the enqueuer's rank. Null name = untraced
    /// bookkeeping op (events, stream waits).
    const char* trace_name = nullptr;
    trace::Lane trace_lane = trace::Lane::Gpu;
    int trace_rank = -1;
    int trace_stream = -1;
};

struct StreamState {
    std::deque<Op> queue;  // guarded by the owning Device's mutex
    bool busy = false;     // an op from this stream is executing
    int id = 0;            // creation index, for trace attribution
};

}  // namespace detail

/// A device event (cudaEvent): recorded into a stream, waitable from the
/// host or from another stream. Default-constructed events are complete.
class Event {
  public:
    Event() = default;

    /// Host-side blocking wait (cudaEventSynchronize).
    void synchronize() const {
        if (!state_) return;
        trace::ScopedSpan span("event_sync", "gpu", trace::Lane::Host);
        state_->wait();
    }
    /// Nonblocking completion query (cudaEventQuery).
    [[nodiscard]] bool query() const { return !state_ || state_->is_done(); }

  private:
    friend class Stream;
    explicit Event(std::shared_ptr<detail::EventState> s)
        : state_(std::move(s)) {}
    std::shared_ptr<detail::EventState> state_;
};

/// A typed global-memory allocation on the device. Host code must move data
/// through stream copies; kernels access the contents via span(). RAII: the
/// allocation is released (and the device's memory accounting updated) when
/// the last handle and the last in-flight operation referencing it go away.
class DeviceBuffer {
  public:
    DeviceBuffer() = default;

    [[nodiscard]] std::size_t size() const {
        return data_ ? data_->size() : 0;
    }
    /// Device-side view (for kernel functors and enqueued copies).
    [[nodiscard]] std::span<double> span() { return *data_; }
    [[nodiscard]] std::span<const double> span() const { return *data_; }

  private:
    friend class Device;
    friend class Stream;
    DeviceBuffer(std::shared_ptr<std::vector<double>> d) : data_(std::move(d)) {}
    std::shared_ptr<std::vector<double>> data_;
};

/// An in-order work queue (cudaStream). Operations within a stream execute
/// in FIFO order; operations in different streams are unordered unless
/// linked by events.
class Stream {
  public:
    Stream() = default;

    /// Asynchronous host-to-device copy; `src` must stay valid and constant
    /// until the stream reaches this op (use synchronize()/events).
    void memcpy_h2d(DeviceBuffer& dst, std::size_t dst_offset,
                    std::span<const double> src);
    /// Asynchronous device-to-host copy; `dst` must stay valid and untouched
    /// until completion.
    void memcpy_d2h(std::span<double> dst, const DeviceBuffer& src,
                    std::size_t src_offset);
    /// Asynchronous device-to-device copy within one device.
    void memcpy_d2d(DeviceBuffer& dst, std::size_t dst_offset,
                    const DeviceBuffer& src, std::size_t src_offset,
                    std::size_t count);

    /// Launch a kernel: `body(block_idx, block, shared)` runs once per block
    /// of `grid`, with `shared` a zero-initialised per-block scratch of
    /// `shared_doubles` doubles (passed as a double span for convenience;
    /// CUDA Fortran shared memory here is always REAL(8)). Blocks of one
    /// launch may run concurrently on the device's workers, in any order:
    /// `body` must be safe to call from several threads at once, and no two
    /// blocks may write overlapping memory. The op completes after every
    /// block has finished.
    void launch(Dim3 grid, Dim3 block, std::size_t shared_doubles,
                detail::BlockBody body);

    /// Record an event at the current tail of the stream.
    [[nodiscard]] Event record_event();
    /// Make subsequent work in this stream wait for `e` (cudaStreamWaitEvent).
    void wait_event(const Event& e);
    /// Block the host until all work enqueued so far has completed.
    void synchronize();

  private:
    friend class Device;
    Stream(Device* device, std::shared_ptr<detail::StreamState> s)
        : device_(device), state_(std::move(s)) {}

    Device* device_ = nullptr;
    std::shared_ptr<detail::StreamState> state_;
};

/// The simulated GPU. Thread-safe: multiple host threads (MPI tasks sharing
/// a node's GPU) may create streams and enqueue work concurrently.
class Device {
  public:
    /// `workers` >= 1 threads run the blocks of a multi-block kernel: the
    /// executor plus `workers - 1` helper threads owned by the device.
    explicit Device(DeviceProps props, int workers = 1);
    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;
    ~Device();

    [[nodiscard]] const DeviceProps& props() const { return props_; }
    /// Threads that run a kernel's blocks, the executor included.
    [[nodiscard]] int workers() const {
        return static_cast<int>(scratch_.size());
    }

    /// Allocate `count` doubles of global memory; throws std::bad_alloc-like
    /// std::runtime_error when the device capacity would be exceeded (the
    /// paper sizes the 420^3 problem to just fit).
    [[nodiscard]] DeviceBuffer alloc(std::size_t count);
    /// Global memory currently allocated, in bytes.
    [[nodiscard]] std::size_t allocated_bytes() const;

    /// Create a new stream.
    [[nodiscard]] Stream create_stream();

    /// Synchronous upload to constant memory (cudaMemcpyToSymbol): waits for
    /// device idle, then copies. Capacity is 8192 doubles (64 KB, the CUDA
    /// constant-memory size).
    void set_constants(std::span<const double> values);
    /// Device-side constant memory view for kernels.
    [[nodiscard]] std::span<const double> constants() const {
        return constants_;
    }

    /// Block the host until every stream is drained (cudaDeviceSynchronize).
    void synchronize();

  private:
    friend class Stream;
    void enqueue(detail::StreamState& stream, detail::Op op);
    void shut_down();
    void executor_loop();
    void run_kernel(const detail::Kernel& k);
    void run_blocks(const detail::Kernel& k, std::span<double> shared);
    void helper_loop(int worker);
    [[nodiscard]] bool idle_locked() const;

    DeviceProps props_;
    std::vector<double> constants_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   // executor wakes on new work
    std::condition_variable idle_cv_;   // host waits for drain
    std::vector<std::shared_ptr<detail::StreamState>> streams_;
    int next_stream_id_ = 0;
    std::size_t allocated_ = 0;
    bool stop_ = false;

    // Block workers. The executor publishes a multi-block kernel in
    // `published_`; helpers join it under `block_mu_` and claim blocks from
    // `next_block_`. Worker w (the executor is 0) uses scratch_[w], which
    // only the executor resizes, before publishing, so helpers never
    // allocate.
    std::vector<std::vector<double>> scratch_;
    std::mutex block_mu_;
    std::condition_variable block_cv_;  // helpers wake on a new launch
    std::condition_variable left_cv_;   // executor waits for helpers to leave
    const detail::Kernel* published_ = nullptr;
    std::uint64_t launches_ = 0;        // publications so far
    int joined_ = 0;                    // helpers inside the published kernel
    bool helpers_stop_ = false;
    std::atomic<long long> next_block_{0};
    std::vector<std::jthread> helpers_;
    std::jthread executor_;
};

}  // namespace advect::gpu
