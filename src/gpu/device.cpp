#include "gpu/device.hpp"

#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "chaos/inject.hpp"

namespace advect::gpu {

namespace {

std::size_t checked_workers(int workers) {
    if (workers < 1)
        throw std::invalid_argument("gpu: a device needs >= 1 block worker");
    return static_cast<std::size_t>(workers);
}

}  // namespace

Device::Device(DeviceProps props, int workers)
    : props_(std::move(props)),
      constants_(8192, 0.0),
      scratch_(checked_workers(workers)),
      executor_([this] { executor_loop(); }) {
    try {
        helpers_.reserve(scratch_.size() - 1);
        for (int w = 1; w < workers; ++w)
            helpers_.emplace_back([this, w] { helper_loop(w); });
    } catch (...) {
        shut_down();  // the threads already started must not wait forever
        throw;
    }
}

Device::~Device() { shut_down(); }

void Device::shut_down() {
    {
        std::lock_guard lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    executor_.join();  // drains every queue; no kernel is published after
    {
        std::lock_guard lock(block_mu_);
        helpers_stop_ = true;
    }
    block_cv_.notify_all();
    helpers_.clear();  // joins
}

DeviceBuffer Device::alloc(std::size_t count) {
    const std::size_t bytes = count * sizeof(double);
    {
        std::lock_guard lock(mu_);
        if (allocated_ + bytes > props_.global_mem_bytes)
            throw std::runtime_error("gpu: out of global memory on " +
                                     props_.name);
        allocated_ += bytes;
    }
    // The deleter updates accounting through the device pointer; buffers must
    // not outlive their device (as in CUDA).
    auto storage = std::shared_ptr<std::vector<double>>(
        new std::vector<double>(count, 0.0), [this, bytes](auto* p) {
            delete p;
            std::lock_guard lock(mu_);
            allocated_ -= bytes;
        });
    return DeviceBuffer(std::move(storage));
}

std::size_t Device::allocated_bytes() const {
    std::lock_guard lock(mu_);
    return allocated_;
}

Stream Device::create_stream() {
    auto state = std::make_shared<detail::StreamState>();
    {
        std::lock_guard lock(mu_);
        state->id = next_stream_id_++;
        streams_.push_back(state);
    }
    return Stream(this, std::move(state));
}

void Device::set_constants(std::span<const double> values) {
    if (values.size() > constants_.size())
        throw std::invalid_argument("gpu: constant memory is 8192 doubles");
    synchronize();
    std::copy(values.begin(), values.end(), constants_.begin());
}

void Device::synchronize() {
    trace::ScopedSpan span("device_sync", "gpu", trace::Lane::Host);
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return idle_locked(); });
}

bool Device::idle_locked() const {
    for (const auto& s : streams_)
        if (s->busy || !s->queue.empty()) return false;
    return true;
}

void Device::enqueue(detail::StreamState& stream, detail::Op op) {
    assert(op.completion);
    {
        std::lock_guard lock(mu_);
        stream.queue.push_back(std::move(op));
    }
    work_cv_.notify_all();
}

void Device::executor_loop() {
    std::unique_lock lock(mu_);
    for (;;) {
        detail::StreamState* owner = nullptr;
        detail::Op op;
        for (auto& s : streams_) {
            if (s->busy || s->queue.empty()) continue;
            auto& front = s->queue.front();
            if (front.gate && !front.gate->is_done()) continue;
            op = std::move(front);
            s->queue.pop_front();
            s->busy = true;
            owner = s.get();
            break;
        }
        if (!owner) {
            if (stop_) return;  // all queues drained (or gated forever)
            work_cv_.wait(lock);
            continue;
        }
        lock.unlock();
        if (op.run || op.is_kernel) {
            const double t0 =
                op.trace_name && trace::enabled() ? trace::now() : -1.0;
            if (op.is_kernel)
                run_kernel(op.kernel);
            else
                op.run();
            if (t0 >= 0.0)
                trace::record(op.trace_name, "gpu", op.trace_lane, t0,
                              trace::now(), op.trace_rank, /*thread=*/-1,
                              op.trace_stream);
        }
        // Chaos GpuSlow: stretch this kernel's device occupancy before its
        // completion event fires, so dependent work genuinely waits.
        if (op.chaos_slow_us > 0.0) {
            const double t0 = trace::enabled() ? trace::now() : -1.0;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(op.chaos_slow_us * 1e-6));
            if (t0 >= 0.0 && trace::enabled())
                trace::record(std::string("slow:") +
                                  (op.chaos_site ? op.chaos_site : "kernel"),
                              "chaos", trace::Lane::Gpu, t0, trace::now(),
                              op.trace_rank, /*thread=*/-1, op.trace_stream);
        }
        op.completion->complete();
        // Drop the op's captures (buffer references) before reporting idle,
        // so RAII memory accounting settles no later than synchronize().
        op = detail::Op{};
        lock.lock();
        owner->busy = false;
        idle_cv_.notify_all();
    }
}

void Device::run_blocks(const detail::Kernel& k, std::span<double> shared) {
    const long long nx = k.grid.x, nxy = nx * k.grid.y;
    const long long count = k.grid.count();
    for (long long b = next_block_.fetch_add(1, std::memory_order_relaxed);
         b < count; b = next_block_.fetch_add(1, std::memory_order_relaxed)) {
        std::fill(shared.begin(), shared.end(), 0.0);
        k.body(Dim3{static_cast<int>(b % nx), static_cast<int>(b % nxy / nx),
                    static_cast<int>(b / nxy)},
               k.block, shared);
    }
}

void Device::run_kernel(const detail::Kernel& k) {
    // Scratch grows on the executor only, before any helper can see the
    // launch: helper threads never allocate (each would otherwise get a
    // fresh malloc arena of its own).
    const bool parallel = scratch_.size() > 1 && k.grid.count() > 1;
    for (std::size_t w = 0; w < (parallel ? scratch_.size() : 1); ++w)
        if (scratch_[w].size() < k.shared_doubles)
            scratch_[w].resize(k.shared_doubles);
    const std::span<double> shared(scratch_[0].data(), k.shared_doubles);
    next_block_.store(0, std::memory_order_relaxed);
    if (!parallel) {
        run_blocks(k, shared);
        return;
    }
    {
        std::lock_guard lock(block_mu_);
        published_ = &k;
        ++launches_;
    }
    block_cv_.notify_all();
    run_blocks(k, shared);
    // Every block is claimed once the executor's own loop ends; the ones a
    // helper claimed are finished when that helper leaves. Retiring the
    // launch under the lock turns away helpers that wake only now.
    std::unique_lock lock(block_mu_);
    left_cv_.wait(lock, [this] { return joined_ == 0; });
    published_ = nullptr;
}

void Device::helper_loop(int worker) {
    std::vector<double>& scratch = scratch_[static_cast<std::size_t>(worker)];
    std::uint64_t seen = 0;
    std::unique_lock lock(block_mu_);
    for (;;) {
        block_cv_.wait(lock, [&] {
            return helpers_stop_ || (published_ && launches_ != seen);
        });
        if (helpers_stop_) return;
        seen = launches_;
        const detail::Kernel& k = *published_;
        ++joined_;
        lock.unlock();
        run_blocks(k, std::span<double>(scratch.data(), k.shared_doubles));
        lock.lock();
        if (--joined_ == 0) left_cv_.notify_one();
    }
}

void Stream::memcpy_h2d(DeviceBuffer& dst, std::size_t dst_offset,
                        std::span<const double> src) {
    if (dst_offset + src.size() > dst.size())
        throw std::out_of_range("gpu: h2d copy out of range");
    detail::Op op;
    op.completion = std::make_shared<detail::EventState>();
    op.trace_name = "h2d";
    op.trace_lane = trace::Lane::Pcie;
    op.trace_rank = trace::current_rank();
    op.trace_stream = state_->id;
    op.run = [storage = dst.data_, dst_offset, src] {
        std::copy(src.begin(), src.end(), storage->begin() +
                                              static_cast<std::ptrdiff_t>(dst_offset));
    };
    device_->enqueue(*state_, std::move(op));
}

void Stream::memcpy_d2h(std::span<double> dst, const DeviceBuffer& src,
                        std::size_t src_offset) {
    if (src_offset + dst.size() > src.size())
        throw std::out_of_range("gpu: d2h copy out of range");
    detail::Op op;
    op.completion = std::make_shared<detail::EventState>();
    op.trace_name = "d2h";
    op.trace_lane = trace::Lane::Pcie;
    op.trace_rank = trace::current_rank();
    op.trace_stream = state_->id;
    op.run = [storage = src.data_, src_offset, dst] {
        std::copy(storage->begin() + static_cast<std::ptrdiff_t>(src_offset),
                  storage->begin() +
                      static_cast<std::ptrdiff_t>(src_offset + dst.size()),
                  dst.begin());
    };
    device_->enqueue(*state_, std::move(op));
}

void Stream::memcpy_d2d(DeviceBuffer& dst, std::size_t dst_offset,
                        const DeviceBuffer& src, std::size_t src_offset,
                        std::size_t count) {
    if (src_offset + count > src.size() || dst_offset + count > dst.size())
        throw std::out_of_range("gpu: d2d copy out of range");
    detail::Op op;
    op.completion = std::make_shared<detail::EventState>();
    op.trace_name = "d2d";
    op.trace_lane = trace::Lane::Pcie;
    op.trace_rank = trace::current_rank();
    op.trace_stream = state_->id;
    op.run = [d = dst.data_, s = src.data_, dst_offset, src_offset, count] {
        std::copy(s->begin() + static_cast<std::ptrdiff_t>(src_offset),
                  s->begin() + static_cast<std::ptrdiff_t>(src_offset + count),
                  d->begin() + static_cast<std::ptrdiff_t>(dst_offset));
    };
    device_->enqueue(*state_, std::move(op));
}

void Stream::launch(Dim3 grid, Dim3 block, std::size_t shared_doubles,
                    detail::BlockBody body) {
    device_->props().validate_launch(block, shared_doubles * sizeof(double));
    if (grid.x < 1 || grid.y < 1 || grid.z < 1)
        throw std::invalid_argument("launch: grid dimensions must be >= 1");
    detail::Op op;
    if (chaos::active()) {
        // Drawn here on the launching rank thread (not the executor), so
        // the verdict depends only on this rank's own issue order. A fail
        // throws before anything is enqueued; the plan executor retries.
        const chaos::KernelFault f = chaos::on_kernel(trace::current_rank());
        if (f.fail)
            throw chaos::TransientError("chaos: injected kernel-launch "
                                        "failure");
        op.chaos_slow_us = f.slow_us;
        op.chaos_site = chaos::current_task_site();
    }
    op.completion = std::make_shared<detail::EventState>();
    op.is_kernel = true;
    op.trace_name = "kernel";
    op.trace_lane = trace::Lane::Gpu;
    op.trace_rank = trace::current_rank();
    op.trace_stream = state_->id;
    op.kernel = {grid, block, shared_doubles, std::move(body)};
    device_->enqueue(*state_, std::move(op));
}

Event Stream::record_event() {
    detail::Op op;
    op.completion = std::make_shared<detail::EventState>();
    Event e(op.completion);
    device_->enqueue(*state_, std::move(op));
    return e;
}

void Stream::wait_event(const Event& e) {
    if (!e.state_) return;
    detail::Op op;
    op.completion = std::make_shared<detail::EventState>();
    op.gate = e.state_;
    device_->enqueue(*state_, std::move(op));
}

void Stream::synchronize() {
    trace::ScopedSpan span("stream_sync", "gpu", trace::Lane::Host,
                           /*thread=*/-1, state_ ? state_->id : -1);
    // An event at the tail completes exactly when all prior work has.
    record_event().synchronize();
}

}  // namespace advect::gpu
