// Tests for the simulated CUDA device: buffers and memory accounting,
// stream FIFO ordering, cross-stream independence and event
// synchronization, kernel launch geometry and validation, constant memory,
// multi-threaded (multi-task) enqueueing, and the block workers that run
// one kernel's blocks concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "chaos/inject.hpp"
#include "gpu/device.hpp"

namespace chaos = advect::chaos;
namespace gpu = advect::gpu;

namespace {

TEST(DeviceProps, FactoryValues) {
    const auto c1060 = gpu::DeviceProps::tesla_c1060();
    EXPECT_EQ(c1060.max_threads_per_block, 512);
    EXPECT_EQ(c1060.multiprocessors, 30);
    EXPECT_FALSE(c1060.concurrent_kernels);
    EXPECT_EQ(c1060.global_mem_bytes, 4ull << 30);
    const auto c2050 = gpu::DeviceProps::tesla_c2050();
    EXPECT_EQ(c2050.max_threads_per_block, 1024);
    EXPECT_EQ(c2050.multiprocessors, 14);
    EXPECT_TRUE(c2050.concurrent_kernels);
    EXPECT_EQ(c2050.global_mem_bytes, 3ull << 30);
}

TEST(DeviceProps, LaunchValidation) {
    const auto p = gpu::DeviceProps::tesla_c1060();
    EXPECT_NO_THROW(p.validate_launch({32, 16, 1}, 16 * 1024));
    EXPECT_THROW(p.validate_launch({32, 17, 1}, 0), std::invalid_argument);
    EXPECT_THROW(p.validate_launch({32, 8, 1}, 17 * 1024),
                 std::invalid_argument);
    EXPECT_THROW(p.validate_launch({0, 8, 1}, 0), std::invalid_argument);
}

TEST(Device, MemoryAccounting) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    EXPECT_EQ(dev.allocated_bytes(), 0u);
    {
        auto a = dev.alloc(1000);
        EXPECT_EQ(dev.allocated_bytes(), 8000u);
        auto b = dev.alloc(500);
        EXPECT_EQ(dev.allocated_bytes(), 12000u);
    }
    EXPECT_EQ(dev.allocated_bytes(), 0u);  // RAII released both
}

TEST(Device, OutOfMemoryThrows) {
    auto props = gpu::DeviceProps::tesla_c2050();
    props.global_mem_bytes = 1024;  // tiny device
    gpu::Device dev(props);
    auto ok = dev.alloc(100);
    EXPECT_THROW((void)dev.alloc(100), std::runtime_error);
}

TEST(Device, ProblemSizedToJustFit) {
    // The paper chose 420^3 to just fit the GPU: two padded state arrays on
    // a C2050 use ~1.2 GB of its 3 GB.
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    const std::size_t padded = 422ull * 422 * 422;
    auto cur = dev.alloc(padded);
    auto nxt = dev.alloc(padded);
    EXPECT_LT(dev.allocated_bytes(), 3ull << 30);
}

TEST(Stream, CopiesRoundTrip) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto buf = dev.alloc(8);
    std::vector<double> host{1, 2, 3, 4, 5, 6, 7, 8};
    s.memcpy_h2d(buf, 0, host);
    std::vector<double> back(8, 0.0);
    s.memcpy_d2h(back, buf, 0);
    s.synchronize();
    EXPECT_EQ(back, host);
}

TEST(Stream, OffsetCopiesAndD2D) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto a = dev.alloc(6);
    auto b = dev.alloc(6);
    std::vector<double> host{1, 2, 3};
    s.memcpy_h2d(a, 2, host);              // a = [0,0,1,2,3,0]
    s.memcpy_d2d(b, 0, a, 2, 3);           // b = [1,2,3,0,0,0]
    std::vector<double> back(3);
    s.memcpy_d2h(back, b, 0);
    s.synchronize();
    EXPECT_EQ(back, host);
    EXPECT_THROW(s.memcpy_h2d(a, 5, host), std::out_of_range);
    EXPECT_THROW(s.memcpy_d2h(back, b, 4), std::out_of_range);
}

TEST(Stream, FifoOrderWithinStream) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto buf = dev.alloc(1);
    // Ops within one stream execute in order: the last write wins.
    for (double v = 1; v <= 32; ++v)
        s.launch({1, 1, 1}, {1, 1, 1}, 0,
                 [buf, v](gpu::Dim3, gpu::Dim3, std::span<double>) mutable {
                     buf.span()[0] = v;
                 });
    s.synchronize();
    std::vector<double> back(1);
    s.memcpy_d2h(back, buf, 0);
    s.synchronize();
    EXPECT_EQ(back[0], 32.0);
}

void kernel_visits_every_block_once(int workers) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050(), workers);
    auto s = dev.create_stream();
    const gpu::Dim3 grid{5, 4, 3};
    std::vector<std::atomic<int>> hits(5 * 4 * 3);
    s.launch(grid, {8, 8, 1}, 0,
             [&hits, grid](gpu::Dim3 b, gpu::Dim3 dim, std::span<double>) {
                 EXPECT_EQ(dim.x, 8);
                 hits[static_cast<std::size_t>(
                     b.x + grid.x * (b.y + grid.y * b.z))]++;
             });
    s.synchronize();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

void shared_memory_zeroed_per_block(int workers) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050(), workers);
    auto s = dev.create_stream();
    std::atomic<bool> dirty{false};
    s.launch({32, 1, 1}, {1, 1, 1}, 16,
             [&dirty](gpu::Dim3, gpu::Dim3, std::span<double> shared) {
                 ASSERT_EQ(shared.size(), 16u);
                 for (double v : shared)
                     if (v != 0.0) dirty = true;
                 shared[3] = 42.0;  // must not leak into the next block
             });
    s.synchronize();
    EXPECT_FALSE(dirty.load());
}

TEST(Stream, KernelVisitsEveryBlockOnce) { kernel_visits_every_block_once(1); }

TEST(Stream, SharedMemoryZeroedPerBlock) { shared_memory_zeroed_per_block(1); }

// The block-worker tests construct four workers explicitly, so the helper
// path runs even on a one-CPU host.
TEST(BlockWorkers, KernelVisitsEveryBlockOnce) {
    kernel_visits_every_block_once(4);
}

TEST(BlockWorkers, SharedMemoryZeroedPerBlock) {
    shared_memory_zeroed_per_block(4);
}

TEST(BlockWorkers, RejectsZeroWorkers) {
    EXPECT_THROW(gpu::Device(gpu::DeviceProps::tesla_c2050(), 0),
                 std::invalid_argument);
}

TEST(BlockWorkers, BlocksRunConcurrentlyAndStreamOrderHolds) {
    // Two blocks that each wait for the other can only finish when both
    // run at once. Block 1 (usually a helper's: the executor claims first)
    // then writes late, and the copy behind the kernel must still see it.
    gpu::Device dev(gpu::DeviceProps::tesla_c2050(), 4);
    EXPECT_EQ(dev.workers(), 4);
    auto s = dev.create_stream();
    auto buf = dev.alloc(2);
    std::atomic<int> arrived{0};
    s.launch({2, 1, 1}, {1, 1, 1}, 0,
             [buf, &arrived](gpu::Dim3 b, gpu::Dim3,
                             std::span<double>) mutable {
                 arrived++;
                 while (arrived.load() < 2) std::this_thread::yield();
                 if (b.x == 1)
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                 buf.span()[static_cast<std::size_t>(b.x)] = b.x + 1.0;
             });
    std::vector<double> back(2);
    s.memcpy_d2h(back, buf, 0);
    s.synchronize();
    EXPECT_EQ(back, (std::vector<double>{1.0, 2.0}));
}

TEST(BlockWorkers, GpuSlowKernelCompletesAfterItsOccupancy) {
    chaos::FaultPlan plan;
    plan.seed = 5;
    chaos::FaultRule slow;
    slow.kind = chaos::FaultKind::GpuSlow;
    slow.step_lo = std::numeric_limits<int>::min();
    slow.amplitude_us = 20000.0;
    slow.max_fires = 1;
    plan.rules.push_back(slow);
    chaos::Session session(plan);

    gpu::Device dev(gpu::DeviceProps::tesla_c2050(), 4);
    auto s = dev.create_stream();
    std::atomic<int> blocks{0};
    const auto t0 = std::chrono::steady_clock::now();
    s.launch({8, 8, 1}, {8, 8, 1}, 0,
             [&blocks](gpu::Dim3, gpu::Dim3, std::span<double>) {
                 blocks++;
             });
    const auto done = s.record_event();
    done.synchronize();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_EQ(blocks.load(), 64);
    const auto log = session.log();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].kind, chaos::FaultKind::GpuSlow);
    EXPECT_GE(us, log[0].amount_us);
}

TEST(BlockWorkers, DeviceWithIdleHelpersIsDestroyed) {
    // Helpers that never ran a block, and helpers parked after one launch,
    // both join when the device goes away.
    for (int round = 0; round < 8; ++round) {
        gpu::Device dev(gpu::DeviceProps::tesla_c2050(), 4);
        if (round % 2 == 1) {
            auto s = dev.create_stream();
            s.launch({4, 2, 1}, {1, 1, 1}, 8,
                     [](gpu::Dim3, gpu::Dim3, std::span<double>) {});
        }
    }
    SUCCEED();
}

TEST(Stream, LaunchValidatesAgainstDevice) {
    gpu::Device dev(gpu::DeviceProps::tesla_c1060());
    auto s = dev.create_stream();
    EXPECT_THROW(
        s.launch({1, 1, 1}, {34, 16, 1}, 0,
                 [](gpu::Dim3, gpu::Dim3, std::span<double>) {}),
        std::invalid_argument);
    EXPECT_THROW(
        s.launch({0, 1, 1}, {1, 1, 1}, 0,
                 [](gpu::Dim3, gpu::Dim3, std::span<double>) {}),
        std::invalid_argument);
}

TEST(Event, CrossStreamOrdering) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s1 = dev.create_stream();
    auto s2 = dev.create_stream();
    auto buf = dev.alloc(1);
    // s1 writes 1.0, records an event; s2 waits on the event then doubles.
    s1.launch({1, 1, 1}, {1, 1, 1}, 0,
              [buf](gpu::Dim3, gpu::Dim3, std::span<double>) mutable {
                  buf.span()[0] = 1.0;
              });
    auto e = s1.record_event();
    s2.wait_event(e);
    s2.launch({1, 1, 1}, {1, 1, 1}, 0,
              [buf](gpu::Dim3, gpu::Dim3, std::span<double>) mutable {
                  buf.span()[0] *= 2.0;
              });
    s2.synchronize();
    std::vector<double> back(1);
    s2.memcpy_d2h(back, buf, 0);
    s2.synchronize();
    EXPECT_EQ(back[0], 2.0);
    EXPECT_TRUE(e.query());
}

TEST(Event, DefaultEventIsComplete) {
    gpu::Event e;
    EXPECT_TRUE(e.query());
    e.synchronize();
}

TEST(Device, HostOverlapsDeviceWork) {
    // The executor is a separate thread: host code runs while a slow kernel
    // executes — the property stream overlap relies on.
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    std::atomic<bool> kernel_started{false};
    std::atomic<bool> host_progressed{false};
    s.launch({1, 1, 1}, {1, 1, 1}, 0,
             [&](gpu::Dim3, gpu::Dim3, std::span<double>) {
                 kernel_started = true;
                 while (!host_progressed.load())
                     std::this_thread::yield();
             });
    while (!kernel_started.load()) std::this_thread::yield();
    host_progressed = true;  // host made progress during the kernel
    s.synchronize();
    SUCCEED();
}

TEST(Device, ConstantMemory) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    std::vector<double> consts{3, 1, 4, 1, 5};
    dev.set_constants(consts);
    auto s = dev.create_stream();
    auto out = dev.alloc(5);
    auto cspan = dev.constants();
    s.launch({1, 1, 1}, {1, 1, 1}, 0,
             [out, cspan](gpu::Dim3, gpu::Dim3, std::span<double>) mutable {
                 for (int i = 0; i < 5; ++i)
                     out.span()[static_cast<std::size_t>(i)] =
                         cspan[static_cast<std::size_t>(i)];
             });
    std::vector<double> back(5);
    s.memcpy_d2h(back, out, 0);
    s.synchronize();
    EXPECT_EQ(back, consts);
    std::vector<double> too_big(9000);
    EXPECT_THROW(dev.set_constants(too_big), std::invalid_argument);
}

TEST(Device, ConcurrentEnqueueFromManyThreads) {
    // Multiple MPI tasks share a node's GPU (§IV-F): enqueueing must be
    // thread-safe and all work must complete.
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    constexpr int kTasks = 4, kOps = 50;
    std::vector<gpu::DeviceBuffer> bufs;
    for (int t = 0; t < kTasks; ++t) bufs.push_back(dev.alloc(1));
    {
        std::vector<std::jthread> tasks;
        for (int t = 0; t < kTasks; ++t)
            tasks.emplace_back([&dev, &bufs, t] {
                auto s = dev.create_stream();
                for (int op = 0; op < kOps; ++op)
                    s.launch({1, 1, 1}, {1, 1, 1}, 0,
                             [buf = bufs[static_cast<std::size_t>(t)]](
                                 gpu::Dim3, gpu::Dim3,
                                 std::span<double>) mutable {
                                 buf.span()[0] += 1.0;
                             });
                s.synchronize();
            });
    }
    auto s = dev.create_stream();
    for (int t = 0; t < kTasks; ++t) {
        std::vector<double> back(1);
        s.memcpy_d2h(back, bufs[static_cast<std::size_t>(t)], 0);
        s.synchronize();
        EXPECT_EQ(back[0], static_cast<double>(kOps));
    }
}

}  // namespace
