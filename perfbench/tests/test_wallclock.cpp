/// \file test_wallclock.cpp
/// Self-test of the benchmark's timing discipline: a call whose work runs on
/// another thread — the simulated GPU's launch_stencil, executed by the
/// device's executor thread, followed by synchronize() — must be timed by
/// perfbench::wall_seconds at no less than the device's own record of how
/// long the kernel ran. A main-thread CPU-time clock fails this: the
/// calling thread sleeps in synchronize() while the executor works, so
/// CPU time reports a small fraction of the real duration.
///
/// Build and run: `ctest` in the perfbench build directory, or the
/// perfbench_selftest binary directly. Exit status 0 = pass.

#include <time.h>

#include <cstdio>
#include <cstring>

#include "common.hpp"
#include "core/halo.hpp"
#include "gpu/device.hpp"
#include "impl/device_field.hpp"
#include "trace/span.hpp"

namespace core = advect::core;
namespace gpu = advect::gpu;
namespace impl = advect::impl;
namespace trace = advect::trace;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
}

/// CPU time of the calling thread: the clock this test proves unusable.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

int main() {
    // Enough device work (five 96^3 launches, tens of milliseconds) that CPU
    // time the hypervisor steals from the calling thread while it briefly
    // runs cannot approach half of it.
    const int n = 96;
    const int launches = 5;
    core::AdvectionProblem p = core::AdvectionProblem::standard(n);
    p.velocity = {1.0, 0.5, 0.25};
    p.nu = 0.5;
    const auto ext = p.domain.extents();

    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    impl::upload_coefficients(dev, p.coeffs());
    gpu::Stream stream = dev.create_stream();
    impl::DeviceField din(dev, ext, 1);
    impl::DeviceField dout(dev, ext, 1);
    core::Field3 host(ext);
    core::fill_initial(host, p.domain, p.wave);
    core::fill_periodic_halo(host);
    stream.memcpy_h2d(din.buffer(), 0, host.raw());
    stream.synchronize();
    const core::Range3 region{{0, 0, 0}, {n, n, n}};

    // The executor thread records a span around every kernel it runs: the
    // device-side ground truth of how long the work took.
    trace::set_enabled(false);
    trace::reset();
    trace::set_enabled(true);
    const double cpu0 = thread_cpu_s();
    const double wall = perfbench::wall_seconds([&] {
        for (int i = 0; i < launches; ++i)
            impl::launch_stencil(stream, dev, din, dout, region, 32, 8);
        stream.synchronize();
    });
    const double cpu = thread_cpu_s() - cpu0;
    trace::set_enabled(false);

    double device_s = 0.0;
    for (const auto& s : trace::snapshot())
        if (s.lane == trace::Lane::Gpu) device_s += s.t1 - s.t0;
    trace::reset();

    std::printf("wall %.6f s, device kernels %.6f s, calling-thread cpu %.6f s\n",
                wall, device_s, cpu);
    check(device_s > 0.0, "the executor thread recorded the kernels");
    check(wall >= device_s,
          "wall_seconds covers the whole kernel run on the device thread");
    check(cpu < 0.5 * device_s,
          "a calling-thread CPU clock would under-report the same call");
    return failures == 0 ? 0 : 1;
}
