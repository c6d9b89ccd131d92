// Tests for the device-side field and kernels: the tiled stencil kernel
// must reproduce the CPU stencil bitwise (arbitrary regions, blocks larger
// than the domain, all device generations), the periodic-halo kernels must
// match the host periodic fill, and the pack/unpack kernels must
// interoperate with host-side staging. Kernels whose blocks run on several
// device workers at once must give the same bits as one worker.

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <random>

#include "core/halo.hpp"
#include "core/problem.hpp"
#include "core/source.hpp"
#include "core/stencil.hpp"
#include "impl/device_field.hpp"
#include "impl/gpu_task.hpp"
#include "impl/registry.hpp"

namespace core = advect::core;
namespace gpu = advect::gpu;
namespace impl = advect::impl;

namespace {

core::Field3 random_field(core::Extents3 n, unsigned seed) {
    core::Field3 f(n);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-2.0, 2.0);
    for (int k = -1; k <= n.nz; ++k)
        for (int j = -1; j <= n.ny; ++j)
            for (int i = -1; i <= n.nx; ++i) f(i, j, k) = d(rng);
    return f;
}

void upload(gpu::Stream& s, impl::DeviceField& d, const core::Field3& h) {
    s.memcpy_h2d(d.buffer(), 0, h.raw());
}

/// Every padded point random, halos of any width included.
core::Field3 random_padded(core::Extents3 n, int halo, unsigned seed) {
    core::Field3 f(n, halo);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-2.0, 2.0);
    for (double& v : f.raw()) v = d(rng);
    return f;
}

core::Field3 download(gpu::Stream& s, const impl::DeviceField& d) {
    core::Field3 out(d.extents(), d.halo_width());
    s.memcpy_d2h(out.raw(), d.buffer(), 0);
    s.synchronize();
    return out;
}

struct KernelCase {
    int nx, ny, nz;
    int bx, by;
    bool c1060;
};

class DeviceStencil : public ::testing::TestWithParam<KernelCase> {};

TEST_P(DeviceStencil, MatchesCpuBitwise) {
    const auto c = GetParam();
    const core::Extents3 n{c.nx, c.ny, c.nz};
    gpu::Device dev(c.c1060 ? gpu::DeviceProps::tesla_c1060()
                            : gpu::DeviceProps::tesla_c2050());
    const auto coeffs = core::tensor_product_coeffs({0.7, -0.3, 1.0}, 0.6);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();

    auto host = random_field(n, 11);
    impl::DeviceField d_in(dev, n), d_out(dev, n);
    upload(s, d_in, host);
    launch_stencil(s, dev, d_in, d_out, host.interior(), c.bx, c.by);
    const auto result = download(s, d_out);

    core::Field3 expect(n);
    core::apply_stencil(coeffs, host, expect);
    EXPECT_TRUE(result.interior_equals(expect));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, DeviceStencil,
    ::testing::Values(KernelCase{8, 8, 8, 4, 4, false},
                      KernelCase{8, 8, 8, 32, 8, false},  // block > domain
                      KernelCase{13, 7, 5, 4, 2, false},  // edge blocks
                      KernelCase{13, 7, 5, 4, 2, true},
                      KernelCase{6, 20, 3, 2, 16, false},
                      KernelCase{16, 16, 16, 16, 4, true}));

TEST(DeviceStencil, SubRegionOnlyWritesRegion) {
    const core::Extents3 n{10, 10, 10};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    const auto coeffs = core::tensor_product_coeffs({1, 1, 1}, 0.5);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();
    auto host = random_field(n, 12);
    impl::DeviceField d_in(dev, n), d_out(dev, n);
    upload(s, d_in, host);
    // Poison the output so untouched points are detectable.
    core::Field3 poison(n, -999.0);
    upload(s, d_out, poison);
    const core::Range3 region{{2, 3, 4}, {7, 8, 9}};
    launch_stencil(s, dev, d_in, d_out, region, 4, 4);
    const auto result = download(s, d_out);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                if (region.contains({i, j, k}))
                    ASSERT_EQ(result(i, j, k),
                              core::stencil_point(coeffs, host, i, j, k));
                else
                    ASSERT_EQ(result(i, j, k), -999.0);
            }
}

TEST(DeviceStencil, PartitionedRegionsEqualFullSweep) {
    // Interior + 6 boundary slabs (the §IV-F kernel decomposition) must
    // reproduce the single-kernel sweep exactly.
    const core::Extents3 n{12, 9, 7};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    const auto coeffs = core::tensor_product_coeffs({0.4, 0.9, -0.7}, 0.8);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();
    auto host = random_field(n, 13);
    impl::DeviceField d_in(dev, n), d_full(dev, n), d_split(dev, n);
    upload(s, d_in, host);
    launch_stencil(s, dev, d_in, d_full, host.interior(), 8, 4);
    const auto parts = core::partition_interior_boundary(n);
    launch_stencil(s, dev, d_in, d_split, parts.interior, 8, 4);
    for (const auto& slab : parts.boundary)
        launch_stencil(s, dev, d_in, d_split, slab, 8, 4);
    const auto full = download(s, d_full);
    const auto split = download(s, d_split);
    EXPECT_TRUE(full.interior_equals(split));
}

TEST(DeviceStencil, CourantOneResidentSweepDropsZeroTerms) {
    // The Courant-1 shift compacts to one surviving term on the device as
    // on the host, and the resident sweep stays bitwise on the reference.
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(12);
    cfg.steps = 3;
    const auto result = impl::solve_gpu_resident(cfg);
    EXPECT_TRUE(result.state.interior_equals(
        core::run_reference(cfg.problem, cfg.steps)));

    // Rotated planes: z-1 above z+1 in memory, as after a tile rotation.
    std::vector<double> tile(3 * 40);
    const double* below = tile.data() + 80;
    const double* centre = tile.data();
    const double* above = tile.data() + 40;
    const auto shift = impl::tile_plan(cfg.problem.coeffs(),
                                       {below, centre, above}, 8);
    ASSERT_EQ(shift.terms, 1);
    // Velocity (1,1,1) at nu = 1 keeps a(-1,-1,-1): the z-1 plane's corner.
    EXPECT_EQ(shift.offset[0], 80 - 8 - 1);
    const auto paper = core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.5);
    const auto full = impl::tile_plan(paper, {below, centre, above}, 8);
    EXPECT_EQ(full.terms, 27);
    // Evenly spaced planes give exactly the host plan.
    const auto even = impl::tile_plan(paper, {centre, above, below}, 8);
    const auto host = core::StencilPlan::make(paper, 8, 40);
    EXPECT_EQ(even.coeff, host.coeff);
    EXPECT_EQ(even.offset, host.offset);
}

TEST(DeviceStencil, ThinFaceSlabsMatchCpuAtHaloWidths) {
    // 1-wide x-face and 1-thick z-face slabs: the staged footprint is three
    // points wide or three planes deep, at either edge of the padded field.
    const core::Extents3 n{9, 7, 6};
    const auto coeffs = core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.5);
    const core::Range3 slabs[] = {{{0, 0, 0}, {1, 7, 6}},
                                  {{8, 0, 0}, {9, 7, 6}},
                                  {{0, 0, 0}, {9, 7, 1}},
                                  {{0, 0, 5}, {9, 7, 6}},
                                  {{4, 2, 3}, {5, 3, 4}}};
    for (int hw : {1, 2}) {
        gpu::Device dev(gpu::DeviceProps::tesla_c2050());
        impl::upload_coefficients(dev, coeffs);
        auto s = dev.create_stream();
        const auto host = random_padded(n, hw, 20 + hw);
        impl::DeviceField d_in(dev, n, hw), d_out(dev, n, hw);
        upload(s, d_in, host);
        const core::Field3 poison(n, hw, -999.0);
        for (const auto& slab : slabs) {
            upload(s, d_out, poison);
            launch_stencil(s, dev, d_in, d_out, slab, 32, 8);
            const auto result = download(s, d_out);
            core::Field3 expect = poison;
            core::apply_stencil(coeffs, host, expect, slab);
            ASSERT_TRUE(std::equal(result.raw().begin(), result.raw().end(),
                                   expect.raw().begin()))
                << "halo " << hw << " slab x " << slab.lo.i << ".."
                << slab.hi.i << " z " << slab.lo.k << ".." << slab.hi.k;
        }
    }
}

TEST(DeviceStencil, FusedEdgeBlocksTouchingPaddedBoundMatchCpu) {
    // 13 x 7 with 4 x 2 blocks: the first blocks stage from -fuse and the
    // ragged last ones (one column, one row) up to n + fuse, the padded
    // bound when halo == fuse. From fuse-deep periodic halos, the fused
    // launch equals `fuse` host sweeps with a periodic fill between them.
    const core::Extents3 n{13, 7, 5};
    const auto coeffs = core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.5);
    for (int fuse : {2, 3}) {
        gpu::Device dev(gpu::DeviceProps::tesla_c2050());
        impl::upload_coefficients(dev, coeffs);
        auto s = dev.create_stream();
        auto cur = random_padded(n, fuse, 30 + fuse);
        core::fill_periodic_halo(cur);
        impl::DeviceField d_in(dev, n, fuse), d_out(dev, n, fuse);
        upload(s, d_in, cur);
        launch_stencil_fused(s, dev, d_in, d_out, cur.interior(), 4, 2, fuse);
        const auto result = download(s, d_out);
        core::Field3 nxt(n, fuse);
        for (int step = 0; step < fuse; ++step) {
            core::apply_stencil(coeffs, cur, nxt);
            core::fill_periodic_halo(nxt);
            cur.swap(nxt);
        }
        EXPECT_TRUE(result.interior_equals(cur)) << "fuse " << fuse;
    }
}

TEST(DevicePeriodicHalo, MatchesHostFill) {
    const core::Extents3 n{6, 5, 4};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto host = random_field(n, 14);
    host.fill_halo(-5.0);
    impl::DeviceField d(dev, n);
    upload(s, d, host);
    for (int dim = 0; dim < 3; ++dim) launch_periodic_halo(s, d, dim);
    const auto result = download(s, d);
    core::Field3 expect = host;
    core::fill_periodic_halo(expect);
    // Compare the full padded storage, halos included.
    const auto a = result.raw();
    const auto b = expect.raw();
    for (std::size_t idx = 0; idx < a.size(); ++idx)
        ASSERT_EQ(a[idx], b[idx]) << "padded offset " << idx;
}

TEST(DevicePeriodicHalo, DeepHalosMatchHostFillPerDim) {
    // Depth-2 and depth-3 slabs: x-face rows several points long, and the
    // staged transverse ranges reaching into the deep halo corners.
    const core::Extents3 n{7, 5, 4};
    for (int depth : {2, 3}) {
        gpu::Device dev(gpu::DeviceProps::tesla_c2050());
        auto s = dev.create_stream();
        auto expect = random_padded(n, depth, 40 + depth);
        impl::DeviceField d(dev, n, depth);
        upload(s, d, expect);
        s.synchronize();  // the host fill below must not race the upload
        for (int dim = 0; dim < 3; ++dim) {
            launch_periodic_halo(s, d, dim, depth);
            core::fill_periodic_halo_dim(expect, dim, depth);
            const auto result = download(s, d);
            ASSERT_TRUE(std::equal(result.raw().begin(), result.raw().end(),
                                   expect.raw().begin()))
                << "depth " << depth << " dim " << dim;
        }
    }
}

TEST(DevicePack, XFaceRowsOfOnePoint) {
    // An x face packs one point per row: the strided single-point path.
    const core::Extents3 n{6, 5, 4};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    const auto host = random_padded(n, 1, 50);
    impl::DeviceField d(dev, n);
    upload(s, d, host);
    const core::Range3 face{{5, -1, 0}, {6, 6, 4}};
    auto staging = dev.alloc(face.volume() + 2);
    launch_pack(s, d, face, staging, /*offset=*/2);
    std::vector<double> host_buf(face.volume() + 2);
    s.memcpy_d2h(host_buf, staging, 0);
    s.synchronize();
    const auto expect = core::pack(host, face);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(), host_buf.begin() + 2));
    // Unpack into a poisoned field writes the face and nothing else.
    impl::DeviceField d2(dev, n);
    const core::Field3 poison(n, -999.0);
    upload(s, d2, poison);
    launch_unpack(s, d2, face, staging, 2);
    core::Field3 want = poison;
    core::unpack(want, face, expect);
    const auto back = download(s, d2);
    EXPECT_TRUE(std::equal(back.raw().begin(), back.raw().end(),
                           want.raw().begin()));
}

TEST(DevicePack, InteroperatesWithHostStaging) {
    const core::Extents3 n{7, 6, 5};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto host = random_field(n, 15);
    impl::DeviceField d(dev, n);
    upload(s, d, host);
    const core::Range3 region{{-1, 0, 2}, {7, 4, 5}};  // includes halo cells
    auto staging = dev.alloc(region.volume() + 3);
    launch_pack(s, d, region, staging, /*offset=*/3);
    std::vector<double> host_buf(region.volume() + 3);
    s.memcpy_d2h(host_buf, staging, 0);
    s.synchronize();
    // Device pack order must equal core::pack order.
    const auto expect = core::pack(host, region);
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(host_buf[i + 3], expect[i]);
    // Round-trip through unpack into a fresh field.
    impl::DeviceField d2(dev, n);
    launch_unpack(s, d2, region, staging, 3);
    const auto back = download(s, d2);
    for (int k = region.lo.k; k < region.hi.k; ++k)
        for (int j = region.lo.j; j < region.hi.j; ++j)
            for (int i = region.lo.i; i < region.hi.i; ++i)
                ASSERT_EQ(back(i, j, k), host(i, j, k));
}

TEST(GpuStaging, FullExchangeRoundTrip) {
    // GpuStaging moves the inbound regions host->device and the outbound
    // regions device->host exactly.
    const core::Extents3 n{8, 8, 8};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto host = random_field(n, 16);
    impl::DeviceField d(dev, n);
    // Device starts from a *different* state so movement is observable.
    auto dev_host = random_field(n, 17);
    upload(s, d, dev_host);
    impl::GpuStaging staging(dev, impl::mpi_halo_regions(n),
                             impl::boundary_shell_regions(n));
    staging.enqueue_h2d(s, host, d);
    staging.enqueue_d2h(s, d);
    s.synchronize();
    core::Field3 mirror(n, 0.0);
    staging.unpack_outbound(mirror);
    // Outbound (boundary shell) now carries the device values.
    for (const auto& r : impl::boundary_shell_regions(n))
        for (int k = r.lo.k; k < r.hi.k; ++k)
            for (int j = r.lo.j; j < r.hi.j; ++j)
                for (int i = r.lo.i; i < r.hi.i; ++i)
                    ASSERT_EQ(mirror(i, j, k), dev_host(i, j, k));
    // Inbound (halo regions) on the device now carry the host values.
    const auto dres = download(s, d);
    for (const auto& r : impl::mpi_halo_regions(n))
        for (int k = r.lo.k; k < r.hi.k; ++k)
            for (int j = r.lo.j; j < r.hi.j; ++j)
                for (int i = r.lo.i; i < r.hi.i; ++i)
                    ASSERT_EQ(dres(i, j, k), host(i, j, k));
}

TEST(DevicePool, SharesDevicesAmongTasks) {
    const auto coeffs = core::tensor_product_coeffs({1, 1, 1}, 1.0);
    impl::DevicePool pool(gpu::DeviceProps::tesla_c2050(), /*ntasks=*/6,
                          /*tasks_per_gpu=*/4, coeffs);
    EXPECT_EQ(pool.device_count(), 2);
    // The two devices split the process's CPUs among their block workers.
    EXPECT_EQ(pool.device_for_rank(0).workers(),
              impl::device_workers(gpu::DeviceProps::tesla_c2050(), 2));
    EXPECT_EQ(&pool.device_for_rank(0), &pool.device_for_rank(3));
    EXPECT_NE(&pool.device_for_rank(3), &pool.device_for_rank(4));
    EXPECT_THROW(impl::DevicePool(gpu::DeviceProps::tesla_c2050(), 4, 0,
                                  coeffs),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Block workers: one launch's blocks run concurrently on four workers (the
// count is explicit, so the helper path runs on a one-CPU host too) and the
// result is bitwise the one-worker launch and the CPU sweep.

/// n^3 with 32 x 8 blocks: 2 x 5 blocks, the last column and row partial.
constexpr int kWorkersN = 36;

core::SourceField mms_source(int n) {
    core::AdvectionProblem p;
    p.domain.n = n;
    p.velocity = {1.0, 0.5, 0.25};
    p.nu = 0.5 * core::max_stable_nu(p.velocity);
    p.source.amp = 1.0;
    return core::make_source_field(p);
}

/// The device result of `launch(stream, device, in, out)` from `host` on a
/// c2050 with `workers` block workers, padded storage included.
template <typename Launch>
core::Field3 run_on_workers(int workers, const core::Field3& host,
                            const core::StencilCoeffs& coeffs, Launch launch) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050(), workers);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();
    const int hw = host.halo_width();
    impl::DeviceField d_in(dev, host.extents(), hw);
    impl::DeviceField d_out(dev, host.extents(), hw);
    upload(s, d_in, host);
    launch(s, dev, d_in, d_out);
    return download(s, d_out);
}

bool raw_equal(const core::Field3& a, const core::Field3& b) {
    return std::equal(a.raw().begin(), a.raw().end(), b.raw().begin(),
                      b.raw().end());
}

TEST(BlockWorkers, StencilMatchesOneWorkerAndCpuBitwise) {
    const core::Extents3 n{kWorkersN, kWorkersN, kWorkersN};
    const auto coeffs = core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.5);
    ASSERT_EQ(core::StencilPlan::make(coeffs, 8, 40).terms, 27);
    const auto host = random_padded(n, 1, 60);
    for (bool with_source : {false, true}) {
        const impl::GpuSource msrc =
            with_source ? impl::GpuSource{mms_source(kWorkersN), {0, 0, 0}, 2}
                        : impl::GpuSource{};
        auto launch = [&](gpu::Stream& s, gpu::Device& dev,
                          const impl::DeviceField& in, impl::DeviceField& out) {
            impl::launch_stencil(s, dev, in, out, host.interior(), 32, 8,
                                 msrc);
        };
        const auto one = run_on_workers(1, host, coeffs, launch);
        const auto four = run_on_workers(4, host, coeffs, launch);
        EXPECT_TRUE(raw_equal(one, four)) << "source " << with_source;

        core::Field3 expect(n);
        core::apply_stencil(coeffs, host, expect);
        if (with_source)
            core::add_source(expect, msrc.field, {0, 0, 0}, expect.interior(),
                             msrc.level);
        EXPECT_TRUE(four.interior_equals(expect)) << "source " << with_source;
    }
}

TEST(BlockWorkers, FusedMatchesOneWorkerAndCpuBitwise) {
    const core::Extents3 n{kWorkersN, kWorkersN, kWorkersN};
    const auto coeffs = core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.5);
    const auto sf = mms_source(kWorkersN);
    for (int fuse : {2, 3}) {
        auto cur = random_padded(n, fuse, 70 + fuse);
        core::fill_periodic_halo(cur);
        const impl::GpuSource msrc{sf, {0, 0, 0}, 1};
        auto launch = [&](gpu::Stream& s, gpu::Device& dev,
                          const impl::DeviceField& in, impl::DeviceField& out) {
            impl::launch_stencil_fused(s, dev, in, out, cur.interior(), 32, 8,
                                       fuse, msrc);
        };
        const auto one = run_on_workers(1, cur, coeffs, launch);
        const auto four = run_on_workers(4, cur, coeffs, launch);
        EXPECT_TRUE(raw_equal(one, four)) << "fuse " << fuse;

        core::Field3 nxt(n, fuse);
        for (int step = 0; step < fuse; ++step) {
            core::apply_stencil(coeffs, cur, nxt);
            core::add_source(nxt, sf, {0, 0, 0}, nxt.interior(),
                             msrc.level + step);
            core::fill_periodic_halo(nxt);
            cur.swap(nxt);
        }
        EXPECT_TRUE(four.interior_equals(cur)) << "fuse " << fuse;
    }
}

TEST(DeviceWorkers, SplitsTheAffinityCpusAmongDevices) {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    const int cpus = CPU_COUNT(&set);
    const auto props = gpu::DeviceProps::tesla_c2050();  // 14 SMs
    EXPECT_EQ(impl::device_workers(props, 1),
              std::min(cpus, props.multiprocessors));
    EXPECT_EQ(impl::device_workers(props, 2),
              std::clamp(cpus / 2, 1, props.multiprocessors));
    EXPECT_EQ(impl::device_workers(props, cpus + 1), 1);
    auto one_sm = props;
    one_sm.multiprocessors = 1;
    EXPECT_EQ(impl::device_workers(one_sm, 1), 1);
}

}  // namespace
