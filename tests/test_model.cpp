// Tests for the machine and cost models: Table II facts, monotonicity
// properties of the CPU/network/PCIe cost functions, and the GPU
// kernel-model effects behind Figs. 7-8 (coalescing, occupancy, halo-thread
// overhead, block-fit limits).

#include <gtest/gtest.h>

#include <cmath>

#include "model/cpu_cost.hpp"
#include "model/gpu_cost.hpp"

namespace model = advect::model;

namespace {

TEST(Machine, TableIIFacts) {
    const auto j = model::MachineSpec::jaguarpf();
    EXPECT_EQ(j.total_cores(), 18688 * 12);
    const auto h = model::MachineSpec::hopper2();
    EXPECT_EQ(h.total_cores(), 6392 * 24);
    const auto l = model::MachineSpec::lens();
    EXPECT_EQ(l.cores_per_node(), 16);
    ASSERT_TRUE(l.gpu.has_value());
    EXPECT_FALSE(l.gpu->props.concurrent_kernels);
    const auto y = model::MachineSpec::yona();
    EXPECT_EQ(y.cores_per_node(), 12);
    ASSERT_TRUE(y.gpu.has_value());
    EXPECT_TRUE(y.gpu->props.concurrent_kernels);
    EXPECT_FALSE(j.gpu.has_value());
    EXPECT_FALSE(h.gpu.has_value());
}

TEST(Machine, ThreadChoicesMatchThePaper) {
    EXPECT_EQ(model::MachineSpec::jaguarpf().threads_per_task_choices(),
              (std::vector<int>{1, 2, 3, 6, 12}));
    EXPECT_EQ(model::MachineSpec::hopper2().threads_per_task_choices(),
              (std::vector<int>{1, 2, 3, 6, 12, 24}));
    EXPECT_EQ(model::MachineSpec::lens().threads_per_task_choices(),
              (std::vector<int>{1, 2, 4, 8, 16}));
    EXPECT_EQ(model::MachineSpec::yona().threads_per_task_choices(),
              (std::vector<int>{1, 2, 3, 6, 12}));
}

TEST(Machine, TaskBandwidthScalesWithThreadsAndNuma) {
    const auto m = model::MachineSpec::jaguarpf();
    EXPECT_GT(m.task_bw_gbs(2), m.task_bw_gbs(1));
    // Crossing the socket boundary applies the NUMA penalty.
    EXPECT_LT(m.task_bw_gbs(12), 2.0 * m.task_bw_gbs(6));
    EXPECT_DOUBLE_EQ(m.region_overhead_s(1), 0.0);
    EXPECT_GT(m.region_overhead_s(12), m.region_overhead_s(2));
}

TEST(CpuCost, StencilMonotonicities) {
    const auto m = model::MachineSpec::jaguarpf();
    const std::size_t pts = 1'000'000;
    EXPECT_GT(model::cpu_stencil_time(m, 2 * pts, 4),
              model::cpu_stencil_time(m, pts, 4));
    EXPECT_LT(model::cpu_stencil_time(m, pts, 4),
              model::cpu_stencil_time(m, pts, 2));
    // A less efficient pass is slower.
    EXPECT_GT(model::cpu_stencil_time(m, pts, 4, 0.5),
              model::cpu_stencil_time(m, pts, 4, 1.0));
    EXPECT_EQ(model::cpu_stencil_time(m, 0, 4), 0.0);
}

TEST(CpuCost, PureMpiAvoidsThreadingPenalty) {
    // Per-core throughput is highest at 1 thread (omp_loop_eff < 1 beyond).
    const auto m = model::MachineSpec::hopper2();
    const std::size_t pts = 1'000'000;
    const double t1 = model::cpu_stencil_time(m, pts, 1);
    const double t2 = model::cpu_stencil_time(m, pts, 2);
    EXPECT_GT(t2, t1 / 2.0);  // not a perfect halving
    EXPECT_LT(t2, t1);        // but still faster in absolute terms
}

TEST(CpuCost, CommTimeStructure) {
    const auto m = model::MachineSpec::jaguarpf();
    // Alpha-beta: more bytes and more messages cost more; sharing the NIC
    // among more tasks costs more; zero messages are free.
    EXPECT_EQ(model::comm_time(m, 1000, 0, 1, false), 0.0);
    EXPECT_GT(model::comm_time(m, 2000, 2, 1, false),
              model::comm_time(m, 1000, 2, 1, false));
    EXPECT_GT(model::comm_time(m, 1000, 4, 1, false),
              model::comm_time(m, 1000, 2, 1, false));
    EXPECT_GT(model::comm_time(m, 100000, 2, 4, false),
              model::comm_time(m, 100000, 2, 1, false));
    // Tiny messages are latency-dominated: doubling bytes barely matters.
    const double small_a = model::comm_time(m, 8, 2, 1, false);
    const double small_b = model::comm_time(m, 16, 2, 1, false);
    EXPECT_LT(small_b / small_a, 1.01);
}

TEST(CpuCost, StepThreeCopyIsFreeOnlyWhereTheRuntimeSwaps) {
    // The executor on this host swaps the cur/nxt storage; the paper
    // machines' Fortran copies 16 B/pt, and their model keeps pricing it.
    const std::size_t pts = 1'000'000;
    EXPECT_EQ(model::cpu_copy_time(model::MachineSpec::localhost(), pts, 2),
              0.0);
    EXPECT_GT(model::cpu_copy_time(model::MachineSpec::jaguarpf(), pts, 2),
              0.0);
    for (const auto& m :
         {model::MachineSpec::jaguarpf(), model::MachineSpec::hopper2(),
          model::MachineSpec::lens(), model::MachineSpec::yona()})
        EXPECT_EQ(m.copy_bytes_per_point, 16.0) << m.name;
}

TEST(GpuCost, BlockFitLimits) {
    const auto& lens = *model::MachineSpec::lens().gpu;
    EXPECT_TRUE(model::block_fits(lens, 32, 11));   // (34)(13)=442 <= 512
    EXPECT_FALSE(model::block_fits(lens, 32, 14));  // (34)(16)=544 > 512
    EXPECT_FALSE(model::block_fits(lens, 0, 4));
    const auto& yona = *model::MachineSpec::yona().gpu;
    EXPECT_TRUE(model::block_fits(yona, 32, 28));   // 1020 <= 1024
    EXPECT_FALSE(model::block_fits(yona, 32, 29));
}

TEST(GpuCost, InvalidBlockIsInfinitelySlow) {
    const auto& g = *model::MachineSpec::lens().gpu;
    EXPECT_FALSE(std::isfinite(model::kernel_time(g, {64, 64, 64}, 32, 14)));
    EXPECT_EQ(model::kernel_estimate(g, {64, 64, 64}, 32, 14).valid, false);
}

TEST(GpuCost, WarpAlignedXIsFastest) {
    // The Figs. 7-8 headline: x = 32 beats 16 (coalescing + bank conflicts)
    // and 64/128 (halo-thread overhead) at comparable thread counts.
    for (const auto& machine :
         {model::MachineSpec::lens(), model::MachineSpec::yona()}) {
        const auto& m = *machine.gpu;
        const double t16 = model::kernel_time(m, {420, 420, 420}, 16, 16);
        const double t32 = model::kernel_time(m, {420, 420, 420}, 32, 8);
        const double t64 = model::kernel_time(m, {420, 420, 420}, 64, 4);
        EXPECT_LT(t32, t16);
        EXPECT_LT(t32, t64);
    }
}

TEST(GpuCost, KernelDiagnosticsAreSane) {
    const auto& g = *model::MachineSpec::yona().gpu;
    const auto e = model::kernel_estimate(g, {420, 420, 420}, 32, 8);
    ASSERT_TRUE(e.valid);
    EXPECT_EQ(e.blocks, 14LL * 53LL);  // ceil(420/32) x ceil(420/8)
    EXPECT_GT(e.blocks_per_sm, 0);
    EXPECT_GT(e.thread_eff, 0.5);
    EXPECT_LT(e.thread_eff, 1.0);
    EXPECT_LE(e.lat_eff, 1.0);
    EXPECT_LE(e.wave_eff, 1.0);
    EXPECT_GT(e.seconds, 0.0);
    EXPECT_GE(e.seconds,
              std::max(e.flop_seconds, e.mem_seconds) - 1e-12);
}

TEST(GpuCost, ResidentPeakNearPaper) {
    // The Fig. 8 anchor: ~86 GF at 32x8 on the C2050.
    const auto& g = *model::MachineSpec::yona().gpu;
    const double gf = model::resident_gflops(g, 420, 32, 8);
    EXPECT_GT(gf, 0.85 * 86.0);
    EXPECT_LT(gf, 1.15 * 86.0);
}

TEST(GpuCost, TransfersAndStaging) {
    const auto& g = *model::MachineSpec::yona().gpu;
    EXPECT_EQ(model::pcie_time(g, 0), 0.0);
    EXPECT_GT(model::pcie_time(g, 1 << 20), model::pcie_time(g, 1 << 10));
    // Coupled staging is strictly slower than decoupled.
    EXPECT_GT(model::pcie_time_coupled(g, 1 << 20),
              model::pcie_time(g, 1 << 20));
    EXPECT_GT(model::stage_kernel_time(g, 1 << 20), 0.0);
    EXPECT_GT(model::host_stage_time(g, 1 << 20), 0.0);
    EXPECT_GT(model::face_kernel_time(g, 1000), 0.0);
    EXPECT_EQ(model::face_kernel_time(g, 0), 0.0);
}

}  // namespace
