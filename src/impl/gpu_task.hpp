#pragma once
/// \file gpu_task.hpp
/// Per-rank GPU staging state shared by the distributed GPU implementations
/// (§IV-F..I). Data crossing the (simulated) PCIe bus moves in large
/// contiguous staging buffers — the paper: "we need the buffers to allow
/// communication between CPU and GPU to be in large contiguous chunks" —
/// with pack/unpack kernels on the device side and pack/unpack loops on the
/// host side translating between staging buffers and strided field regions.
///
///  * inbound ("halo") regions: host field -> staging -> device field.
///    For §IV-F/G these are the six MPI halo planes; for §IV-H/I they are
///    the one-point shell of CPU points surrounding the GPU block.
///  * outbound ("boundary") regions: device field -> staging -> host field.
///    For §IV-F/G these are the six boundary slabs of the local domain; for
///    §IV-H/I the outermost layer of the GPU block.

#include <memory>
#include <vector>

#include "core/halo.hpp"
#include "impl/device_field.hpp"

namespace advect::impl {

/// Staging machinery between a host Field3 and a DeviceField of equal
/// extents, for fixed inbound and outbound region lists.
class GpuStaging {
  public:
    GpuStaging(gpu::Device& device, std::vector<core::Range3> inbound,
               std::vector<core::Range3> outbound);

    /// Pack `host`'s inbound regions (synchronously, on the calling thread),
    /// then enqueue one H2D transfer and per-region unpack kernels writing
    /// into `dst`.
    void enqueue_h2d(gpu::Stream& stream, const core::Field3& host,
                     DeviceField& dst);

    /// Enqueue per-region pack kernels reading `src` and one D2H transfer
    /// into the host staging buffer. Call unpack_outbound() after the stream
    /// has been synchronized.
    void enqueue_d2h(gpu::Stream& stream, const DeviceField& src);

    // The composites above decompose into the steps below, which the plan
    // executor issues as individual tasks (one per plan task, so the
    // executed trace is exactly as fine-grained as the plan).

    /// Pack `host`'s inbound regions into the H2D staging buffer.
    void pack_inbound(const core::Field3& host);
    /// Enqueue the single H2D transfer of the packed staging buffer.
    void enqueue_h2d_copy(gpu::Stream& stream);
    /// Enqueue the per-region unpack kernels writing into `dst`.
    void enqueue_unpack_kernels(gpu::Stream& stream, DeviceField& dst);
    /// Enqueue the per-region pack kernels reading `src`.
    void enqueue_pack_kernels(gpu::Stream& stream, const DeviceField& src);
    /// Enqueue the single D2H transfer into the host staging buffer.
    void enqueue_d2h_copy(gpu::Stream& stream);

    /// Scatter the D2H staging buffer into `host`'s outbound regions.
    void unpack_outbound(core::Field3& host) const;

    /// Total doubles per direction (diagnostics / cost accounting).
    [[nodiscard]] std::size_t inbound_count() const { return in_count_; }
    [[nodiscard]] std::size_t outbound_count() const { return out_count_; }

  private:
    std::vector<core::Range3> inbound_;
    std::vector<core::Range3> outbound_;
    std::vector<std::size_t> in_offsets_;
    std::vector<std::size_t> out_offsets_;
    std::size_t in_count_ = 0;
    std::size_t out_count_ = 0;
    gpu::DeviceBuffer d_in_;
    gpu::DeviceBuffer d_out_;
    std::vector<double> h_in_;
    std::vector<double> h_out_;
};

/// The six MPI halo regions of a local domain (HaloPlan receive regions,
/// corner-extended per stage) at ghost depth `depth`: the inbound set for
/// §IV-F/G.
[[nodiscard]] std::vector<core::Range3> mpi_halo_regions(core::Extents3 n,
                                                         int depth = 1);

/// The six depth-thick boundary slabs of a local domain: the outbound set
/// for §IV-F/G.
[[nodiscard]] std::vector<core::Range3> boundary_shell_regions(
    core::Extents3 n, int depth = 1);

/// Block workers for each of `ndevices` simulated devices running at once in
/// this process's job: the CPUs of the process's affinity mask shared among
/// the devices, clamped to [1, props.multiprocessors].
[[nodiscard]] int device_workers(const gpu::DeviceProps& props, int ndevices);

/// A pool of simulated GPUs shared by MPI tasks on the same "node":
/// rank r uses device r / tasks_per_gpu (§IV-F: "we can have more than one
/// MPI task issuing calls to a particular GPU"). The devices split the
/// process's CPUs among their block workers (device_workers).
class DevicePool {
  public:
    DevicePool(const gpu::DeviceProps& props, int ntasks, int tasks_per_gpu,
               const core::StencilCoeffs& coeffs);

    [[nodiscard]] gpu::Device& device_for_rank(int rank) {
        return *devices_[static_cast<std::size_t>(rank / tasks_per_gpu_)];
    }
    [[nodiscard]] int device_count() const {
        return static_cast<int>(devices_.size());
    }

  private:
    int tasks_per_gpu_;
    std::vector<std::unique_ptr<gpu::Device>> devices_;
};

}  // namespace advect::impl
