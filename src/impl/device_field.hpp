#pragma once
/// \file device_field.hpp
/// Device-resident halo-padded fields and the CUDA-style kernels shared by
/// the GPU implementations (§IV-E..I): the shared-memory-tiled stencil
/// kernel (after Micikevicius [6], extended to the full 27-point stencil by
/// keeping three rotating xy tile planes), periodic-halo kernels, and
/// pack/unpack kernels that stage strided face regions into contiguous
/// buffers so PCIe traffic moves in large chunks (§IV-F).

#include <array>

#include "core/boundary.hpp"
#include "core/coeff_cache.hpp"
#include "core/coefficients.hpp"
#include "core/field.hpp"
#include "core/source.hpp"
#include "core/stencil.hpp"
#include "gpu/device.hpp"

namespace advect::impl {

/// Manufactured-source context for a stencil launch, captured *by value*
/// into the kernel lambda (stream drains run after the enqueueing call
/// returns, so no reference may escape). `level` is the time level of the
/// kernel's input state, snapshotted at enqueue time. Default-constructed
/// means inactive: no source arithmetic at all.
struct GpuSource {
    core::SourceField field{};
    core::Index3 origin{};
    int level = 0;

    [[nodiscard]] bool active() const { return field.active(); }
};

/// A device buffer with Field3's padded layout (extents n, halo width
/// `halo`, x fastest). Temporal blocking allocates halo = fuse so one
/// fuse-deep upload feeds a whole fused super-step.
class DeviceField {
  public:
    DeviceField() = default;
    DeviceField(gpu::Device& device, core::Extents3 n, int halo = 1)
        : n_(n),
          h_(halo),
          buf_(device.alloc(static_cast<std::size_t>(n.nx + 2 * halo) *
                            static_cast<std::size_t>(n.ny + 2 * halo) *
                            static_cast<std::size_t>(n.nz + 2 * halo))) {}

    [[nodiscard]] core::Extents3 extents() const { return n_; }
    [[nodiscard]] int halo_width() const { return h_; }
    [[nodiscard]] gpu::DeviceBuffer& buffer() { return buf_; }
    [[nodiscard]] const gpu::DeviceBuffer& buffer() const { return buf_; }

    /// Linear offset of (i, j, k), identical to Field3::offset.
    [[nodiscard]] std::size_t offset(int i, int j, int k) const {
        return static_cast<std::size_t>(i + h_ + stride(1) * (j + h_) +
                                        stride(2) * (k + h_));
    }

    /// Padded stride of dimension `dim` in doubles: 1, the row stride, or
    /// the plane stride, as Field3::x_stride / xy_stride.
    [[nodiscard]] std::ptrdiff_t stride(int dim) const {
        const std::ptrdiff_t sx = n_.nx + 2 * h_;
        return dim == 0 ? 1 : dim == 1 ? sx : sx * (n_.ny + 2 * h_);
    }

    void swap(DeviceField& other) noexcept {
        std::swap(n_, other.n_);
        std::swap(h_, other.h_);
        std::swap(buf_, other.buf_);
    }

  private:
    core::Extents3 n_{};
    int h_ = 1;
    gpu::DeviceBuffer buf_;
};

/// Upload the stencil coefficients to the device's constant memory
/// ("the a_ijk values are in GPU constant memory", §IV-E).
void upload_coefficients(gpu::Device& device, const core::StencilCoeffs& a);

/// Stencil plan over three tile planes (z-1, z, z+1 at `planes[0..2]`) with
/// row stride `sj`: the dk offsets are the pointer distances between the
/// planes, and zero coefficients drop out by the StencilPlan::make rule, so
/// a device sweep sums the same terms in the same order as the CPU.
[[nodiscard]] core::StencilPlan tile_plan(
    const core::StencilCoeffs& a, const std::array<const double*, 3>& planes,
    std::ptrdiff_t sj);

/// Launch the tiled stencil kernel over `region` of the padded field:
/// out(p) = Equation 2 applied to in. Thread blocks are (bx+2, by+2): the
/// two-point fringe are halo threads that only load the shared tile. Three
/// shared tile planes (z-1, z, z+1) rotate as threads iterate z. The halos
/// of `in` covering region+1 must be valid. Arithmetic order matches the
/// CPU kernels bitwise. An active `src` adds the manufactured increment Q to
/// every written row, bitwise-identical to the CPU source hook.
void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const GpuSource& src = {});

/// Launch the temporally-blocked stencil kernel: advance `region` by `fuse`
/// steps in one launch. Each thread block pipelines a z wavefront through
/// `fuse` levels of rotating shared-memory xy planes — level 0 stages the
/// input (like launch_stencil's three planes, but 2*fuse wider), level s
/// holds the state s steps ahead on a tile shrunk by s ghost layers, and
/// level `fuse` rows are written straight to `out` over `region`. The halos
/// of `in` covering region+fuse must be valid (halo_width() >= the
/// overhang). Every level runs the same apply_stencil_row_ptr row kernel as
/// the CPU paths, so the result is bitwise-identical to `fuse` successive
/// launch_stencil calls. An active `src` adds Q to every staged level-s row
/// at time level src.level + s - 1, mirroring the fused CPU pipeline.
void launch_stencil_fused(gpu::Stream& stream, gpu::Device& device,
                          const DeviceField& in, DeviceField& out,
                          const core::Range3& region, int bx, int by,
                          int fuse, const GpuSource& src = {});

/// Launch the variable-coefficient stencil kernel over `region`: each cell
/// reads its 27 coefficients from the per-rank cache through the same
/// core::apply_stencil_var_row as the CPU variable path, so it is
/// bitwise-identical to it (and to core::stencil_var_point per cell). No
/// shared-memory tiling: the per-cell coefficient stream (27 doubles/cell)
/// dominates traffic, so the constant path's tile reuse does not apply.
/// `cache` is captured by pointer — it is built once at rank setup and
/// outlives every stream drain of the run. An active `src` adds Q exactly
/// like the CPU hook.
void launch_stencil_var(gpu::Stream& stream, const DeviceField& in,
                        DeviceField& out, const core::Range3& region,
                        const core::CoeffCache& cache,
                        const GpuSource& src = {});

/// Launch a periodic halo fill for one dimension of a device field whose
/// extents equal the global domain (GPU-resident case): depth-thick halo
/// slabs copy from the opposite boundary, with staged transverse ranges so
/// corners propagate across the three dimension passes.
void launch_periodic_halo(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth = 1);

/// Device-side open-boundary overwrite of one dimension's halo slabs (the
/// §IV-E resident case), launched right after that dimension's periodic
/// halo kernel. Mirrors core::fill_boundary_dim bitwise: Inflow evaluates
/// the by-value-captured BoundaryField's g at (wrapped global index,
/// `level`), Outflow copies the nearest interior plane. `level` is
/// snapshotted at enqueue time like GpuSource::level.
void launch_boundary_fill(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth, unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level);

/// Pack `region` of the field into `staging` at `offset` (x fastest),
/// exactly core::pack's order so host- and device-side staging interoperate.
void launch_pack(gpu::Stream& stream, const DeviceField& f,
                 const core::Range3& region, gpu::DeviceBuffer& staging,
                 std::size_t offset);

/// Inverse of launch_pack.
void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset);

}  // namespace advect::impl
