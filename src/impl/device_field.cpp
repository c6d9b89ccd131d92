#include "impl/device_field.hpp"

#include <algorithm>
#include <cassert>

#include "core/halo.hpp"
#include "core/stencil.hpp"

namespace advect::impl {

void upload_coefficients(gpu::Device& device, const core::StencilCoeffs& a) {
    device.set_constants(a.a);
}

core::StencilPlan tile_plan(const core::StencilCoeffs& a,
                            const std::array<const double*, 3>& planes,
                            std::ptrdiff_t sj) {
    return core::StencilPlan::make(
        a, sj, {planes[0] - planes[1], 0, planes[2] - planes[1]});
}

void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const GpuSource& msrc) {
    assert(in.extents() == out.extents());
    if (region.empty()) return;
    const auto e = region.extents();
    const gpu::Dim3 grid{(e.nx + bx - 1) / bx, (e.ny + by - 1) / by, 1};
    const gpu::Dim3 block{bx + 2, by + 2, 1};  // fringe = halo threads
    const int tx = bx + 2, ty = by + 2;
    const std::size_t plane = static_cast<std::size_t>(tx) * ty;
    const std::size_t shared_doubles = 3 * plane;  // rotating z-1, z, z+1

    core::StencilCoeffs a;  // the constant-memory table
    std::copy_n(device.constants().begin(), 27, a.a.begin());
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    // Copies hold the buffer handles alive until the op has run, and carry
    // the extents for offset math.
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const std::ptrdiff_t sj = in.stride(1);

    stream.launch(grid, block, shared_doubles, [=, lo = region.lo,
                                                hi = region.hi](
                                                   gpu::Dim3 bidx, gpu::Dim3,
                                                   std::span<double> shared) {
        (void)out_hold;  // keeps the output buffer alive until the op runs
        const int x0 = lo.i + bidx.x * bx;  // first computed x of this block
        const int y0 = lo.j + bidx.y * by;
        const int cx = std::min(bx, hi.i - x0);  // computed extent
        const int cy = std::min(by, hi.j - y0);
        double* tile[3] = {shared.data(), shared.data() + plane,
                           shared.data() + 2 * plane};

        // Halo threads included, but over the computed block's footprint
        // only: rows [y0-1, y0+cy] x [x0-1, x0+cx] of plane k, one memcpy
        // per row. The region is interior, so the footprint is in bounds.
        auto load_plane = [&](double* t, int k) {
            core::copy_box(src.data() + in_layout.offset(x0 - 1, y0 - 1, k),
                           sj, 0, t, tx, 0, {cx + 2, cy + 2, 1});
        };

        load_plane(tile[0], lo.k - 1);
        load_plane(tile[1], lo.k);
        for (int k = lo.k; k < hi.k; ++k) {
            load_plane(tile[2], k + 1);
            // One plane-kernel dispatch over the cy tile rows. The plan for
            // the current plane rotation takes its dk offsets from the
            // shared-memory plane pointers; the kernel is the *same code* as
            // the CPU fast path, so results are bitwise identical to
            // core::stencil_point.
            double* out0 = dst.data() + in_layout.offset(x0, y0, k);
            core::apply_stencil_plane_ptr(
                tile_plan(a, {tile[0], tile[1], tile[2]}, tx), tile[1] + tx + 1,
                out0, cx, cy, tx, sj);
            if (msrc.active())
                for (int ly = 0; ly < cy; ++ly)
                    core::add_source_plane(out0 + ly * sj, 0, cx, 1,
                                           msrc.origin.i + x0,
                                           msrc.origin.j + y0 + ly,
                                           msrc.origin.k + k, msrc.level,
                                           msrc.field);
            std::rotate(&tile[0], &tile[1], &tile[3]);  // z planes advance
        }
    });
}

void launch_stencil_fused(gpu::Stream& stream, gpu::Device& device,
                          const DeviceField& in, DeviceField& out,
                          const core::Range3& region, int bx, int by,
                          int fuse, const GpuSource& msrc) {
    assert(in.extents() == out.extents());
    if (fuse <= 1) {
        launch_stencil(stream, device, in, out, region, bx, by, msrc);
        return;
    }
    if (region.empty()) return;
    assert(in.halo_width() >= fuse && out.halo_width() >= fuse);
    const auto n = in.extents();
    const auto e = region.extents();
    const gpu::Dim3 grid{(e.nx + bx - 1) / bx, (e.ny + by - 1) / by, 1};
    // Widest fringe: level 0 stages rows 2*fuse wider than the write set.
    const gpu::Dim3 block{bx + 2 * fuse, by + 2 * fuse, 1};
    // Rotating staging planes per level: level s (s steps ahead of the
    // input) keeps three xy planes of extent (bx + 2*(fuse-s)) x
    // (by + 2*(fuse-s)); level `fuse` rows go straight to global memory.
    std::vector<std::size_t> plane_off(static_cast<std::size_t>(fuse));
    std::size_t shared_doubles = 0;
    for (int s = 0; s < fuse; ++s) {
        plane_off[static_cast<std::size_t>(s)] = shared_doubles;
        shared_doubles += 3 *
                          static_cast<std::size_t>(bx + 2 * (fuse - s)) *
                          static_cast<std::size_t>(by + 2 * (fuse - s));
    }

    core::StencilCoeffs a;  // the constant-memory table
    std::copy_n(device.constants().begin(), 27, a.a.begin());
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const int hw = in.halo_width();
    const std::ptrdiff_t sj = in.stride(1);

    stream.launch(grid, block, shared_doubles, [=, lo = region.lo,
                                                hi = region.hi](
                                                   gpu::Dim3 bidx, gpu::Dim3,
                                                   std::span<double> shared) {
        (void)out_hold;
        const int x0 = lo.i + bidx.x * bx;
        const int y0 = lo.j + bidx.y * by;
        const int cx = std::min(bx, hi.i - x0);
        const int cy = std::min(by, hi.j - y0);

        // Shared-memory base of level s's staging plane holding global z
        // plane `z` (rotation by modular slot: each level reuses its three
        // planes as the z wavefront advances).
        auto level_base = [&](int s, int z) {
            const std::size_t px = static_cast<std::size_t>(bx +
                                                            2 * (fuse - s));
            const std::size_t py = static_cast<std::size_t>(by +
                                                            2 * (fuse - s));
            return shared.data() + plane_off[static_cast<std::size_t>(s)] +
                   static_cast<std::size_t>(((z % 3) + 3) % 3) * px * py;
        };

        // Stage input plane z: rows [y0-fuse, y0+cy+fuse) x
        // [x0-fuse, x0+cx+fuse), clamped to the padded bounds, one memcpy
        // per row.
        const int px0 = bx + 2 * fuse;
        const int xa = std::max(x0 - fuse, -hw);
        const int xb = std::min(x0 + cx + fuse, n.nx + hw);
        const int ya = std::max(y0 - fuse, -hw);
        const int yb = std::min(y0 + cy + fuse, n.ny + hw);
        auto load_plane0 = [&](int z) {
            core::copy_box(src.data() + in_layout.offset(xa, ya, z), sj, 0,
                           level_base(0, z) +
                               static_cast<std::size_t>(ya - y0 + fuse) * px0 +
                               (xa - x0 + fuse),
                           px0, 0, {xb - xa, yb - ya, 1});
        };

        // Advance plane t of level s from level s-1's planes t-1, t, t+1 in
        // one plane-kernel dispatch. Every transition is the same kernel as
        // the CPU paths; the dk offsets are the pointer distances between
        // the rotated slots, and level `fuse` rows go straight to `out`.
        auto compute_level = [&](int s, int t) {
            const int gdst = fuse - s;
            const int pxs = bx + 2 * (gdst + 1);
            const int wx = cx + 2 * gdst;
            const int wy = cy + 2 * gdst;
            const double* center = level_base(s - 1, t);
            double* out0 = s == fuse ? dst.data() + in_layout.offset(x0, y0, t)
                                     : level_base(s, t);
            const std::ptrdiff_t out_sj = s == fuse ? sj : bx + 2 * gdst;
            core::apply_stencil_plane_ptr(
                tile_plan(a,
                          {level_base(s - 1, t - 1), center,
                           level_base(s - 1, t + 1)},
                          pxs),
                center + pxs + 1, out0, wx, wy, pxs, out_sj);
            if (msrc.active())
                for (int ly = 0; ly < wy; ++ly)
                    core::add_source_plane(out0 + ly * out_sj, 0, wx, 1,
                                           msrc.origin.i + x0 - gdst,
                                           msrc.origin.j + y0 - gdst + ly,
                                           msrc.origin.k + t,
                                           msrc.level + s - 1, msrc.field);
        };

        // z wavefront: as input plane z is staged, each level s can advance
        // its plane z - s (its three source planes are the level s-1 slots
        // still resident), and level `fuse` streams finished planes out.
        for (int z = lo.k - fuse; z < hi.k + fuse; ++z) {
            load_plane0(z);
            for (int s = 1; s <= fuse; ++s) {
                const int t = z - s;
                const int gdst = fuse - s;
                if (t >= lo.k - gdst && t < hi.k + gdst) compute_level(s, t);
            }
        }
    });
}

void launch_stencil_var(gpu::Stream& stream, const DeviceField& in,
                        DeviceField& out, const core::Range3& region,
                        const core::CoeffCache& cache, const GpuSource& msrc) {
    assert(in.extents() == out.extents());
    if (region.empty()) return;
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const auto n = in.extents();
    const int hw = in.halo_width();
    const std::ptrdiff_t sj = n.nx + 2 * hw;
    const std::ptrdiff_t sk = sj * (n.ny + 2 * hw);

    // Memory-bound single-block kernel (like the pack/halo kernels): the
    // rows stream straight from the padded global layout through the same
    // row kernel as the CPU variable path.
    stream.launch({1, 1, 1}, {1, 1, 1}, 0, [=, c = &cache](
                                               gpu::Dim3, gpu::Dim3,
                                               std::span<double>) {
        (void)out_hold;
        for (int k = region.lo.k; k < region.hi.k; ++k)
            for (int j = region.lo.j; j < region.hi.j; ++j) {
                const int cx = region.hi.i - region.lo.i;
                const double* row = c->row(j, k) + region.lo.i;
                const double* in_row =
                    src.data() + in_layout.offset(region.lo.i, j, k);
                double* out_row =
                    dst.data() + in_layout.offset(region.lo.i, j, k);
                core::apply_stencil_var_row(row, c->term_stride(), in_row,
                                            out_row, cx, sj, sk);
                if (msrc.active())
                    core::add_source_plane(out_row, 0, cx, 1,
                                           msrc.origin.i + region.lo.i,
                                           msrc.origin.j + j,
                                           msrc.origin.k + k, msrc.level,
                                           msrc.field);
            }
    });
}

void launch_periodic_halo(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth) {
    const auto n = f.extents();
    assert(depth <= n[dim]);  // halo and source slabs stay disjoint
    const auto plan = core::HaloPlan::make(n, depth);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    auto data = f.buffer().span();
    const DeviceField layout = f;
    const std::ptrdiff_t sj = f.stride(1), sk = f.stride(2);
    const std::ptrdiff_t shift = n[dim] * f.stride(dim);

    // Copy halo <- opposite boundary for both sides, one x row per memcpy;
    // a single-block kernel (this is a memory-only operation, like the
    // paper's halo threads).
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      auto copy = [&](const core::Range3& r,
                                      std::ptrdiff_t from) {
                          double* d = data.data() +
                                      layout.offset(r.lo.i, r.lo.j, r.lo.k);
                          core::copy_box(d + from, sj, sk, d, sj, sk,
                                         r.extents());
                      };
                      copy(e.recv_low, shift);    // halo -1 <- plane n-1
                      copy(e.recv_high, -shift);  // halo n <- plane 0
                  });
}

void launch_boundary_fill(gpu::Stream& stream, DeviceField& f, int dim,
                          int depth, unsigned open,
                          const std::array<core::BoundaryKind, 6>& faces,
                          const core::BoundaryField& bf,
                          const core::Index3& origin, int level) {
    const unsigned lo_bit = 1u << (2 * dim);
    const unsigned hi_bit = 1u << (2 * dim + 1);
    if ((open & (lo_bit | hi_bit)) == 0) return;
    const auto n = f.extents();
    const auto plan = core::HaloPlan::make(n, depth);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    auto data = f.buffer().span();
    const DeviceField layout = f;
    const std::ptrdiff_t sj = f.stride(1), sk = f.stride(2);

    stream.launch({1, 1, 1}, {1, 1, 1}, 0, [=](gpu::Dim3, gpu::Dim3,
                                               std::span<double>) {
        auto fill = [&](const core::Range3& slab, core::BoundaryKind kind,
                        int edge) {
            if (kind == core::BoundaryKind::Inflow) {
                for (int k = slab.lo.k; k < slab.hi.k; ++k)
                    for (int j = slab.lo.j; j < slab.hi.j; ++j)
                        for (int i = slab.lo.i; i < slab.hi.i; ++i)
                            data[layout.offset(i, j, k)] =
                                bf.g(origin.i + i, origin.j + j, origin.k + k,
                                     level);
                return;
            }
            // Outflow: every halo plane copies the edge plane, one x row per
            // memcpy (the one-point rows of x faces go point by point).
            const auto ext = slab.extents();
            const core::Extents3 one{dim == 0 ? 1 : ext.nx,
                                     dim == 1 ? 1 : ext.ny,
                                     dim == 2 ? 1 : ext.nz};
            const std::ptrdiff_t step = layout.stride(dim);
            double* d = data.data() +
                        layout.offset(slab.lo.i, slab.lo.j, slab.lo.k);
            const double* from = d + (edge - slab.lo[dim]) * step;
            for (int c = 0; c < ext[dim]; ++c)
                core::copy_box(from, sj, sk, d + c * step, sj, sk, one);
        };
        if (open & lo_bit)
            fill(e.recv_low, faces[static_cast<std::size_t>(2 * dim)], 0);
        if (open & hi_bit)
            fill(e.recv_high, faces[static_cast<std::size_t>(2 * dim + 1)],
                 n[dim] - 1);
    });
}

void launch_pack(gpu::Stream& stream, const DeviceField& f,
                 const core::Range3& region, gpu::DeviceBuffer& staging,
                 std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    auto src = f.buffer().span();
    auto dst = staging.span();
    const DeviceField layout = f;
    const auto e = region.extents();
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=, hold = staging](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      (void)hold;
                      const auto lo = region.lo;
                      core::copy_box(
                          src.data() + layout.offset(lo.i, lo.j, lo.k),
                          layout.stride(1), layout.stride(2),
                          dst.data() + offset, e.nx,
                          std::ptrdiff_t{e.nx} * e.ny, e);
                  });
}

void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    auto src = staging.span();
    auto dst = f.buffer().span();
    const DeviceField layout = f;
    const auto e = region.extents();
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=, hold = staging](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      (void)hold;
                      const auto lo = region.lo;
                      core::copy_box(
                          src.data() + offset, e.nx,
                          std::ptrdiff_t{e.nx} * e.ny,
                          dst.data() + layout.offset(lo.i, lo.j, lo.k),
                          layout.stride(1), layout.stride(2), e);
                  });
}

}  // namespace advect::impl
