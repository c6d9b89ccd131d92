#include "impl/device_field.hpp"

#include <algorithm>
#include <cassert>

#include "core/halo.hpp"
#include "core/stencil.hpp"

namespace advect::impl {

void upload_coefficients(gpu::Device& device, const core::StencilCoeffs& a) {
    device.set_constants(a.a);
}

void launch_stencil(gpu::Stream& stream, gpu::Device& device,
                    const DeviceField& in, DeviceField& out,
                    const core::Range3& region, int bx, int by,
                    const GpuSource& msrc) {
    assert(in.extents() == out.extents());
    if (region.empty()) return;
    const auto n = in.extents();
    const auto e = region.extents();
    const gpu::Dim3 grid{(e.nx + bx - 1) / bx, (e.ny + by - 1) / by, 1};
    const gpu::Dim3 block{bx + 2, by + 2, 1};  // fringe = halo threads
    const int tx = bx + 2, ty = by + 2;
    const std::size_t plane = static_cast<std::size_t>(tx) * ty;
    const std::size_t shared_doubles = 3 * plane;  // rotating z-1, z, z+1

    auto consts = device.constants();
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    // Copies hold the buffer handles alive until the op has run, and carry
    // the extents for offset math.
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;

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

        // Halo threads included: load rows [x0-1, x0+bx] x [y0-1, y0+by] of
        // plane k, guarded against the padded bounds for edge blocks.
        auto load_plane = [&](double* t, int k) {
            for (int lty = 0; lty < ty; ++lty) {
                const int gy = y0 - 1 + lty;
                if (gy < -1 || gy > n.ny) continue;
                for (int ltx = 0; ltx < tx; ++ltx) {
                    const int gx = x0 - 1 + ltx;
                    if (gx < -1 || gx > n.nx) continue;
                    t[static_cast<std::size_t>(lty) * tx + ltx] =
                        src[in_layout.offset(gx, gy, k)];
                }
            }
        };

        load_plane(tile[0], lo.k - 1);
        load_plane(tile[1], lo.k);
        for (int k = lo.k; k < hi.k; ++k) {
            load_plane(tile[2], k + 1);
            // Rebuild the plan for the current plane rotation: dk offsets
            // are the pointer distances between the shared-memory planes
            // (all within one shared allocation), dj/di use tile strides.
            // The row kernel is the *same code* as the CPU fast path, so
            // results are bitwise identical to core::stencil_point.
            core::StencilPlan plan;
            std::copy_n(consts.begin(), 27, plan.coeff.begin());
            std::size_t t = 0;
            for (int dk = -1; dk <= 1; ++dk) {
                const std::ptrdiff_t dplane = tile[dk + 1] - tile[1];
                for (int dj = -1; dj <= 1; ++dj)
                    for (int di = -1; di <= 1; ++di, ++t)
                        plan.offset[t] = dplane + dj * tx + di;
            }
            for (int ly = 0; ly < cy; ++ly) {
                const double* in_row =
                    tile[1] + static_cast<std::size_t>(ly + 1) * tx + 1;
                double* out_row = dst.data() + in_layout.offset(x0, y0 + ly, k);
                core::apply_stencil_row_ptr(plan, in_row, out_row, cx);
                if (msrc.active())
                    core::add_source_plane(out_row, 0, cx, 1,
                                           msrc.origin.i + x0,
                                           msrc.origin.j + y0 + ly,
                                           msrc.origin.k + k, msrc.level,
                                           msrc.field);
            }
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

    auto consts = device.constants();
    auto src = in.buffer().span();
    auto dst = out.buffer().span();
    const DeviceField in_layout = in;
    const DeviceField out_hold = out;
    const int hw = in.halo_width();

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
        // [x0-fuse, x0+cx+fuse), guarded against the padded bounds.
        auto load_plane0 = [&](int z) {
            double* t0 = level_base(0, z);
            const int px0 = bx + 2 * fuse;
            for (int ly = 0; ly < cy + 2 * fuse; ++ly) {
                const int gy = y0 - fuse + ly;
                if (gy < -hw || gy >= n.ny + hw) continue;
                for (int lx = 0; lx < cx + 2 * fuse; ++lx) {
                    const int gx = x0 - fuse + lx;
                    if (gx < -hw || gx >= n.nx + hw) continue;
                    t0[static_cast<std::size_t>(ly) * px0 + lx] =
                        src[in_layout.offset(gx, gy, z)];
                }
            }
        };

        // Advance plane t of level s from level s-1's planes t-1, t, t+1.
        // Every transition is the same row kernel as the CPU paths; the dk
        // offsets are the pointer distances between the rotated slots.
        auto compute_level = [&](int s, int t) {
            const int gsrc = fuse - (s - 1);
            const int gdst = fuse - s;
            const int pxs = bx + 2 * gsrc;
            const int pxd = bx + 2 * gdst;
            const int wx = cx + 2 * gdst;
            const int wy = cy + 2 * gdst;
            const double* center = level_base(s - 1, t);
            core::StencilPlan plan;
            std::copy_n(consts.begin(), 27, plan.coeff.begin());
            std::size_t ti = 0;
            for (int dk = -1; dk <= 1; ++dk) {
                const std::ptrdiff_t dplane =
                    level_base(s - 1, t + dk) - center;
                for (int dj = -1; dj <= 1; ++dj)
                    for (int di = -1; di <= 1; ++di, ++ti)
                        plan.offset[ti] = dplane + dj * pxs + di;
            }
            for (int ly = 0; ly < wy; ++ly) {
                const double* src_row =
                    center + static_cast<std::size_t>(ly + 1) * pxs + 1;
                double* dst_row =
                    s == fuse
                        ? dst.data() + in_layout.offset(x0, y0 + ly, t)
                        : level_base(s, t) +
                              static_cast<std::size_t>(ly) * pxd;
                core::apply_stencil_row_ptr(plan, src_row, dst_row, wx);
                if (msrc.active())
                    core::add_source_plane(dst_row, 0, wx, 1,
                                           msrc.origin.i + x0 - gdst,
                                           msrc.origin.j + y0 - gdst + ly,
                                           msrc.origin.k + t,
                                           msrc.level + s - 1, msrc.field);
            }
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
    const auto plan = core::HaloPlan::make(n, depth);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    auto data = f.buffer().span();
    const DeviceField layout = f;
    const int shift = n[dim];

    // Copy halo <- opposite boundary for both sides; a single-block kernel
    // (this is a memory-only operation, like the paper's halo threads).
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      auto copy = [&](const core::Range3& dst_region, int s) {
                          for (int k = dst_region.lo.k; k < dst_region.hi.k; ++k)
                              for (int j = dst_region.lo.j; j < dst_region.hi.j;
                                   ++j)
                                  for (int i = dst_region.lo.i;
                                       i < dst_region.hi.i; ++i) {
                                      int si = i, sj = j, sk = k;
                                      if (dim == 0) si += s;
                                      else if (dim == 1) sj += s;
                                      else sk += s;
                                      data[layout.offset(i, j, k)] =
                                          data[layout.offset(si, sj, sk)];
                                  }
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

    stream.launch({1, 1, 1}, {1, 1, 1}, 0, [=](gpu::Dim3, gpu::Dim3,
                                               std::span<double>) {
        auto fill = [&](const core::Range3& slab, core::BoundaryKind kind,
                        int edge) {
            for (int k = slab.lo.k; k < slab.hi.k; ++k)
                for (int j = slab.lo.j; j < slab.hi.j; ++j)
                    for (int i = slab.lo.i; i < slab.hi.i; ++i) {
                        if (kind == core::BoundaryKind::Inflow) {
                            data[layout.offset(i, j, k)] =
                                bf.g(origin.i + i, origin.j + j, origin.k + k,
                                     level);
                        } else {
                            const int si = dim == 0 ? edge : i;
                            const int sjj = dim == 1 ? edge : j;
                            const int skk = dim == 2 ? edge : k;
                            data[layout.offset(i, j, k)] =
                                data[layout.offset(si, sjj, skk)];
                        }
                    }
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
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=, hold = staging](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      (void)hold;
                      std::size_t idx = offset;
                      for (int k = region.lo.k; k < region.hi.k; ++k)
                          for (int j = region.lo.j; j < region.hi.j; ++j)
                              for (int i = region.lo.i; i < region.hi.i; ++i)
                                  dst[idx++] = src[layout.offset(i, j, k)];
                  });
}

void launch_unpack(gpu::Stream& stream, DeviceField& f,
                   const core::Range3& region, const gpu::DeviceBuffer& staging,
                   std::size_t offset) {
    assert(offset + region.volume() <= staging.size());
    auto src = staging.span();
    auto dst = f.buffer().span();
    const DeviceField layout = f;
    stream.launch({1, 1, 1}, {1, 1, 1}, 0,
                  [=, hold = staging](gpu::Dim3, gpu::Dim3, std::span<double>) {
                      (void)hold;
                      std::size_t idx = offset;
                      for (int k = region.lo.k; k < region.hi.k; ++k)
                          for (int j = region.lo.j; j < region.hi.j; ++j)
                              for (int i = region.lo.i; i < region.hi.i; ++i)
                                  dst[layout.offset(i, j, k)] = src[idx++];
                  });
}

}  // namespace advect::impl
