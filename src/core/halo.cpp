#include "core/halo.hpp"

#include <cassert>
#include <cstring>

namespace advect::core {
namespace {

/// Transverse range (per stage) for the given dimension: lo/hi bounds of the
/// other two dimensions, growing with the stage to carry corners.
struct Transverse {
    int jlo, jhi;  // bounds of the lower-numbered other dimension
    int klo, khi;  // bounds of the higher-numbered other dimension
};

Transverse transverse_for(const Extents3& n, int dim, int depth) {
    switch (dim) {
        case 0:  // x stage: interior j,k
            return {0, n.ny, 0, n.nz};
        case 1:  // y stage: full i, interior k
            return {-depth, n.nx + depth, 0, n.nz};
        default:  // z stage: full i,j
            return {-depth, n.nx + depth, -depth, n.ny + depth};
    }
}

/// Build the Range3 for the slab [c0, c1) in dimension `dim` with transverse
/// bounds `t`.
Range3 slab(int dim, int c0, int c1, const Transverse& t) {
    Range3 r;
    switch (dim) {
        case 0:
            r.lo = {c0, t.jlo, t.klo};
            r.hi = {c1, t.jhi, t.khi};
            break;
        case 1:
            r.lo = {t.jlo, c0, t.klo};
            r.hi = {t.jhi, c1, t.khi};
            break;
        default:
            r.lo = {t.jlo, t.klo, c0};
            r.hi = {t.jhi, t.khi, c1};
            break;
    }
    return r;
}

}  // namespace

HaloPlan HaloPlan::make(Extents3 n, int depth) {
    assert(depth >= 1);
    HaloPlan p;
    p.depth = depth;
    for (int d = 0; d < 3; ++d) {
        const auto t = transverse_for(n, d, depth);
        auto& e = p.dims[static_cast<std::size_t>(d)];
        e.dim = d;
        e.send_low = slab(d, 0, depth, t);
        e.send_high = slab(d, n[d] - depth, n[d], t);
        e.recv_low = slab(d, -depth, 0, t);
        e.recv_high = slab(d, n[d], n[d] + depth, t);
    }
    return p;
}

void copy_box(const double* src, std::ptrdiff_t src_sj, std::ptrdiff_t src_sk,
              double* dst, std::ptrdiff_t dst_sj, std::ptrdiff_t dst_sk,
              Extents3 e) {
    if (e.volume() == 0) return;
    if (e.nx == 1) {
        // x faces: one point per row; a strided scalar loop beats a memcpy
        // call per element.
        for (int k = 0; k < e.nz; ++k)
            for (int j = 0; j < e.ny; ++j)
                dst[j * dst_sj + k * dst_sk] = src[j * src_sj + k * src_sk];
        return;
    }
    // Rows are x-contiguous in storage, so the copy is a memcpy per row, and
    // a single one per plane when both sides hold the rows back to back (the
    // z faces of the serialized exchange span the full padded xy extent).
    std::size_t row = static_cast<std::size_t>(e.nx);
    int rows = e.ny;
    if (src_sj == e.nx && dst_sj == e.nx) {
        row *= static_cast<std::size_t>(e.ny);
        rows = 1;
    }
    for (int k = 0; k < e.nz; ++k)
        for (int j = 0; j < rows; ++j)
            std::memcpy(dst + j * dst_sj + k * dst_sk,
                        src + j * src_sj + k * src_sk, row * sizeof(double));
}

void pack(const Field3& f, const Range3& region, std::span<double> out) {
    assert(out.size() >= region.volume());
    if (region.empty()) return;
    const auto e = region.extents();
    copy_box(f.ptr(region.lo.i, region.lo.j, region.lo.k), f.x_stride(),
             f.xy_stride(), out.data(), e.nx, std::ptrdiff_t{e.nx} * e.ny, e);
}

std::vector<double> pack(const Field3& f, const Range3& region) {
    std::vector<double> buf(region.volume());
    pack(f, region, buf);
    return buf;
}

void unpack(Field3& f, const Range3& region, std::span<const double> in) {
    assert(in.size() >= region.volume());
    if (region.empty()) return;
    const auto e = region.extents();
    copy_box(in.data(), e.nx, std::ptrdiff_t{e.nx} * e.ny,
             f.ptr(region.lo.i, region.lo.j, region.lo.k), f.x_stride(),
             f.xy_stride(), e);
}

void fill_periodic_halo_dim(Field3& f, int dim, int depth) {
    if (depth == 0) depth = f.halo_width();
    const auto plan = HaloPlan::make(f.extents(), depth);
    const auto& e = plan.dims[static_cast<std::size_t>(dim)];
    // Low halo <- high boundary slab; high halo <- low boundary slab.
    auto buf = pack(f, e.send_high);
    unpack(f, e.recv_low, buf);
    pack(f, e.send_low, buf);
    unpack(f, e.recv_high, buf);
}

void fill_periodic_halo(Field3& f, int depth) {
    for (int d = 0; d < 3; ++d) fill_periodic_halo_dim(f, d, depth);
}

}  // namespace advect::core
