#include "core/coeff_cache.hpp"

#include <cassert>
#include <cstdint>

#include "core/stencil.hpp"

namespace advect::core {

StencilCoeffs CoeffField::at(int gi, int gj, int gk) const {
    const double x = gi * delta;
    const double y = gj * delta;
    const double z = gk * delta;
    const Velocity3 c0 = vel.at(x, y, z);
    const double h = 0.5 * dt();
    const Velocity3 ch =
        vel.at(x - h * c0.cx, y - h * c0.cy, z - h * c0.cz);
    return tensor_product_coeffs(ch, nu);
}

CoeffCache::CoeffCache(const CoeffField& cf, Extents3 local, Index3 origin)
    : row_stride_(static_cast<std::size_t>(local.nx) * 27),
      nx_(local.nx),
      ny_(local.ny),
      nz_(local.nz) {
    row_id_.assign(static_cast<std::size_t>(ny_) * nz_, -1);
    // Row key by velocity shape: constant -> one shared row; solid-body
    // rotation varies with (x, y) only -> key j; deformational varies with
    // the full position -> key (j, k).
    const bool cst = cf.vel.constant();
    const bool by_j =
        !cst && cf.vel.kind == VelocityKind::SolidBodyRotation;
    const std::size_t keys =
        cst ? 1
            : (by_j ? static_cast<std::size_t>(ny_)
                    : static_cast<std::size_t>(ny_) * nz_);
    std::vector<std::int32_t> by_key(keys, -1);
    // Every key gets exactly one row. Row 0 starts on a 64-byte boundary, so
    // the row kernel's 4-wide coefficient loads split no cache line when nx
    // and xlo are multiples of 4 (the common whole-row sweep).
    constexpr std::size_t kLine = 64 / sizeof(double);
    pool_.assign(keys * row_stride_ + kLine - 1, 0.0);
    base_ = (kLine - reinterpret_cast<std::uintptr_t>(pool_.data()) /
                         sizeof(double) % kLine) %
            kLine;
    for (int k = 0; k < nz_; ++k)
        for (int j = 0; j < ny_; ++j) {
            const std::size_t key =
                cst ? 0
                    : (by_j ? static_cast<std::size_t>(j) : idx(j, k));
            if (by_key[key] < 0) {
                by_key[key] = static_cast<std::int32_t>(rows_);
                const std::size_t base = base_ + rows_++ * row_stride_;
                for (int i = 0; i < nx_; ++i) {
                    const StencilCoeffs a =
                        cf.at(origin.i + i, origin.j + j, origin.k + k);
                    for (int t = 0; t < 27; ++t)
                        pool_[base + static_cast<std::size_t>(t) * nx_ +
                              static_cast<std::size_t>(i)] =
                            a.a[static_cast<std::size_t>(t)];
                }
            }
            row_id_[idx(j, k)] = by_key[key];
        }
}

void apply_stencil_var_rows(const CoeffCache& cache, const Field3& in,
                            Field3& out, const RowSpace& rows,
                            std::int64_t lo, std::int64_t hi) {
    const std::ptrdiff_t sj = in.x_stride();
    const std::ptrdiff_t sk = in.xy_stride();
    rows.for_each_row(lo, hi, [&](const RowSpace::Row& r) {
        assert(r.xlo >= 0 && r.xhi <= cache.nx());
        apply_stencil_var_row(cache.row(r.j, r.k) + r.xlo,
                              cache.term_stride(), in.ptr(r.xlo, r.j, r.k),
                              out.ptr(r.xlo, r.j, r.k), r.xhi - r.xlo, sj,
                              sk);
    });
}

}  // namespace advect::core
