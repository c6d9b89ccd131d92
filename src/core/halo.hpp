#pragma once
/// \file halo.hpp
/// Halo-exchange geometry for the ghost layer. The paper (§IV-B) uses the
/// well-established serialized-dimension strategy: exchange x faces first,
/// then y faces including the freshly filled x halos, then z faces including
/// x and y halos. Corners propagate through intermediate neighbours,
/// reducing the 26-neighbour exchange to 6 messages per step. The ghost
/// width is 1 for single-step plans and F for temporal-blocking plans that
/// fuse F steps per exchange (each fused step consumes one ghost layer).

#include <array>
#include <span>
#include <vector>

#include "core/field.hpp"

namespace advect::core {

/// Send/receive regions for one dimension's stage of the serialized halo
/// exchange. Messages "travel" in a direction: the low-travelling message
/// carries this rank's low boundary plane to the low neighbour, where it
/// lands in that rank's high halo (and symmetrically).
struct DimExchange {
    int dim = 0;
    Range3 send_low;   ///< slab [0, d), sent to the low neighbour
    Range3 send_high;  ///< slab [n-d, n), sent to the high neighbour
    Range3 recv_low;   ///< halo [-d, 0), filled by the low neighbour
    Range3 recv_high;  ///< halo [n, n+d), filled by the high neighbour
};

/// Full three-stage plan for a local domain of extents `n`.
struct HaloPlan {
    std::array<DimExchange, 3> dims;
    int depth = 1;  ///< ghost width d the plan moves

    /// Build the plan for ghost width `depth` (boundary slabs `depth`
    /// points thick). Transverse extents grow per stage so corner data
    /// propagates: x uses interior j,k; y includes x halos; z includes both.
    [[nodiscard]] static HaloPlan make(Extents3 n, int depth = 1);

    /// Number of doubles moved in one direction of stage `dim`.
    [[nodiscard]] std::size_t message_count(int dim) const {
        return dims[static_cast<std::size_t>(dim)].send_low.volume();
    }
};

/// Copy an `e.nx` x `e.ny` x `e.nz` box of x rows between two strided
/// layouts: row (j, k) starts `j * sj + k * sk` doubles past `src` (with the
/// source strides) and past `dst` (with the destination strides). Rows move
/// by one memcpy each, one per plane when both layouts hold the rows back to
/// back, and point by point when they are one point long (x faces). The
/// boxes must not overlap. pack/unpack and the simulated device's staging
/// and halo kernels all move data through this.
void copy_box(const double* src, std::ptrdiff_t src_sj, std::ptrdiff_t src_sk,
              double* dst, std::ptrdiff_t dst_sj, std::ptrdiff_t dst_sk,
              Extents3 e);

/// Copy `region` of `f` into a flat buffer, x fastest then y then z.
void pack(const Field3& f, const Range3& region, std::span<double> out);
[[nodiscard]] std::vector<double> pack(const Field3& f, const Range3& region);

/// Inverse of pack.
void unpack(Field3& f, const Range3& region, std::span<const double> in);

/// Fill one dimension's halos from the opposite boundary of the same field
/// (single-task periodic case, or a dimension in which a rank is its own
/// neighbour). Uses the same staged transverse extents as HaloPlan.
/// `depth` 0 (the default) fills the field's full halo width.
void fill_periodic_halo_dim(Field3& f, int dim, int depth = 0);

/// Fill all halos periodically, serialized x then y then z. `depth` 0 (the
/// default) fills the field's full halo width.
void fill_periodic_halo(Field3& f, int depth = 0);

}  // namespace advect::core
