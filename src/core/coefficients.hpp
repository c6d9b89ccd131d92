#pragma once
/// \file coefficients.hpp
/// Lax-Wendroff stencil coefficients for 3-D linear advection (paper §II,
/// Table I). The 27 coefficients a_ijk of Equation 2 are the tensor product
/// of three classic 1-D Lax-Wendroff operators; we provide both the literal
/// Table I formulas and the tensor-product construction and cross-check them
/// in tests (they agree identically; the paper's a_{-1,-1,-1} entry contains
/// an obvious typo, "c_x c_y c_y" for "c_x c_y c_z").

#include <array>

#include "core/grid.hpp"

namespace advect::core {

/// The 27 coefficients of Equation 2, indexed by offset (di, dj, dk) in
/// {-1, 0, +1}^3 via `at(di, dj, dk)`.
struct StencilCoeffs {
    std::array<double, 27> a{};

    /// Flattened index of offset (di, dj, dk); di/dj/dk in {-1, 0, +1}.
    [[nodiscard]] static constexpr int index(int di, int dj, int dk) {
        return (di + 1) + 3 * (dj + 1) + 9 * (dk + 1);
    }
    [[nodiscard]] double at(int di, int dj, int dk) const {
        return a[static_cast<std::size_t>(index(di, dj, dk))];
    }
    [[nodiscard]] double& at(int di, int dj, int dk) {
        return a[static_cast<std::size_t>(index(di, dj, dk))];
    }

    /// Sum of all 27 coefficients. Exactly 1 for any (c, nu): the scheme
    /// preserves constants (consistency).
    [[nodiscard]] double sum() const;
};

/// 1-D Lax-Wendroff coefficients {a_-1, a_0, a_+1} for Courant number
/// q = c * nu:  a_-1 = q(1+q)/2,  a_0 = 1-q^2,  a_+1 = q(q-1)/2.
[[nodiscard]] std::array<double, 3> lax_wendroff_1d(double c, double nu);

/// Tensor-product construction of the 27 coefficients:
/// a_ijk = A_i(c_x nu) * A_j(c_y nu) * A_k(c_z nu).
[[nodiscard]] StencilCoeffs tensor_product_coeffs(const Velocity3& c, double nu);

/// Literal transcription of the paper's Table I formulas (with the single
/// typo in a_{-1,-1,-1} corrected). Agrees with tensor_product_coeffs to
/// floating-point identity up to benign reassociation; tests assert
/// agreement to 1 ulp-scale tolerance.
[[nodiscard]] StencilCoeffs table1_coeffs(const Velocity3& c, double nu);

/// Largest stable time-step ratio nu = Delta/delta. Tensor-product
/// Lax-Wendroff requires |c_i| * nu <= 1 in every dimension, i.e.
/// nu <= 1 / max|c_i|. (The paper §II states "nu <= max{|c|}", which reads
/// as a typo for this standard condition; we run at the maximum stable nu
/// exactly as the paper does.)
[[nodiscard]] double max_stable_nu(const Velocity3& c);

/// Floating-point work per grid point per step of a stencil that sums
/// `terms` products: `terms` multiplications + `terms - 1` additions. A
/// zero-coefficient-compacted StencilPlan runs StencilPlan::terms of them.
[[nodiscard]] constexpr int flops_per_point(int terms) {
    return 2 * terms - 1;
}

/// Floating-point work per grid point per step in Equation 2:
/// 27 multiplications + 26 additions = 53 flops (paper §II).
inline constexpr int kFlopsPerPoint = flops_per_point(27);

}  // namespace advect::core
