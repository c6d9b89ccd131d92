#pragma once
/// \file norms.hpp
/// Error norms over field interiors; the paper verifies implementations by
/// "recording norms of the difference between the computed state and the
/// analytic state" (§IV-A).

#include <cmath>

#include "core/field.hpp"

namespace advect::core {

/// L1, L2 (RMS-normalised), and Linf norms of a field or difference.
struct Norms {
    double l1 = 0.0;
    double l2 = 0.0;
    double linf = 0.0;
};

/// Running sums of |x| and x^2 behind every norm in the repo, fed in k-j-i
/// order: norms(), diff_norms() and core::error_vs_analytic all accumulate
/// through it, so they sum in one order and agree bitwise.
struct NormSums {
    double sum1 = 0.0;
    double sum2 = 0.0;
    double max_abs = 0.0;

    void add(double x) {
        const double v = std::fabs(x);
        sum1 += v;
        sum2 += v * v;
        if (v > max_abs) max_abs = v;
    }
    /// l1 and l2 normalised by `count` points (zero when count is zero).
    [[nodiscard]] Norms finish(std::size_t count) const;
};

/// Norms of the interior of `f`. l1 and l2 are normalised by point count
/// (mean absolute value and root-mean-square) so they are grid-independent.
[[nodiscard]] Norms norms(const Field3& f);

/// Norms of the interior difference a - b (extents must match).
[[nodiscard]] Norms diff_norms(const Field3& a, const Field3& b);

}  // namespace advect::core
