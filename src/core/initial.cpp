#include "core/initial.hpp"

#include <algorithm>
#include <cmath>

namespace advect::core {
namespace {

/// Minimum-image displacement of x from center in a unit periodic domain.
double min_image(double x, double center) {
    double d = x - center;
    d -= std::round(d);
    return d;
}

/// Wrap a physical coordinate into [0, 1).
double wrap01(double x) {
    const double w = x - std::floor(x);
    return w;
}

/// Squared min-image displacements of the `n` coordinates `coord(0..n-1)`
/// along one axis.
template <typename Coord>
std::vector<double> squared_axis(int n, double center, Coord&& coord) {
    std::vector<double> sq(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const double d = min_image(coord(i), center);
        sq[static_cast<std::size_t>(i)] = d * d;
    }
    return sq;
}

}  // namespace

double GaussianWave::operator()(double x, double y, double z) const {
    if (amp == 0.0) return 0.0;
    const double dx = min_image(x, center);
    const double dy = min_image(y, center);
    const double dz = min_image(z, center);
    const double r2 = dx * dx + dy * dy + dz * dz;
    return amp * std::exp(-r2 / (2.0 * sigma * sigma));
}

double analytic_solution(const GaussianWave& wave, const Velocity3& c,
                         double t, double x, double y, double z) {
    return wave(wrap01(x - c.cx * t), wrap01(y - c.cy * t),
                wrap01(z - c.cz * t));
}

WaveRows::WaveRows(const GaussianWave& wave, const Domain& dom, Extents3 n,
                   const Index3& origin)
    : amp_(wave.amp), denom_(2.0 * wave.sigma * wave.sigma) {
    const double d = dom.delta();
    for (int a = 0; a < 3; ++a)
        sq_[a] = squared_axis(n[a], wave.center,
                              [&](int i) { return (origin[a] + i) * d; });
}

WaveRows::WaveRows(const GaussianWave& wave, const Domain& dom, Extents3 n,
                   const Index3& origin, const Velocity3& c, double t)
    : amp_(wave.amp), denom_(2.0 * wave.sigma * wave.sigma) {
    const double d = dom.delta();
    for (int a = 0; a < 3; ++a) {
        const double shift = c[a] * t;
        sq_[a] = squared_axis(n[a], wave.center, [&](int i) {
            return wrap01((origin[a] + i) * d - shift);
        });
    }
}

void WaveRows::row(int j, int k, double* out) const {
    const int nx = static_cast<int>(sq_[0].size());
    if (amp_ == 0.0) {
        std::fill_n(out, nx, 0.0);
        return;
    }
    // (dx^2 + dy^2) + dz^2, summed in operator()'s order.
    const double* x2 = sq_[0].data();
    const double y2 = sq_[1][static_cast<std::size_t>(j)];
    const double z2 = sq_[2][static_cast<std::size_t>(k)];
    for (int i = 0; i < nx; ++i)
        out[i] = amp_ * std::exp(-(x2[i] + y2 + z2) / denom_);
}

void fill_initial(Field3& f, const Domain& dom, const GaussianWave& wave,
                  const Index3& origin) {
    const auto n = f.extents();
    const WaveRows rows(wave, dom, n, origin);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j) rows.row(j, k, f.ptr(0, j, k));
}

}  // namespace advect::core
