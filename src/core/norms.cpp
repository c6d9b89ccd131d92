#include "core/norms.hpp"

#include <cassert>
#include <cmath>

namespace advect::core {

Norms NormSums::finish(std::size_t count) const {
    Norms out;
    const double c = static_cast<double>(count);
    out.l1 = count > 0 ? sum1 / c : 0.0;
    out.l2 = count > 0 ? std::sqrt(sum2 / c) : 0.0;
    out.linf = max_abs;
    return out;
}

namespace {

template <typename Value>
Norms accumulate_norms(const Extents3& n, Value&& value) {
    NormSums sums;
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) sums.add(value(i, j, k));
    return sums.finish(n.volume());
}

}  // namespace

Norms norms(const Field3& f) {
    return accumulate_norms(f.extents(),
                            [&f](int i, int j, int k) { return f(i, j, k); });
}

Norms diff_norms(const Field3& a, const Field3& b) {
    assert(a.extents() == b.extents());
    return accumulate_norms(a.extents(), [&a, &b](int i, int j, int k) {
        return a(i, j, k) - b(i, j, k);
    });
}

}  // namespace advect::core
