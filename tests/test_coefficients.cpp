// Tests for the Table I Lax-Wendroff coefficients (paper §II): literal
// formulas vs tensor-product construction, consistency identities, 1-D
// reduction, exact-shift behaviour at unit Courant number, and stability
// bounds.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/coefficients.hpp"
#include "core/stencil.hpp"

namespace core = advect::core;

namespace {

struct VelocityNu {
    core::Velocity3 c;
    double nu;
};

class CoefficientIdentity : public ::testing::TestWithParam<VelocityNu> {};

TEST_P(CoefficientIdentity, LiteralTable1MatchesTensorProduct) {
    const auto& p = GetParam();
    const auto lit = core::table1_coeffs(p.c, p.nu);
    const auto ten = core::tensor_product_coeffs(p.c, p.nu);
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di)
                EXPECT_NEAR(lit.at(di, dj, dk), ten.at(di, dj, dk),
                            1e-15 * (1.0 + std::fabs(ten.at(di, dj, dk))))
                    << "offset (" << di << "," << dj << "," << dk << ")";
}

TEST_P(CoefficientIdentity, CoefficientsSumToOne) {
    // Constant fields are preserved exactly: sum of a_ijk == 1 for any c, nu.
    const auto& p = GetParam();
    EXPECT_NEAR(core::tensor_product_coeffs(p.c, p.nu).sum(), 1.0, 1e-12);
    EXPECT_NEAR(core::table1_coeffs(p.c, p.nu).sum(), 1.0, 1e-12);
}

TEST_P(CoefficientIdentity, FirstMomentMatchesAdvectionDistance) {
    // First moment sum_i (-i) * A_i = c*nu per dimension: the scheme moves
    // the state by c*Delta per step to first order.
    const auto& p = GetParam();
    const auto a = core::tensor_product_coeffs(p.c, p.nu);
    for (int dim = 0; dim < 3; ++dim) {
        double moment = 0.0;
        for (int dk = -1; dk <= 1; ++dk)
            for (int dj = -1; dj <= 1; ++dj)
                for (int di = -1; di <= 1; ++di) {
                    const int off = dim == 0 ? di : (dim == 1 ? dj : dk);
                    moment += -off * a.at(di, dj, dk);
                }
        EXPECT_NEAR(moment, p.c[dim] * p.nu, 1e-12) << "dim " << dim;
    }
}

INSTANTIATE_TEST_SUITE_P(
    VelocitySweep, CoefficientIdentity,
    ::testing::Values(VelocityNu{{1.0, 1.0, 1.0}, 1.0},
                      VelocityNu{{1.0, 1.0, 1.0}, 0.5},
                      VelocityNu{{0.3, -0.7, 0.2}, 0.9},
                      VelocityNu{{-1.0, 0.5, 0.25}, 1.0},
                      VelocityNu{{2.0, 1.0, 0.5}, 0.5},
                      VelocityNu{{0.1, 0.1, 0.1}, 3.0},
                      VelocityNu{{1e-3, 1.0, -1e-3}, 0.99},
                      VelocityNu{{-0.4, -0.4, -0.4}, 2.5}));

TEST(Coefficients, RandomizedLiteralVsTensorAgreement) {
    std::mt19937 rng(20110516);  // IPDPS 2011 week, why not
    std::uniform_real_distribution<double> vel(-2.0, 2.0);
    std::uniform_real_distribution<double> nud(0.01, 1.0);
    for (int trial = 0; trial < 200; ++trial) {
        const core::Velocity3 c{vel(rng), vel(rng), vel(rng)};
        const double nu = nud(rng);
        const auto lit = core::table1_coeffs(c, nu);
        const auto ten = core::tensor_product_coeffs(c, nu);
        for (std::size_t idx = 0; idx < lit.a.size(); ++idx)
            ASSERT_NEAR(lit.a[idx], ten.a[idx],
                        1e-14 * (1.0 + std::fabs(ten.a[idx])));
    }
}

TEST(Coefficients, OneDimensionalReduction) {
    // Classic 1-D Lax-Wendroff: a_-1 = q(1+q)/2, a_0 = 1-q^2, a_+1 = q(q-1)/2.
    const double c = 0.8, nu = 0.9, q = c * nu;
    const auto a = core::lax_wendroff_1d(c, nu);
    EXPECT_DOUBLE_EQ(a[0], q * (1 + q) / 2);
    EXPECT_DOUBLE_EQ(a[1], 1 - q * q);
    EXPECT_DOUBLE_EQ(a[2], q * (q - 1) / 2);
    EXPECT_NEAR(a[0] + a[1] + a[2], 1.0, 1e-15);
}

TEST(Coefficients, UnitCourantIsExactShift) {
    // At c_i * nu == 1 in every dimension the update is exactly the value of
    // the upwind diagonal neighbour: only a_{-1,-1,-1} is 1, all else 0.
    const auto a = core::tensor_product_coeffs({1.0, 1.0, 1.0}, 1.0);
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di) {
                const double expect =
                    (di == -1 && dj == -1 && dk == -1) ? 1.0 : 0.0;
                EXPECT_DOUBLE_EQ(a.at(di, dj, dk), expect);
            }
}

TEST(Coefficients, ZeroNuIsIdentity) {
    const auto a = core::tensor_product_coeffs({0.7, -0.3, 0.1}, 0.0);
    for (int dk = -1; dk <= 1; ++dk)
        for (int dj = -1; dj <= 1; ++dj)
            for (int di = -1; di <= 1; ++di)
                EXPECT_DOUBLE_EQ(a.at(di, dj, dk),
                                 (di == 0 && dj == 0 && dk == 0) ? 1.0 : 0.0);
}

TEST(Coefficients, MaxStableNu) {
    EXPECT_DOUBLE_EQ(core::max_stable_nu({1.0, 1.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(core::max_stable_nu({2.0, 0.5, 0.5}), 0.5);
    EXPECT_DOUBLE_EQ(core::max_stable_nu({-4.0, 1.0, 1.0}), 0.25);
    EXPECT_THROW((void)core::max_stable_nu({0.0, 0.0, 0.0}),
                 std::invalid_argument);
}

TEST(Coefficients, VonNeumannStabilityAtMaxNu) {
    // |amplification factor| <= 1 for all wave numbers at the maximum stable
    // nu (sampled over a grid of wave numbers).
    const core::Velocity3 c{1.0, 0.5, 0.25};
    const double nu = core::max_stable_nu(c);
    const auto a = core::tensor_product_coeffs(c, nu);
    constexpr int kSamples = 9;
    for (int tz = 0; tz < kSamples; ++tz)
        for (int ty = 0; ty < kSamples; ++ty)
            for (int tx = 0; tx < kSamples; ++tx) {
                const double thx = 2 * M_PI * tx / kSamples;
                const double thy = 2 * M_PI * ty / kSamples;
                const double thz = 2 * M_PI * tz / kSamples;
                double re = 0.0, im = 0.0;
                for (int dk = -1; dk <= 1; ++dk)
                    for (int dj = -1; dj <= 1; ++dj)
                        for (int di = -1; di <= 1; ++di) {
                            const double phase =
                                di * thx + dj * thy + dk * thz;
                            re += a.at(di, dj, dk) * std::cos(phase);
                            im += a.at(di, dj, dk) * std::sin(phase);
                        }
                ASSERT_LE(std::sqrt(re * re + im * im), 1.0 + 1e-12)
                    << "unstable mode (" << tx << "," << ty << "," << tz << ")";
            }
}

TEST(Coefficients, IndexLayout) {
    EXPECT_EQ(core::StencilCoeffs::index(-1, -1, -1), 0);
    EXPECT_EQ(core::StencilCoeffs::index(0, 0, 0), 13);
    EXPECT_EQ(core::StencilCoeffs::index(1, 1, 1), 26);
}

TEST(Coefficients, FlopCountMatchesPaper) {
    EXPECT_EQ(core::kFlopsPerPoint, 53);  // 27 multiplies + 26 adds
}

TEST(Coefficients, FlopCountFollowsSurvivingTerms) {
    EXPECT_EQ(core::flops_per_point(27), 53);
    // The paper's 27-term sweep keeps every term after compaction.
    const core::Field3 shape({8, 8, 8});
    const auto paper = core::StencilPlan::make(
        core::tensor_product_coeffs({1.0, 0.5, 0.25}, 0.5), shape);
    EXPECT_EQ(core::flops_per_point(paper.terms), 53);
    // The Courant-1 shift compacts to one multiply and no add.
    const auto shift = core::StencilPlan::make(
        core::tensor_product_coeffs({1.0, 1.0, 1.0}, 1.0), shape);
    EXPECT_EQ(shift.terms, 1);
    EXPECT_EQ(core::flops_per_point(shift.terms), 1);
}

}  // namespace
