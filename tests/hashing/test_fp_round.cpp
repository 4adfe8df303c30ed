/**
 * @file
 * FP round-off unit behaviour (sections 3.1 and 5): mantissa masking for
 * relative differences, decimal flooring for absolute differences.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <vector>

#include "hashing/fp_round.hpp"
#include "support/rng.hpp"

namespace icheck::hashing
{
namespace
{

TEST(FpRound, NoneIsIdentity)
{
    const FpRoundMode mode = FpRoundMode::none();
    EXPECT_EQ(roundDouble(3.14159265358979, mode), 3.14159265358979);
    EXPECT_EQ(roundFloat(2.71828f, mode), 2.71828f);
}

TEST(FpRound, DecimalFloorDefaultIsClosest0001)
{
    const FpRoundMode mode = FpRoundMode::paperDefault();
    EXPECT_DOUBLE_EQ(roundDouble(1.23456, mode), 1.234);
    EXPECT_DOUBLE_EQ(roundDouble(1.2349999, mode), 1.234);
    EXPECT_DOUBLE_EQ(roundDouble(-1.23456, mode), -1.235);
}

TEST(FpRound, DecimalFloorMergesReassociationNoise)
{
    // Two orders of summing the same terms differ in the last ulps; the
    // floor maps both to the same value.
    const double a = (0.1 + 0.2) + 0.3;
    const double b = 0.1 + (0.2 + 0.3);
    ASSERT_NE(a, b) << "test premise: reassociation changes the value";
    const FpRoundMode mode = FpRoundMode::paperDefault();
    EXPECT_EQ(roundDouble(a, mode), roundDouble(b, mode));
}

TEST(FpRound, MantissaMaskZeroesLowBits)
{
    const FpRoundMode mode = FpRoundMode::mask(20);
    const double value = 1.0 + 1e-9;
    const double rounded = roundDouble(value, mode);
    std::uint64_t bits;
    std::memcpy(&bits, &rounded, sizeof(bits));
    EXPECT_EQ(bits & ((1ULL << 20) - 1), 0u);
    EXPECT_NEAR(rounded, value, 1e-9);
}

TEST(FpRound, MantissaMaskMergesRelativeNoise)
{
    const FpRoundMode mode = FpRoundMode::mask(24);
    const double a = 1e12;
    const double b = 1e12 * (1.0 + 1e-12);
    ASSERT_NE(a, b);
    EXPECT_EQ(roundDouble(a, mode), roundDouble(b, mode));
}

TEST(FpRound, SignedZeroNormalizes)
{
    const FpRoundMode floor_mode = FpRoundMode::paperDefault();
    EXPECT_FALSE(std::signbit(roundDouble(-0.0, floor_mode)));
    const FpRoundMode mask_mode = FpRoundMode::mask(20);
    EXPECT_FALSE(std::signbit(roundDouble(-0.0, mask_mode)));
}

TEST(FpRound, NonFiniteUntouchedByFloor)
{
    const FpRoundMode mode = FpRoundMode::paperDefault();
    EXPECT_TRUE(std::isnan(roundDouble(std::nan(""), mode)));
    EXPECT_TRUE(std::isinf(roundDouble(INFINITY, mode)));
}

TEST(FpRound, BitsRoundTripFloat)
{
    const FpRoundMode mode = FpRoundMode::paperDefault();
    const float value = 5.4321f;
    std::uint32_t raw;
    std::memcpy(&raw, &value, sizeof(raw));
    const std::uint64_t rounded_bits = roundFpBits(raw, 4, mode);
    float rounded;
    const auto low = static_cast<std::uint32_t>(rounded_bits);
    std::memcpy(&rounded, &low, sizeof(rounded));
    EXPECT_FLOAT_EQ(rounded, roundFloat(value, mode));
}

TEST(FpRound, BitsRoundTripDouble)
{
    const FpRoundMode mode = FpRoundMode::floorDigits(2);
    const double value = 9.8765;
    std::uint64_t raw;
    std::memcpy(&raw, &value, sizeof(raw));
    const std::uint64_t rounded_bits = roundFpBits(raw, 8, mode);
    double rounded;
    std::memcpy(&rounded, &rounded_bits, sizeof(rounded));
    EXPECT_DOUBLE_EQ(rounded, roundDouble(value, mode));
    EXPECT_DOUBLE_EQ(rounded, 9.87);
}

class FpRoundDigitsTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FpRoundDigitsTest, FlooringIsIdempotent)
{
    const FpRoundMode mode = FpRoundMode::floorDigits(GetParam());
    for (double v : {0.0, 1.5, -2.25, 123.456789, -0.0009, 7e6}) {
        const double once = roundDouble(v, mode);
        EXPECT_EQ(roundDouble(once, mode), once) << "v=" << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Digits, FpRoundDigitsTest,
                         ::testing::Values(0, 1, 2, 3, 4, 6));

/** The DecimalFloor formula with its scale from std::pow, as the
 *  round-off unit computed it before the power-of-ten table. */
double
powFloorToDigits(double value, int digits)
{
    if (!std::isfinite(value))
        return value;
    const double scale = std::pow(10.0, digits);
    const double scaled = value * scale;
    if (std::fabs(scaled) >= 0x1.0p62)
        return value;
    const double floored = std::floor(scaled) / scale;
    return floored == 0.0 ? 0.0 : floored;
}

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

std::uint32_t
bitsOf(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

TEST(FpRound, DecimalFloorTableIsBitEqualToPowFormula)
{
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {0.0,
                                  -0.0,
                                  limits::denorm_min(),
                                  -limits::denorm_min(),
                                  1e-310,
                                  limits::min(),
                                  limits::max(),
                                  -limits::max(),
                                  1e300,
                                  4.6e18, // near the 2^62 guard
                                  -9.2e15,
                                  limits::infinity(),
                                  -limits::infinity(),
                                  limits::quiet_NaN(),
                                  0.1,
                                  -1.2345678,
                                  999.9995};
    // Random magnitudes from 2^-60 to 2^70, and raw bit patterns.
    SplitMix64 gen(0xf100);
    for (int i = 0; i < 2000; ++i) {
        const double unit =
            static_cast<double>(gen.next() >> 11) * 0x1.0p-53 - 0.5;
        values.push_back(
            std::ldexp(unit, static_cast<int>(gen.next() % 131) - 60));
        const std::uint64_t raw = gen.next();
        double any;
        std::memcpy(&any, &raw, sizeof(any));
        values.push_back(any);
    }
    for (int digits = -1; digits <= 23; ++digits) {
        const FpRoundMode mode = FpRoundMode::floorDigits(digits);
        for (const double v : values) {
            EXPECT_EQ(bitsOf(roundDouble(v, mode)),
                      bitsOf(powFloorToDigits(v, digits)))
                << "digits " << digits << " v " << v;
            const float f = static_cast<float>(v);
            EXPECT_EQ(bitsOf(roundFloat(f, mode)),
                      bitsOf(static_cast<float>(powFloorToDigits(
                          static_cast<double>(f), digits))))
                << "digits " << digits << " f " << f;
        }
    }
}

} // namespace
} // namespace icheck::hashing
