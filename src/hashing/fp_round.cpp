#include "hashing/fp_round.hpp"

#include <cmath>
#include <cstring>
#include <iterator>

#include "support/logging.hpp"

namespace icheck::hashing
{

namespace
{

/**
 * 10^0 through 10^22: every power of ten that a double holds exactly, so
 * each entry equals std::pow(10.0, n) bit for bit.
 */
constexpr double exactPowersOf10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/** 10^@p digits: a table load in the exact range, libm outside it. */
double
decimalScale(int digits)
{
    if (digits >= 0 &&
        digits < static_cast<int>(std::size(exactPowersOf10)))
        return exactPowersOf10[digits];
    return std::pow(10.0, digits);
}

/** Floor @p value to @p digits decimal digits, stable around zero. */
double
floorToDigits(double value, int digits)
{
    if (!std::isfinite(value))
        return value;
    const double scale = decimalScale(digits);
    double scaled = value * scale;
    // Guard against overflow of the scaled value: leave huge magnitudes
    // untouched, their absolute differences dwarf the rounding grain anyway.
    if (std::fabs(scaled) >= 0x1.0p62)
        return value;
    double floored = std::floor(scaled) / scale;
    // Normalize -0.0 to +0.0 so that runs differing only in signed zero
    // compare equal.
    return floored == 0.0 ? 0.0 : floored;
}

} // namespace

double
roundDouble(double value, const FpRoundMode &mode)
{
    switch (mode.kind) {
      case FpRoundKind::None:
        return value;
      case FpRoundKind::MantissaMask: {
        ICHECK_ASSERT(mode.mantissaBits >= 0 && mode.mantissaBits <= 52,
                      "double mantissa mask out of range");
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        const std::uint64_t keep =
            mode.mantissaBits == 0
                ? ~std::uint64_t{0}
                : ~((std::uint64_t{1} << mode.mantissaBits) - 1);
        bits &= keep;
        double out;
        std::memcpy(&out, &bits, sizeof(out));
        return out == 0.0 ? 0.0 : out;
      }
      case FpRoundKind::DecimalFloor:
        return floorToDigits(value, mode.decimalDigits);
    }
    ICHECK_PANIC("unknown FpRoundKind");
}

float
roundFloat(float value, const FpRoundMode &mode)
{
    switch (mode.kind) {
      case FpRoundKind::None:
        return value;
      case FpRoundKind::MantissaMask: {
        // Scale the mask to the float mantissa: masking M bits of a double
        // corresponds to M - 29 bits of a float's 23-bit mantissa.
        int bits_to_mask = mode.mantissaBits - 29;
        if (bits_to_mask < 0)
            bits_to_mask = mode.mantissaBits > 0 ? 1 : 0;
        if (bits_to_mask > 23)
            bits_to_mask = 23;
        std::uint32_t bits;
        std::memcpy(&bits, &value, sizeof(bits));
        const std::uint32_t keep =
            bits_to_mask == 0
                ? ~std::uint32_t{0}
                : ~((std::uint32_t{1} << bits_to_mask) - 1);
        bits &= keep;
        float out;
        std::memcpy(&out, &bits, sizeof(out));
        return out == 0.0f ? 0.0f : out;
      }
      case FpRoundKind::DecimalFloor:
        return static_cast<float>(
            floorToDigits(static_cast<double>(value), mode.decimalDigits));
    }
    ICHECK_PANIC("unknown FpRoundKind");
}

std::uint64_t
roundFpBits(std::uint64_t bits, unsigned width, const FpRoundMode &mode)
{
    if (mode.kind == FpRoundKind::None)
        return bits;
    if (width == 4) {
        std::uint32_t raw = static_cast<std::uint32_t>(bits);
        float value;
        std::memcpy(&value, &raw, sizeof(value));
        value = roundFloat(value, mode);
        std::memcpy(&raw, &value, sizeof(raw));
        return raw;
    }
    if (width == 8) {
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        value = roundDouble(value, mode);
        std::uint64_t out;
        std::memcpy(&out, &value, sizeof(out));
        return out;
    }
    ICHECK_PANIC("FP width must be 4 or 8, got ", width);
}

} // namespace icheck::hashing
