/**
 * @file
 * Bit-manipulation helpers for instruction encodings and cache indexing.
 */

#ifndef CWSIM_BASE_BITFIELD_HH
#define CWSIM_BASE_BITFIELD_HH

#include <cstdint>

namespace cwsim
{

/** A mask of the low @p nbits bits. */
constexpr uint64_t
mask(unsigned nbits)
{
    return nbits >= 64 ? ~uint64_t(0) : (uint64_t(1) << nbits) - 1;
}

/**
 * The bytes named by @p byte_bits (bit i = byte i, i < 8) as a 64-bit
 * mask: 0x05 gives 0x0000000000ff00ff. Bits 0-6 are spread to the low
 * bit of their byte by one multiply (their shifted copies never
 * collide), bit 7 by a shift; multiplying by 0xff fills each byte.
 */
constexpr uint64_t
byteMask(unsigned byte_bits)
{
    uint64_t low_bits = ((byte_bits & 0x7f) * 0x0000040810204081ull &
                         0x0001010101010101ull) |
                        uint64_t(byte_bits >> 7 & 1) << 56;
    return low_bits * 0xff;
}

/** Extract bits [@p last : @p first] (inclusive, last >= first). */
constexpr uint64_t
bits(uint64_t val, unsigned last, unsigned first)
{
    return (val >> first) & mask(last - first + 1);
}

/** Extract a single bit. */
constexpr uint64_t
bits(uint64_t val, unsigned bit)
{
    return bits(val, bit, bit);
}

/** Return @p val with bits [@p last : @p first] replaced by @p field. */
constexpr uint64_t
insertBits(uint64_t val, unsigned last, unsigned first, uint64_t field)
{
    uint64_t m = mask(last - first + 1) << first;
    return (val & ~m) | ((field << first) & m);
}

/** Sign-extend the low @p nbits bits of @p val to 64 bits. */
constexpr int64_t
sext(uint64_t val, unsigned nbits)
{
    uint64_t sign_bit = uint64_t(1) << (nbits - 1);
    uint64_t low = val & mask(nbits);
    return static_cast<int64_t>((low ^ sign_bit) - sign_bit);
}

} // namespace cwsim

#endif // CWSIM_BASE_BITFIELD_HH
