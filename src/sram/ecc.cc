/**
 * @file
 * Hamming(72,64) SEC-DED implementation.
 */

#include "sram/ecc.hh"

#include <cassert>

namespace c8t::sram
{

bool
Codeword72::get(std::uint32_t idx) const
{
    assert(idx < bits);
    return (_w[idx >> 6] >> (idx & 63)) & 1;
}

void
Codeword72::set(std::uint32_t idx, bool v)
{
    assert(idx < bits);
    const std::uint64_t mask = 1ull << (idx & 63);
    if (v)
        _w[idx >> 6] |= mask;
    else
        _w[idx >> 6] &= ~mask;
}

const char *
toString(EccStatus s)
{
    switch (s) {
      case EccStatus::Ok:
        return "ok";
      case EccStatus::Corrected:
        return "corrected";
      case EccStatus::DetectedUncorrectable:
        return "detected_uncorrectable";
    }
    return "?";
}

namespace
{

/**
 * Syndrome table, one row per codeword byte: entry v of row b is the
 * xor of the positions (8b .. 8b+7) of v's set bits, with v's parity
 * in bit 7. Xoring one entry per byte yields the codeword's syndrome
 * (bits 0..6; position 0 adds nothing) and its overall parity.
 */
constexpr std::array<std::array<std::uint8_t, 256>, 9> kByteSyndrome = [] {
    std::array<std::array<std::uint8_t, 256>, 9> t{};
    for (std::uint32_t b = 0; b < t.size(); ++b)
        for (std::uint32_t v = 0; v < 256; ++v)
            for (std::uint32_t i = 0; i < 8; ++i)
                if ((v >> i) & 1)
                    t[b][v] ^= static_cast<std::uint8_t>((8 * b + i) | 0x80);
    return t;
}();

/** Syndrome (bits 0..6) and overall parity (bit 7) of codeword @p w. */
std::uint32_t
syndromeAndParity(const std::array<std::uint64_t, 2> &w)
{
    std::uint32_t acc = kByteSyndrome[8][w[1] & 0xff];
    for (std::uint32_t b = 0; b < 8; ++b)
        acc ^= kByteSyndrome[b][(w[0] >> (8 * b)) & 0xff];
    return acc;
}

// The 64 data bits occupy the non-power-of-two positions 1..71 in
// ascending order: 3, 5-7, 9-15, 17-31, 33-63 and 65-71 hold data bits
// 0, 1-3, 4-10, 11-25, 26-56 and 57-63.

std::uint64_t
gatherData(const std::array<std::uint64_t, 2> &w)
{
    return ((w[0] >> 3) & 0x1) | ((w[0] >> 5) & 0x7) << 1 |
           ((w[0] >> 9) & 0x7f) << 4 | ((w[0] >> 17) & 0x7fff) << 11 |
           ((w[0] >> 33) & 0x7fffffff) << 26 | ((w[1] >> 1) & 0x7f) << 57;
}

std::array<std::uint64_t, 2>
scatterData(std::uint64_t d)
{
    return {(d & 0x1) << 3 | ((d >> 1) & 0x7) << 5 |
                ((d >> 4) & 0x7f) << 9 | ((d >> 11) & 0x7fff) << 17 |
                ((d >> 26) & 0x7fffffff) << 33,
            ((d >> 57) & 0x7f) << 1};
}

} // anonymous namespace

Codeword72
SecDed72::encode(std::uint64_t data)
{
    Codeword72 cw;
    cw._w = scatterData(data);

    // With the check bits still clear, the syndrome names exactly the
    // check bits that make every covered parity even.
    const std::uint32_t checks = syndromeAndParity(cw._w) & 0x7f;
    for (std::uint32_t k = 0; k < 7; ++k)
        if ((checks >> k) & 1)
            cw.flip(1u << k);

    // Overall parity over positions 1..71 stored at position 0.
    if (syndromeAndParity(cw._w) >> 7)
        cw.flip(0);
    return cw;
}

EccDecodeResult
SecDed72::decode(const Codeword72 &cw)
{
    // Syndrome: xor of the indices of all set positions.
    const std::uint32_t acc = syndromeAndParity(cw._w);
    const std::uint32_t syndrome = acc & 0x7f;
    const bool parity_error = acc >> 7;

    Codeword72 fixed = cw;
    EccStatus status;

    if (syndrome == 0 && !parity_error) {
        status = EccStatus::Ok;
    } else if (parity_error) {
        // Odd number of errors; assume one and correct it. A syndrome
        // of zero means the overall-parity bit itself flipped.
        if (syndrome <= 71) {
            fixed.flip(syndrome);
            status = EccStatus::Corrected;
        } else {
            status = EccStatus::DetectedUncorrectable;
        }
    } else {
        // Even number of errors with a non-zero syndrome: double error.
        status = EccStatus::DetectedUncorrectable;
    }

    return {status, gatherData(fixed._w)};
}

} // namespace c8t::sram
