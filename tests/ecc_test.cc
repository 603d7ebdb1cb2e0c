/**
 * @file
 * Unit and exhaustive property tests for the Hamming(72,64) SEC-DED
 * codec.
 */

#include <gtest/gtest.h>

#include "sram/ecc.hh"
#include "trace/rng.hh"

namespace
{

using namespace c8t::sram;

TEST(Codeword72, GetSetFlip)
{
    Codeword72 cw;
    EXPECT_FALSE(cw.get(0));
    cw.set(0, true);
    cw.set(71, true);
    EXPECT_TRUE(cw.get(0));
    EXPECT_TRUE(cw.get(71));
    cw.flip(71);
    EXPECT_FALSE(cw.get(71));
}

TEST(SecDed, CleanDecodeRoundTrips)
{
    c8t::trace::Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t data = rng.next();
        const auto r = SecDed72::decode(SecDed72::encode(data));
        EXPECT_EQ(r.status, EccStatus::Ok);
        EXPECT_EQ(r.data, data);
    }
}

TEST(SecDed, ZeroAndAllOnes)
{
    for (std::uint64_t data : {0ull, ~0ull}) {
        const auto r = SecDed72::decode(SecDed72::encode(data));
        EXPECT_EQ(r.status, EccStatus::Ok);
        EXPECT_EQ(r.data, data);
    }
}

TEST(SecDed, EverySingleBitErrorIsCorrected)
{
    c8t::trace::Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint64_t data = rng.next();
        for (std::uint32_t bit = 0; bit < Codeword72::bits; ++bit) {
            Codeword72 cw = SecDed72::encode(data);
            cw.flip(bit);
            const auto r = SecDed72::decode(cw);
            EXPECT_EQ(r.status, EccStatus::Corrected)
                << "bit " << bit;
            EXPECT_EQ(r.data, data) << "bit " << bit;
        }
    }
}

TEST(SecDed, EveryDoubleBitErrorIsDetected)
{
    // Exhaustive over all C(72,2) = 2556 double-bit patterns.
    const std::uint64_t data = 0x123456789abcdef0ull;
    for (std::uint32_t i = 0; i < Codeword72::bits; ++i) {
        for (std::uint32_t j = i + 1; j < Codeword72::bits; ++j) {
            Codeword72 cw = SecDed72::encode(data);
            cw.flip(i);
            cw.flip(j);
            const auto r = SecDed72::decode(cw);
            EXPECT_EQ(r.status, EccStatus::DetectedUncorrectable)
                << "bits " << i << ", " << j;
        }
    }
}

TEST(SecDed, DoubleErrorNeverSilentlyCorrupts)
{
    // Double errors must never decode to Ok/Corrected-with-wrong-data.
    c8t::trace::Rng rng(3);
    for (int trial = 0; trial < 500; ++trial) {
        const std::uint64_t data = rng.next();
        const std::uint32_t i =
            static_cast<std::uint32_t>(rng.below(Codeword72::bits));
        std::uint32_t j;
        do {
            j = static_cast<std::uint32_t>(rng.below(Codeword72::bits));
        } while (j == i);

        Codeword72 cw = SecDed72::encode(data);
        cw.flip(i);
        cw.flip(j);
        const auto r = SecDed72::decode(cw);
        if (r.status != EccStatus::DetectedUncorrectable) {
            EXPECT_EQ(r.data, data);
        }
    }
}

TEST(SecDed, StatusNames)
{
    EXPECT_STREQ(toString(EccStatus::Ok), "ok");
    EXPECT_STREQ(toString(EccStatus::Corrected), "corrected");
    EXPECT_STREQ(toString(EccStatus::DetectedUncorrectable),
                 "detected_uncorrectable");
}

/** Hamming position @p pos (1..71) holds a check bit. */
bool
isCheckPosition(std::uint32_t pos)
{
    return (pos & (pos - 1)) == 0;
}

/** Bit-by-bit reference encoder: the textbook Hamming construction. */
Codeword72
referenceEncode(std::uint64_t data)
{
    Codeword72 cw;
    std::uint32_t data_idx = 0;
    for (std::uint32_t pos = 1; pos <= 71; ++pos)
        if (!isCheckPosition(pos))
            cw.set(pos, (data >> data_idx++) & 1);
    for (std::uint32_t p = 1; p <= 64; p <<= 1) {
        bool parity = false;
        for (std::uint32_t pos = 1; pos <= 71; ++pos)
            if (pos != p && (pos & p))
                parity ^= cw.get(pos);
        cw.set(p, parity);
    }
    bool overall = false;
    for (std::uint32_t pos = 1; pos <= 71; ++pos)
        overall ^= cw.get(pos);
    cw.set(0, overall);
    return cw;
}

/** Bit-by-bit reference decoder: syndrome as the xor of set positions. */
EccDecodeResult
referenceDecode(Codeword72 cw)
{
    std::uint32_t syndrome = 0;
    bool parity_error = cw.get(0);
    for (std::uint32_t pos = 1; pos <= 71; ++pos) {
        if (cw.get(pos)) {
            syndrome ^= pos;
            parity_error = !parity_error;
        }
    }
    EccDecodeResult r;
    if (syndrome == 0 && !parity_error) {
        r.status = EccStatus::Ok;
    } else if (parity_error && syndrome <= 71) {
        cw.flip(syndrome);
        r.status = EccStatus::Corrected;
    } else {
        r.status = EccStatus::DetectedUncorrectable;
    }
    std::uint32_t data_idx = 0;
    for (std::uint32_t pos = 1; pos <= 71; ++pos)
        if (!isCheckPosition(pos))
            r.data |= static_cast<std::uint64_t>(cw.get(pos)) << data_idx++;
    return r;
}

TEST(SecDed, EncodeMatchesBitLoopReference)
{
    c8t::trace::Rng rng(4);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t data = rng.next();
        EXPECT_EQ(SecDed72::encode(data), referenceEncode(data));
    }
    for (std::uint32_t b = 0; b < 64; ++b)
        EXPECT_EQ(SecDed72::encode(1ull << b), referenceEncode(1ull << b));
}

TEST(SecDed, DecodeMatchesBitLoopReferenceUpToThreeErrors)
{
    // Exhaustive over every 1-, 2- and 3-bit error pattern, each on
    // fresh random data.
    c8t::trace::Rng rng(5);
    const auto check = [&](const Codeword72 &e) {
        const std::uint64_t data = rng.next();
        Codeword72 cw = SecDed72::encode(data);
        for (std::uint32_t b = 0; b < Codeword72::bits; ++b)
            if (e.get(b))
                cw.flip(b);
        const EccDecodeResult got = SecDed72::decode(cw);
        const EccDecodeResult want = referenceDecode(cw);
        ASSERT_EQ(got.status, want.status);
        ASSERT_EQ(got.data, want.data);
    };
    for (std::uint32_t i = 0; i < Codeword72::bits; ++i) {
        Codeword72 e;
        e.flip(i);
        check(e);
        for (std::uint32_t j = i + 1; j < Codeword72::bits; ++j) {
            e.flip(j);
            check(e);
            for (std::uint32_t k = j + 1; k < Codeword72::bits; ++k) {
                e.flip(k);
                check(e);
                e.flip(k);
            }
            e.flip(j);
        }
    }
}

/** Parameterized single-bit sweep across data patterns. */
class SecDedDataPattern : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SecDedDataPattern, SingleErrorCorrectionHolds)
{
    const std::uint64_t data = GetParam();
    for (std::uint32_t bit = 0; bit < Codeword72::bits; ++bit) {
        Codeword72 cw = SecDed72::encode(data);
        cw.flip(bit);
        const auto r = SecDed72::decode(cw);
        EXPECT_EQ(r.status, EccStatus::Corrected);
        EXPECT_EQ(r.data, data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SecDedDataPattern,
    ::testing::Values(0ull, ~0ull, 0x5555555555555555ull,
                      0xaaaaaaaaaaaaaaaaull, 0x0123456789abcdefull,
                      0x8000000000000001ull, 0x00000000ffffffffull));

} // anonymous namespace
