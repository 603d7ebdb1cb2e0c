/**
 * @file
 * Tests for the multi-bit-upset campaign: interleaving + SEC-DED must
 * recover every burst up to the interleave degree; non-interleaved
 * rows must not.
 */

#include <gtest/gtest.h>

#include <set>

#include "ecc_protected_row.hh"
#include "sram/fault_injection.hh"

namespace
{

using namespace c8t::sram;
using c8t::test::EccProtectedRow;

TEST(EccProtectedRow, CleanReadsRoundTrip)
{
    EccProtectedRow row(8, 4);
    for (std::uint32_t w = 0; w < 8; ++w)
        row.writeWord(w, 0x1111111111111111ull * (w + 1));
    for (std::uint32_t w = 0; w < 8; ++w) {
        const auto r = row.readWord(w);
        EXPECT_EQ(r.status, EccStatus::Ok);
        EXPECT_EQ(r.data, 0x1111111111111111ull * (w + 1));
    }
}

TEST(EccProtectedRow, SingleStrikeCorrected)
{
    EccProtectedRow row(8, 4);
    row.writeWord(3, 0xdeadbeefull);
    row.strike(100);
    const std::uint32_t hit_word = row.wordOfColumn(100);
    const auto r = row.readWord(hit_word);
    EXPECT_EQ(r.status, EccStatus::Corrected);
}

TEST(EccProtectedRow, BurstWithinDegreeLandsInDistinctWords)
{
    EccProtectedRow row(8, 4);
    for (std::uint32_t start = 0; start + 4 <= row.columns();
         start += 97) {
        std::set<std::uint32_t> words;
        for (std::uint32_t i = 0; i < 4; ++i)
            words.insert(row.wordOfColumn(start + i));
        EXPECT_EQ(words.size(), 4u);
    }
}

TEST(UpsetCampaign, InterleavedDoubleBurstAlwaysRecovers)
{
    // Degree 4 vs burst length 2: every word absorbs at most one bit,
    // SEC-DED corrects everything, zero silent corruption.
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 4;
    cfg.burstLength = 2;
    cfg.trials = 2000;
    const UpsetStats s = runUpsetCampaign(cfg);
    EXPECT_EQ(s.trials, 2000u);
    EXPECT_EQ(s.multiBitWords, 0u);
    EXPECT_EQ(s.silentCorruptions, 0u);
    EXPECT_EQ(s.detectedUncorrectable, 0u);
    EXPECT_EQ(s.fullyRecoveredTrials, 2000u);
    EXPECT_EQ(s.corrected, 2u * 2000u);
}

TEST(UpsetCampaign, NonInterleavedDoubleBurstDefeatsSecDed)
{
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 1;
    cfg.burstLength = 2;
    cfg.trials = 2000;
    const UpsetStats s = runUpsetCampaign(cfg);
    // Almost every burst lands both bits in one word.
    EXPECT_GT(s.multiBitWords, 1800u);
    EXPECT_GT(s.detectedUncorrectable, 1800u);
    EXPECT_LT(s.fullyRecoveredTrials, 200u);
}

TEST(UpsetCampaign, InterleavedFourBurstStillRecovers)
{
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 4;
    cfg.burstLength = 4;
    cfg.trials = 1000;
    const UpsetStats s = runUpsetCampaign(cfg);
    EXPECT_EQ(s.multiBitWords, 0u);
    EXPECT_EQ(s.fullyRecoveredTrials, 1000u);
}

TEST(UpsetCampaign, BurstBeyondDegreeBreaksInterleaving)
{
    // Burst longer than the degree must place two bits in some word.
    UpsetCampaign cfg;
    cfg.words = 16;
    cfg.degree = 4;
    cfg.burstLength = 5;
    cfg.trials = 500;
    const UpsetStats s = runUpsetCampaign(cfg);
    // A burst fully inside one interleave group must double-hit a word;
    // the rare bursts straddling a group boundary can escape.
    EXPECT_GT(s.multiBitWords, 480u);
    EXPECT_GT(s.detectedUncorrectable, 400u);
}

TEST(UpsetCampaign, DeterministicGivenSeed)
{
    UpsetCampaign cfg;
    cfg.trials = 200;
    cfg.degree = 1;
    const UpsetStats a = runUpsetCampaign(cfg);
    const UpsetStats b = runUpsetCampaign(cfg);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.detectedUncorrectable, b.detectedUncorrectable);
    EXPECT_EQ(a.fullyRecoveredTrials, b.fullyRecoveredTrials);
}

TEST(UpsetCampaign, SingleBitBurstAlwaysCorrectedAnyDegree)
{
    for (std::uint32_t degree : {1u, 2u, 4u, 8u}) {
        UpsetCampaign cfg;
        cfg.words = 8;
        cfg.degree = degree;
        cfg.burstLength = 1;
        cfg.trials = 500;
        const UpsetStats s = runUpsetCampaign(cfg);
        EXPECT_EQ(s.fullyRecoveredTrials, 500u) << "degree " << degree;
        EXPECT_EQ(s.silentCorruptions, 0u);
    }
}

} // anonymous namespace
