/**
 * @file
 * Identity tests for the streaming fault-map campaign.
 *
 * runFaultMapCampaign classifies each faulty word from its error
 * pattern alone. These tests hold it to the direct model it replaces:
 * fill every row with data, encode each word, flip the faulty cells of
 * the drawn map, decode, and compare against the stored data. They
 * also pin the once-only fill of the process-wide campaign memo.
 */

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "core/fault_cache.hh"
#include "ecc_protected_row.hh"
#include "sram/fault_injection.hh"
#include "sram/vmodel.hh"
#include "trace/rng.hh"

namespace
{

using namespace c8t;
using namespace c8t::sram;
using c8t::test::EccProtectedRow;

/**
 * Reference evaluation of a drawn map through stored data: fill each
 * row with pseudo-random words, encode them, strike the mapped faulty
 * cells, decode every hit word and compare against what was written.
 */
FaultMapStats
referenceEvaluate(const FaultMap &map)
{
    const FaultMapConfig &cfg = map.config;
    FaultMapStats out;
    out.words = static_cast<std::uint64_t>(cfg.rows) * cfg.wordsPerRow;
    const std::uint64_t columns =
        static_cast<std::uint64_t>(cfg.wordsPerRow) * Codeword72::bits;

    trace::Rng fill_rng(cfg.runSeed ^ 0x9e3779b97f4a7c15ull);
    std::vector<std::uint64_t> original(cfg.wordsPerRow);
    std::size_t next_fault = 0;

    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
        const std::uint64_t row_base =
            static_cast<std::uint64_t>(r) * columns;
        const std::uint64_t row_end = row_base + columns;

        EccProtectedRow row(cfg.wordsPerRow, cfg.degree);
        for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w) {
            original[w] = fill_rng.next();
            row.writeWord(w, original[w]);
        }

        std::vector<std::uint32_t> hits_per_word(cfg.wordsPerRow, 0);
        while (next_fault < map.faultyCells.size() &&
               map.faultyCells[next_fault] < row_end) {
            const auto col = static_cast<std::uint32_t>(
                map.faultyCells[next_fault] - row_base);
            row.strike(col);
            ++hits_per_word[row.wordOfColumn(col)];
            ++next_fault;
        }

        for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w) {
            if (hits_per_word[w] == 0) {
                ++out.cleanWords;
                continue;
            }
            const EccDecodeResult res = row.readWord(w);
            if (res.status == EccStatus::DetectedUncorrectable)
                ++out.detectedUncorrectable;
            else if (res.data != original[w])
                ++out.silentCorruptions;
            else
                ++out.corrected;
        }
    }
    return out;
}

/** Outcome of reading data @p d back after flipping @p error into its
 *  stored codeword. */
WordFault
outcomeThroughStoredData(std::uint64_t d, const Codeword72 &error)
{
    Codeword72 cw = SecDed72::encode(d);
    for (std::uint32_t b = 0; b < Codeword72::bits; ++b)
        if (error.get(b))
            cw.flip(b);
    const EccDecodeResult r = SecDed72::decode(cw);
    if (r.status == EccStatus::DetectedUncorrectable)
        return WordFault::DetectedUncorrectable;
    return r.data != d ? WordFault::SilentCorruption : WordFault::Corrected;
}

void
expectStatsEqual(const FaultMapStats &got, const FaultMapStats &want,
                 const FaultMapConfig &cfg)
{
    const auto where = ::testing::Message()
                       << "seed " << cfg.runSeed << " vdd " << cfg.vdd
                       << " cell " << static_cast<int>(cfg.cell)
                       << " p " << cfg.pfailCell << " rows " << cfg.rows
                       << " wpr " << cfg.wordsPerRow << " degree "
                       << cfg.degree;
    EXPECT_EQ(got.words, want.words) << where;
    EXPECT_EQ(got.cleanWords, want.cleanWords) << where;
    EXPECT_EQ(got.corrected, want.corrected) << where;
    EXPECT_EQ(got.detectedUncorrectable, want.detectedUncorrectable)
        << where;
    EXPECT_EQ(got.silentCorruptions, want.silentCorruptions) << where;
}

TEST(WordFault, EveryPatternUpToWeightThreeMatchesStoredDataDecode)
{
    trace::Rng rng(11);
    std::uint64_t patterns = 0;
    const auto check = [&](const Codeword72 &e) {
        const std::uint64_t d = rng.next();
        ASSERT_EQ(classifyWordFault(e), outcomeThroughStoredData(d, e))
            << "data " << d << " pattern " << e.raw()[0] << ":"
            << e.raw()[1];
        ++patterns;
    };
    constexpr std::uint32_t n = Codeword72::bits;
    for (std::uint32_t i = 0; i < n; ++i) {
        Codeword72 e;
        e.flip(i);
        check(e);
        for (std::uint32_t j = i + 1; j < n; ++j) {
            e.flip(j);
            check(e);
            for (std::uint32_t k = j + 1; k < n; ++k) {
                e.flip(k);
                check(e);
                e.flip(k);
            }
            e.flip(j);
        }
    }
    EXPECT_EQ(patterns, 72u + 2556u + 59640u);
}

TEST(WordFault, RandomHeavierPatternsMatchStoredDataDecode)
{
    trace::Rng rng(12);
    for (std::uint32_t weight = 4; weight <= 12; ++weight) {
        for (int trial = 0; trial < 2000; ++trial) {
            Codeword72 e;
            std::uint32_t set = 0;
            while (set < weight) {
                const auto b = static_cast<std::uint32_t>(
                    rng.below(Codeword72::bits));
                if (!e.get(b)) {
                    e.flip(b);
                    ++set;
                }
            }
            const std::uint64_t d = rng.next();
            ASSERT_EQ(classifyWordFault(e), outcomeThroughStoredData(d, e))
                << "weight " << weight << " trial " << trial;
        }
    }
}

TEST(FaultMapCampaign, MatchesStoredDataReferenceAcrossGeometries)
{
    const VddModel vm;
    for (const CellType cell : {CellType::SixT, CellType::EightT}) {
        for (const double v : VddModel::defaultGrid()) {
            for (const std::uint32_t degree : {1u, 2u, 4u, 8u}) {
                for (const std::uint32_t wpr : {4u, 16u, 64u}) {
                    if (wpr % degree != 0)
                        continue; // not a valid interleaved row
                    for (const std::uint32_t rows : {1u, 1024u}) {
                        FaultMapConfig cfg;
                        cfg.runSeed = 3;
                        cfg.vdd = v;
                        cfg.cell = cell;
                        cfg.pfailCell = vm.at(v, cell).pfailCell;
                        cfg.rows = rows;
                        cfg.wordsPerRow = wpr;
                        cfg.degree = degree;
                        expectStatsEqual(
                            runFaultMapCampaign(cfg),
                            referenceEvaluate(buildFaultMap(cfg)), cfg);
                    }
                }
            }
        }
    }
}

TEST(FaultMapCampaign, MatchesReferenceAtCertainAndImpossibleFailure)
{
    for (const double p : {0.0, 1.0, 1.5}) {
        for (const std::uint32_t degree : {1u, 4u}) {
            FaultMapConfig cfg;
            cfg.pfailCell = p;
            cfg.rows = 64;
            cfg.wordsPerRow = 16;
            cfg.degree = degree;
            const FaultMapStats got = runFaultMapCampaign(cfg);
            expectStatsEqual(got, referenceEvaluate(buildFaultMap(cfg)),
                             cfg);
            if (p == 0.0)
                EXPECT_EQ(got.cleanWords, got.words);
            else
                EXPECT_EQ(got.cleanWords, 0u);
        }
    }
}

TEST(FaultMapCampaign, HighFaultDensityKeepsEveryOutcomeClass)
{
    // 6T at 0.70 V leaves clean, corrected, detected and silently
    // corrupted words in one map, so a swapped counter cannot hide
    // behind zeros.
    const VddModel vm;
    FaultMapConfig cfg;
    cfg.vdd = 0.70;
    cfg.cell = CellType::SixT;
    cfg.pfailCell = vm.at(cfg.vdd, cfg.cell).pfailCell;
    cfg.rows = 1024;
    cfg.wordsPerRow = 64;
    const FaultMapStats got = runFaultMapCampaign(cfg);
    expectStatsEqual(got, referenceEvaluate(buildFaultMap(cfg)), cfg);
    EXPECT_GT(got.cleanWords, 0u);
    EXPECT_GT(got.corrected, 0u);
    EXPECT_GT(got.detectedUncorrectable, 0u);
    EXPECT_GT(got.silentCorruptions, 0u);
}

TEST(FaultMapCache, ConcurrentFirstRequestsRunTheCampaignOnce)
{
    const VddModel vm;
    FaultMapConfig cfg;
    cfg.vdd = 0.55;
    cfg.cell = CellType::SixT;
    cfg.pfailCell = vm.at(cfg.vdd, cfg.cell).pfailCell;
    cfg.rows = 1024;
    cfg.wordsPerRow = 64;

    constexpr int kThreads = 8;
    core::FaultMapCache cache;
    std::latch start(kThreads);
    std::vector<FaultMapStats> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[t] = cache.evaluate(cfg);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const core::FaultMapCache::Stats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(s.entries, 1u);
    const FaultMapStats want = runFaultMapCampaign(cfg);
    for (const FaultMapStats &got : results)
        expectStatsEqual(got, want, cfg);
}

} // anonymous namespace
