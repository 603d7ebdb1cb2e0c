/**
 * @file
 * Upset campaign and fault-map campaign implementation.
 */

#include "sram/fault_injection.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "sram/interleave.hh"
#include "trace/rng.hh"

namespace c8t::sram
{

UpsetStats
runUpsetCampaign(const UpsetCampaign &cfg)
{
    assert(cfg.burstLength >= 1);
    const InterleaveMap layout(cfg.words, Codeword72::bits, cfg.degree);
    trace::Rng rng(cfg.seed);
    UpsetStats out;

    std::vector<Codeword72> errors(cfg.words);
    std::vector<std::uint32_t> hits_per_word(cfg.words);

    for (std::uint32_t trial = 0; trial < cfg.trials; ++trial) {
        // The row's random contents cannot change an outcome (see
        // classifyWordFault); they are drawn only to keep each seed's
        // burst positions.
        for (std::uint32_t w = 0; w < cfg.words; ++w)
            rng.next();

        // One physically contiguous burst, fully inside the row.
        const std::uint32_t start = static_cast<std::uint32_t>(
            rng.below(layout.columns() - cfg.burstLength + 1));
        std::fill(errors.begin(), errors.end(), Codeword72{});
        std::fill(hits_per_word.begin(), hits_per_word.end(), 0);
        for (std::uint32_t col = start; col < start + cfg.burstLength;
             ++col) {
            const std::uint32_t w = layout.wordOf(col);
            errors[w].flip(layout.bitOf(col));
            ++hits_per_word[w];
        }

        bool all_recovered = true;
        for (std::uint32_t w = 0; w < cfg.words; ++w) {
            if (hits_per_word[w] >= 2)
                ++out.multiBitWords;
            if (hits_per_word[w] == 0)
                continue;

            // Decoding the bare error pattern gives the stored word's
            // status; non-zero data means the read-back data is wrong.
            const EccDecodeResult r = SecDed72::decode(errors[w]);
            if (r.status == EccStatus::Corrected)
                ++out.corrected;
            if (r.status == EccStatus::DetectedUncorrectable) {
                ++out.detectedUncorrectable;
                all_recovered = false;
            } else if (r.data != 0) {
                ++out.silentCorruptions;
                all_recovered = false;
            }
        }
        if (all_recovered)
            ++out.fullyRecoveredTrials;
        ++out.trials;
    }
    return out;
}

namespace
{

/**
 * Derive the fault-map draw seed. Each component is folded through one
 * splitmix64 step so the seed changes completely when any component
 * changes (in particular neighbouring Vdd grid points must not share
 * fault patterns). The Vdd is folded by bit pattern, not value, so
 * there is no epsilon question.
 */
std::uint64_t
faultMapSeed(const FaultMapConfig &cfg)
{
    std::uint64_t state = cfg.runSeed;
    trace::splitmix64(state);
    state ^= std::bit_cast<std::uint64_t>(cfg.vdd);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.rows);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.wordsPerRow);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.degree);
    trace::splitmix64(state);
    state ^= static_cast<std::uint64_t>(cfg.cell);
    return trace::splitmix64(state);
}

/** Physical cells in @p cfg's array: rows * wordsPerRow * 72. */
std::uint64_t
totalCells(const FaultMapConfig &cfg)
{
    return static_cast<std::uint64_t>(cfg.rows) * cfg.wordsPerRow *
           Codeword72::bits;
}

/**
 * Call @p fn with the flattened index of every faulty cell of @p cfg's
 * array, in ascending order. This is the one sampler behind both the
 * materialized map and the streaming campaign, so both see the same
 * RNG stream and the same fault positions.
 */
template <typename Fn>
void
forEachFaultyCell(const FaultMapConfig &cfg, Fn &&fn)
{
    assert(cfg.rows >= 1 && cfg.wordsPerRow >= 1 && cfg.degree >= 1);
    const std::uint64_t total = totalCells(cfg);
    const double p = cfg.pfailCell;
    if (p <= 0.0)
        return;
    if (p >= 1.0) {
        for (std::uint64_t i = 0; i < total; ++i)
            fn(i);
        return;
    }

    // Skip-ahead sampling: instead of one Bernoulli draw per cell, draw
    // the geometric gap to the next faulty cell. One RNG draw per
    // *fault* keeps the draw O(faults) — at the high-Vdd end of a
    // sweep p is ~1e-12 and a per-cell loop would dominate the sweep.
    // The gap is floor(log(u) / log1p(-p)) >= 0; the integer
    // comparison and the truncating conversion below both give the
    // floor's result without calling it.
    trace::Rng rng(faultMapSeed(cfg));
    const double log1mp = std::log1p(-p);
    std::uint64_t cell = 0;
    while (true) {
        const double u = std::max(rng.uniform(), 1e-18);
        const double gap = std::log(u) / log1mp;
        if (gap >= static_cast<double>(total - cell))
            break;
        cell += static_cast<std::uint64_t>(gap);
        fn(cell);
        if (++cell >= total)
            break;
    }
}

} // namespace

FaultMap
buildFaultMap(const FaultMapConfig &cfg)
{
    FaultMap map;
    map.config = cfg;
    map.totalCells = totalCells(cfg);
    forEachFaultyCell(cfg, [&](std::uint64_t cell) {
        map.faultyCells.push_back(cell);
    });
    return map;
}

WordFault
classifyWordFault(const Codeword72 &error)
{
    // SEC-DED is linear and every codeword has a zero syndrome and even
    // parity, so decode(encode(d) ^ e) reports decode(e)'s status and
    // returns d ^ decode(e).data: the data survives exactly when
    // decoding the bare error pattern yields zero data.
    const EccDecodeResult r = SecDed72::decode(error);
    if (r.status == EccStatus::DetectedUncorrectable)
        return WordFault::DetectedUncorrectable;
    return r.data != 0 ? WordFault::SilentCorruption : WordFault::Corrected;
}

FaultMapStats
runFaultMapCampaign(const FaultMapConfig &cfg)
{
    const InterleaveMap layout(cfg.wordsPerRow, Codeword72::bits,
                               cfg.degree);
    const std::uint64_t columns = layout.columns();
    FaultMapStats out;
    out.words = static_cast<std::uint64_t>(cfg.rows) * cfg.wordsPerRow;

    // Faults arrive in ascending cell order, so one row at a time is
    // open: its words' error patterns, and the words hit so far.
    std::vector<Codeword72> errors(cfg.wordsPerRow);
    std::vector<std::uint32_t> touched;
    std::uint64_t row_base = 0;
    std::uint64_t row_end = 0;

    // Logical (word, bit) of every physical column, tabulated at the
    // first fault so fault-free campaigns never pay for it.
    std::vector<std::uint32_t> word_of;
    std::vector<std::uint8_t> bit_of;
    const auto tabulate = [&] {
        word_of.resize(columns);
        bit_of.resize(columns);
        for (std::uint32_t w = 0; w < cfg.wordsPerRow; ++w) {
            for (std::uint32_t b = 0; b < Codeword72::bits; ++b) {
                const std::uint32_t col = layout.toPhysical(w, b);
                word_of[col] = w;
                bit_of[col] = static_cast<std::uint8_t>(b);
            }
        }
    };
    const auto closeRow = [&] {
        for (const std::uint32_t w : touched) {
            switch (classifyWordFault(errors[w])) {
              case WordFault::Corrected:
                ++out.corrected;
                break;
              case WordFault::DetectedUncorrectable:
                ++out.detectedUncorrectable;
                break;
              case WordFault::SilentCorruption:
                ++out.silentCorruptions;
                break;
            }
            errors[w] = Codeword72{};
        }
        touched.clear();
    };

    forEachFaultyCell(cfg, [&](std::uint64_t cell) {
        if (cell >= row_end) {
            if (word_of.empty())
                tabulate();
            closeRow();
            row_base = cell - cell % columns;
            row_end = row_base + columns;
        }
        const auto col = static_cast<std::size_t>(cell - row_base);
        const std::uint32_t w = word_of[col];
        // Each cell is drawn once, so a word's pattern is all-zero
        // exactly until its first fault.
        if (errors[w] == Codeword72{})
            touched.push_back(w);
        errors[w].flip(bit_of[col]);
    });
    closeRow();

    out.cleanWords = out.words - out.corrected -
                     out.detectedUncorrectable - out.silentCorruptions;
    return out;
}

} // namespace c8t::sram
