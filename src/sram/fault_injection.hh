/**
 * @file
 * Multi-bit-upset fault injection over ECC-protected, bit-interleaved
 * rows.
 *
 * Reproduces the motivation behind bit interleaving (paper §2): a
 * particle strike upsets a *burst* of physically adjacent cells; with
 * interleaving the burst lands in different logical words and per-word
 * SEC-DED corrects everything; without it the burst concentrates in one
 * word and defeats the code.
 */

#ifndef C8T_SRAM_FAULT_INJECTION_HH
#define C8T_SRAM_FAULT_INJECTION_HH

#include <cstdint>
#include <vector>

#include "sram/cell.hh"
#include "sram/ecc.hh"

namespace c8t::sram
{

/** Configuration of one upset campaign. */
struct UpsetCampaign
{
    /** Logical words per row. */
    std::uint32_t words = 16;

    /** Interleave degree. */
    std::uint32_t degree = 4;

    /** Number of independent strike trials. */
    std::uint32_t trials = 10000;

    /** Burst length in physically adjacent cells. */
    std::uint32_t burstLength = 2;

    /** RNG seed. */
    std::uint64_t seed = 7;
};

/** Outcome counts of an upset campaign. */
struct UpsetStats
{
    /** Trials executed. */
    std::uint64_t trials = 0;

    /** Words that absorbed 2+ upset bits in one trial. */
    std::uint64_t multiBitWords = 0;

    /** Word decodes ending in correction. */
    std::uint64_t corrected = 0;

    /** Word decodes ending in detected-uncorrectable. */
    std::uint64_t detectedUncorrectable = 0;

    /**
     * Word decodes that returned Ok/Corrected but WRONG data — silent
     * data corruption, the failure mode interleaving must prevent.
     */
    std::uint64_t silentCorruptions = 0;

    /** Trials after which every word decoded to its original data. */
    std::uint64_t fullyRecoveredTrials = 0;
};

/**
 * Run an upset campaign: per trial, strike a random physically
 * contiguous burst into a row of SEC-DED words laid out through an
 * InterleaveMap, decode every hit word and classify the outcome.
 */
UpsetStats runUpsetCampaign(const UpsetCampaign &cfg);

// --- Monte-Carlo voltage-scaling fault maps (DESIGN.md §10) ------------
//
// Where the upset campaign above models *transient* particle strikes,
// the fault map models *static* variation-induced cell failures at a
// low supply voltage: every physical cell of an array independently
// fails with the per-cell probability the VddModel assigns to the
// operating point. The map is drawn once per (run seed, Vdd, geometry,
// cell type) — deterministically, so every sweep worker that evaluates
// the same operating point sees the same faulty cells.

/** Geometry + operating point of one fault-map draw. */
struct FaultMapConfig
{
    /** Campaign-level seed (the sweep's run seed). */
    std::uint64_t runSeed = 1;

    /** Supply voltage of the operating point (hashed into the draw
     *  seed, so neighbouring grid points get independent maps). */
    double vdd = 1.0;

    /** Cell flavour (hashed into the draw seed). */
    CellType cell = CellType::EightT;

    /** Per-cell failure probability at the operating point (from
     *  VddModel::at().pfailCell). */
    double pfailCell = 0.0;

    /** Rows in the modelled array. */
    std::uint32_t rows = 1024;

    /** Logical 64-bit words per row. */
    std::uint32_t wordsPerRow = 16;

    /** Interleave degree of the physical layout. */
    std::uint32_t degree = 4;
};

/**
 * A drawn fault map: the flattened physical-cell indices
 * (row * columns + column) that are faulty, in ascending order.
 */
struct FaultMap
{
    /** The configuration the map was drawn from. */
    FaultMapConfig config;

    /** Faulty cells as flattened indices, ascending. */
    std::vector<std::uint64_t> faultyCells;

    /** Total physical cells in the array. */
    std::uint64_t totalCells = 0;
};

/** Per-word SEC-DED outcome counts over one evaluated fault map. */
struct FaultMapStats
{
    /** Words decoded (rows * wordsPerRow). */
    std::uint64_t words = 0;

    /** Words with no faulty cell. */
    std::uint64_t cleanWords = 0;

    /** Words whose single faulty cell the code corrected. */
    std::uint64_t corrected = 0;

    /** Words flagged detected-uncorrectable (every 2-cell word, some
     *  with more). */
    std::uint64_t detectedUncorrectable = 0;

    /** Words that decoded Ok/Corrected but to WRONG data (3+ faulty
     *  cells aliasing) — silent data corruption. */
    std::uint64_t silentCorruptions = 0;

    /** Words lost despite ECC (detected-uncorrectable + silent). */
    std::uint64_t failedWords() const
    {
        return detectedUncorrectable + silentCorruptions;
    }

    /** Post-ECC word failure rate — the quantity the min-Vdd search
     *  thresholds. */
    double postEccFailureRate() const
    {
        return words == 0 ? 0.0
                          : static_cast<double>(failedWords()) /
                                static_cast<double>(words);
    }
};

/**
 * Draw the fault map for @p cfg: each of the rows * wordsPerRow * 72
 * physical cells fails independently with probability cfg.pfailCell.
 * The draw seed is derived from (runSeed, vdd, rows, wordsPerRow,
 * degree, cell) via splitmix64, so the same operating point always
 * yields the same map regardless of which sweep worker asks.
 */
FaultMap buildFaultMap(const FaultMapConfig &cfg);

/** SEC-DED outcome of a word whose stored codeword has faulty cells. */
enum class WordFault : std::uint8_t {
    /** The code corrected the error; the data reads back intact. */
    Corrected,
    /** The decode flagged detected-uncorrectable. */
    DetectedUncorrectable,
    /** The decode claimed success but returned wrong data. */
    SilentCorruption,
};

/**
 * Outcome of reading any word whose codeword had the non-zero error
 * pattern @p error flipped into it. SEC-DED(72,64) is linear, so the
 * outcome depends on the pattern alone, never on the stored data.
 */
WordFault classifyWordFault(const Codeword72 &error);

/**
 * Evaluate the fault map buildFaultMap(@p cfg) would draw through the
 * interleaved SEC-DED layout and count each word's outcome. The same
 * sampler streams the faulty cells row by row into per-word error
 * patterns, classified by classifyWordFault when their row ends: no
 * fault vector, fill data, encode or decode of stored words.
 */
FaultMapStats runFaultMapCampaign(const FaultMapConfig &cfg);

} // namespace c8t::sram

#endif // C8T_SRAM_FAULT_INJECTION_HH
