/**
 * @file
 * Process-wide memoization of Monte-Carlo fault-map campaigns.
 *
 * A fault map's outcome is a pure function of its FaultMapConfig
 * (seed, voltage, cell, per-cell failure rate, geometry): the draws
 * are splitmix64-seeded from exactly those fields. Every voltage
 * sweep and explore evaluating the same operating point therefore
 * recomputes a known answer. Historically each runVddSweep /
 * runExplore call kept its own per-call memo; this cache hoists that
 * memo to process scope so campaigns are shared *across* requests —
 * the c8td daemon's whole reason to exist (DESIGN.md §13): a warm
 * daemon serves repeat operating points without re-running a single
 * Monte-Carlo draw.
 *
 * Correctness: the key serializes every FaultMapConfig field (doubles
 * as hexfloat, exactly), so a hit can only ever return the stats the
 * campaign itself would have produced — results are byte-identical
 * with the cache on, off, or shared between any number of requests.
 *
 * The cache stores reduced FaultMapStats (5 counters), not the maps
 * themselves, so its footprint is negligible and unbounded growth is
 * a non-issue (entries() is exported as a gauge regardless).
 */

#ifndef C8T_CORE_FAULT_CACHE_HH
#define C8T_CORE_FAULT_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "sram/fault_injection.hh"

namespace c8t::core
{

/** Process-wide fault-map campaign memo. */
class FaultMapCache
{
  public:
    /** Observable behaviour (metrics, tests). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t entries = 0;
    };

    /**
     * The stats of the campaign described by @p cfg: served from the
     * memo when an identical config was evaluated before (by anyone,
     * in any request), run via sram::runFaultMapCampaign otherwise.
     * Each key is filled once: concurrent first requests for it wait
     * on the first caller's campaign and count as hits, while
     * requests for other keys proceed in parallel.
     */
    sram::FaultMapStats evaluate(const sram::FaultMapConfig &cfg);

    /** Counter snapshot. */
    Stats stats() const;

    /** Drop every entry (tests; counters keep accumulating). */
    void clear();

    /** Exact serialization of @p cfg (the memo key). */
    static std::string key(const sram::FaultMapConfig &cfg);

  private:
    /** One key's slot; fillMutex is held while its campaign runs. */
    struct Entry
    {
        std::mutex fillMutex;
        bool filled = false;
        sram::FaultMapStats stats;
    };

    mutable std::mutex _mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> _entries;
    Stats _stats;
};

/** The process-global fault-map cache every sweep shares. */
FaultMapCache &globalFaultMapCache();

} // namespace c8t::core

#endif // C8T_CORE_FAULT_CACHE_HH
