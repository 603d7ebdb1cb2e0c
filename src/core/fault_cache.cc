/**
 * @file
 * Fault-map campaign memo implementation.
 */

#include "core/fault_cache.hh"

#include <cstdio>

#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace c8t::core
{

namespace
{

/** Mirror the counters into the obs push-model registry. */
void
publish(const FaultMapCache::Stats &s)
{
    obs::Metrics::FaultCacheStats out;
    out.hits = s.hits;
    out.misses = s.misses;
    out.entries = s.entries;
    obs::globalMetrics().setFaultCache(out);
}

} // anonymous namespace

std::string
FaultMapCache::key(const sram::FaultMapConfig &cfg)
{
    // Hexfloat for the doubles: two configs compare equal exactly when
    // every generation-relevant bit matches.
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%llu|%a|%d|%a|%u|%u|%u",
                  static_cast<unsigned long long>(cfg.runSeed), cfg.vdd,
                  static_cast<int>(cfg.cell), cfg.pfailCell, cfg.rows,
                  cfg.wordsPerRow, cfg.degree);
    return buf;
}

sram::FaultMapStats
FaultMapCache::evaluate(const sram::FaultMapConfig &cfg)
{
    std::shared_ptr<Entry> entry;
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        auto &slot = _entries[key(cfg)];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }

    // Per-entry lock: the first caller runs the campaign, later callers
    // for the same key block here until its result is stored.
    const std::lock_guard<std::mutex> fill(entry->fillMutex);
    const bool hit = entry->filled;
    if (!hit) {
        const obs::prof::ScopedPhase fault_scope(
            obs::prof::Phase::FaultMap);
        entry->stats = sram::runFaultMapCampaign(cfg);
        entry->filled = true;
    }
    const std::lock_guard<std::mutex> lock(_mutex);
    if (hit) {
        ++_stats.hits;
    } else {
        ++_stats.misses;
        ++_stats.entries;
    }
    publish(_stats);
    return entry->stats;
}

FaultMapCache::Stats
FaultMapCache::stats() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

void
FaultMapCache::clear()
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
    _stats.entries = 0;
}

FaultMapCache &
globalFaultMapCache()
{
    // Leaked on purpose, like the other process-wide registries:
    // daemon worker threads may consult it arbitrarily late.
    static FaultMapCache *cache = new FaultMapCache;
    return *cache;
}

} // namespace c8t::core
