/**
 * @file
 * Design-space explorer implementation.
 */

#include "core/explorer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/policies.hh"
#include "core/stream_cache.hh"
#include "core/sweep.hh"
#include "core/vdd_sweep.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace c8t::core
{

namespace
{

/** Exact (round-trippable) double serialization for signatures and
 *  checkpoints. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Parse a hexfloat (or any strtod-accepted) token exactly. */
double
parseDoubleToken(const std::string &tok)
{
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0' || end == tok.c_str())
        throw std::runtime_error("explorer checkpoint: bad number \"" +
                                 tok + "\"");
    return v;
}

/** splitmix64 step (the shard-shuffle PRNG; no global RNG state). */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Decoded cross-product coordinates of one cell (workload-major so
 *  adjacent cells share the workload stream). */
struct CellCoord
{
    std::size_t workload = 0;
    std::size_t size = 0;
    std::size_t ways = 0;
    std::size_t block = 0;
    std::size_t repl = 0;
    std::size_t l2 = 0; ///< index into l2SizesKb; 0 when axis empty
};

CellCoord
decodeCell(const ExplorerSpec &spec, std::uint64_t index)
{
    CellCoord c;
    // The L2 axis is the innermost coordinate, so a single-level spec
    // (axis size 1 below) decodes exactly as it always did.
    const std::size_t n_l2 =
        std::max<std::size_t>(1, spec.l2SizesKb.size());
    c.l2 = index % n_l2;
    index /= n_l2;
    c.repl = index % spec.replacements.size();
    index /= spec.replacements.size();
    c.block = index % spec.blocks.size();
    index /= spec.blocks.size();
    c.ways = index % spec.ways.size();
    index /= spec.ways.size();
    c.size = index % spec.sizesKb.size();
    index /= spec.sizesKb.size();
    c.workload = index;
    return c;
}

mem::CacheConfig
cacheFor(const ExplorerSpec &spec, const CellCoord &c)
{
    mem::CacheConfig cache;
    cache.sizeBytes = mem::kibToBytes(spec.sizesKb[c.size], "sizes_kb");
    cache.ways = spec.ways[c.ways];
    cache.blockBytes = spec.blocks[c.block];
    cache.replacement = spec.replacements[c.repl];
    return cache;
}

/** The L2 level of a hierarchy cell (spec.l2SizesKb non-empty): axis
 *  capacity, 8 ways, the L1's block, the cell's replacement policy.
 *  Scheme/Vdd are stamped in per config-run. */
LevelConfig
lowerFor(const ExplorerSpec &spec, const CellCoord &c,
         const mem::CacheConfig &l1)
{
    LevelConfig l2;
    l2.cache.sizeBytes =
        mem::kibToBytes(spec.l2SizesKb[c.l2], "l2_sizes_kb");
    l2.cache.ways = 8;
    l2.cache.blockBytes = l1.blockBytes;
    l2.cache.replacement = l1.replacement;
    return l2;
}

/**
 * The voltage sweep one cell evaluates: its workload stream and cache
 * (in hierarchy mode behind a 6T L1 pinned at nominal, over its L2)
 * across the explore's schemes and @p grid.
 */
VddSweepSpec
sweepSpecFor(const ExplorerSpec &spec, const std::vector<double> &grid,
             const CellCoord &coord, const mem::CacheConfig &cache)
{
    const trace::StreamParams profile =
        trace::specProfile(spec.workloads[coord.workload]);
    VddSweepSpec vs;
    vs.makeGenerator = [profile]() {
        return std::make_unique<trace::MarkovStream>(profile);
    };
    vs.streamKey = trace::streamSignature(profile);
    vs.cache = cache;
    if (!spec.l2SizesKb.empty()) {
        vs.lowerLevels = {lowerFor(spec, coord, cache)};
        // Pinned here, not inherited from VddSweepSpec's defaults: the
        // checkpoints and signatures assume this L1.
        vs.topScheme = WriteScheme::SixTDirect;
        vs.topVdd = 0.0;
    }
    vs.schemes = spec.schemes;
    vs.grid = grid;
    vs.model = spec.model;
    vs.failureThreshold = spec.failureThreshold;
    vs.runSeed = spec.runSeed;
    vs.faultRows = spec.faultRows;
    return vs;
}

/**
 * Summarize one cell's curves into design points: min-Vdd from the
 * curve (0, i.e. not operational, when even the highest grid point
 * fails), the metrics at the min-Vdd point — at the highest grid point
 * when none is operational. Nominal-only mode has no fault dimension:
 * its single point is operational by definition.
 */
void
summarizeCell(const ExplorerSpec &spec, const CellCoord &coord,
              const mem::CacheConfig &cache,
              const std::vector<VddCurve> &curves,
              std::vector<DesignPointSummary> &out)
{
    for (const VddCurve &c : curves) {
        DesignPointSummary p;
        p.workload = spec.workloads[coord.workload];
        p.sizeBytes = cache.sizeBytes;
        p.ways = cache.ways;
        p.blockBytes = cache.blockBytes;
        p.l2SizeBytes = spec.l2SizesKb.empty()
                            ? 0
                            : lowerFor(spec, coord, cache).cache.sizeBytes;
        p.repl = cache.replacement;
        p.scheme = c.scheme;
        p.cell = c.cell;
        p.operational = c.minVdd > 0.0;
        p.minVdd = c.minVdd;
        if (spec.vddGrid.empty()) {
            p.operational = true;
            p.minVdd = c.points.front().vdd;
        }

        const VddPointResult *at = &c.points.front();
        for (const VddPointResult &pt : c.points) {
            if (pt.vdd == c.minVdd)
                at = &pt;
        }
        p.energyPerAccess = at->energyPerAccess;
        p.edpPerAccess = at->edpPerAccess;
        p.cyclesPerAccess = at->cyclesPerAccess;
        if (at->run.requests) {
            p.missRate = static_cast<double>(at->run.misses) /
                         static_cast<double>(at->run.requests);
        }
        out.push_back(std::move(p));
    }
}

std::string
shardPath(const std::string &dir, std::uint64_t shard)
{
    return dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

/** Serialize one shard's reduced summaries (atomic: tmp + rename). */
void
writeShardCheckpoint(const std::string &dir, std::uint64_t shard,
                     const std::string &signature, std::uint64_t first,
                     std::uint64_t count, std::uint64_t skipped,
                     const std::vector<DesignPointSummary> &points)
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    const std::string path = shardPath(dir, shard);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            throw std::runtime_error(
                "explorer: cannot write checkpoint \"" + tmp + "\"");
        os << "c8t-explore-shard 1\n";
        os << "sig " << signature << "\n";
        os << "shard " << shard << "\n";
        os << "cells " << first << " " << count << "\n";
        os << "skipped " << skipped << "\n";
        os << "points " << points.size() << "\n";
        for (const DesignPointSummary &p : points) {
            os << "p " << p.workload << " " << p.sizeBytes << " "
               << p.ways << " " << p.blockBytes << " "
               << mem::toString(p.repl) << " " << p.scheme << " "
               << (p.operational ? 1 : 0) << " " << hexDouble(p.minVdd)
               << " " << hexDouble(p.energyPerAccess) << " "
               << hexDouble(p.edpPerAccess) << " "
               << hexDouble(p.cyclesPerAccess) << " "
               << hexDouble(p.missRate);
            // Trailing optional field: hierarchy points carry their
            // L2 capacity; single-level lines stay byte-identical to
            // the historical format.
            if (p.l2SizeBytes)
                os << " " << p.l2SizeBytes;
            os << "\n";
        }
        os << "end\n";
        os.flush();
        if (!os)
            throw std::runtime_error(
                "explorer: short write to checkpoint \"" + tmp + "\"");
    }
    std::filesystem::rename(tmp, path);
}

/** Load one shard checkpoint; returns the skipped-cell count and
 *  appends the points to @p out. */
std::uint64_t
loadShardCheckpoint(const std::string &path,
                    const std::string &signature, std::uint64_t shard,
                    std::uint64_t first, std::uint64_t count,
                    std::vector<DesignPointSummary> &out)
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("explorer: cannot read checkpoint \"" +
                                 path + "\"");
    const auto fail = [&](const std::string &what) -> std::runtime_error {
        return std::runtime_error("explorer: malformed checkpoint \"" +
                                  path + "\": " + what);
    };
    std::string line;
    if (!std::getline(is, line) || line != "c8t-explore-shard 1")
        throw fail("bad magic");
    if (!std::getline(is, line) || line.rfind("sig ", 0) != 0)
        throw fail("missing signature");
    if (line.substr(4) != signature) {
        throw std::invalid_argument(
            "explorer: checkpoint \"" + path +
            "\" was written by a different spec/run window; use a "
            "fresh --checkpoint-dir");
    }
    const auto parseHeader = [&](const char *keyword,
                                 std::size_t n_fields,
                                 std::uint64_t *a, std::uint64_t *b) {
        if (!std::getline(is, line))
            throw fail(std::string("missing ") + keyword + " line");
        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag >> *a) || tag != keyword ||
            (n_fields == 2 && !(ls >> *b)))
            throw fail(std::string("bad ") + keyword + " line");
    };
    std::uint64_t f_shard = 0, f_first = 0, f_count = 0, skipped = 0,
                  n_points = 0, unused = 0;
    parseHeader("shard", 1, &f_shard, &unused);
    if (f_shard != shard)
        throw fail("shard index mismatch");
    parseHeader("cells", 2, &f_first, &f_count);
    if (f_first != first || f_count != count)
        throw fail("cell range mismatch");
    parseHeader("skipped", 1, &skipped, &unused);
    parseHeader("points", 1, &n_points, &unused);
    for (std::uint64_t i = 0; i < n_points; ++i) {
        if (!std::getline(is, line))
            throw fail("truncated point list");
        std::istringstream ls(line);
        std::string tag, repl_name, op_tok, min_vdd, energy, edp, cycles,
            miss;
        DesignPointSummary p;
        if (!(ls >> tag >> p.workload >> p.sizeBytes >> p.ways >>
              p.blockBytes >> repl_name >> p.scheme >> op_tok >>
              min_vdd >> energy >> edp >> cycles >> miss) ||
            tag != "p")
            throw fail("bad point line");
        p.repl = mem::parseReplKind(repl_name);
        const WriteScheme scheme = parseWriteScheme(p.scheme);
        p.cell = schemeTraits(scheme).requiresEightT
                     ? sram::CellType::EightT
                     : sram::CellType::SixT;
        p.operational = op_tok == "1";
        p.minVdd = parseDoubleToken(min_vdd);
        p.energyPerAccess = parseDoubleToken(energy);
        p.edpPerAccess = parseDoubleToken(edp);
        p.cyclesPerAccess = parseDoubleToken(cycles);
        p.missRate = parseDoubleToken(miss);
        std::uint64_t l2_bytes = 0;
        if (ls >> l2_bytes)
            p.l2SizeBytes = l2_bytes;
        out.push_back(std::move(p));
    }
    if (!std::getline(is, line) || line != "end")
        throw fail("missing end marker");
    return skipped;
}

} // anonymous namespace

void
ExplorerSpec::validate() const
{
    if (workloads.empty())
        throw std::invalid_argument("ExplorerSpec: no workloads");
    for (const std::string &w : workloads) {
        try {
            trace::specProfile(w);
        } catch (const std::out_of_range &) {
            throw std::invalid_argument(
                "ExplorerSpec: unknown workload \"" + w + "\"");
        }
    }
    if (sizesKb.empty())
        throw std::invalid_argument("ExplorerSpec: no cache sizes");
    // Capacities that overflow in bytes fail here, before any shard
    // runs, rather than mid-explore in cacheFor/lowerFor.
    for (const std::uint64_t kb : sizesKb)
        mem::kibToBytes(kb, "ExplorerSpec: sizes_kb");
    if (ways.empty())
        throw std::invalid_argument("ExplorerSpec: no associativities");
    if (blocks.empty())
        throw std::invalid_argument("ExplorerSpec: no block sizes");
    if (replacements.empty())
        throw std::invalid_argument(
            "ExplorerSpec: no replacement policies");
    if (schemes.empty())
        throw std::invalid_argument("ExplorerSpec: no schemes");
    for (const std::uint64_t kb : l2SizesKb) {
        if (kb == 0)
            throw std::invalid_argument(
                "ExplorerSpec: L2 sizes must be > 0");
        mem::kibToBytes(kb, "ExplorerSpec: l2_sizes_kb");
    }
    for (std::size_t i = 1; i < vddGrid.size(); ++i) {
        if (!(vddGrid[i] < vddGrid[i - 1]))
            throw std::invalid_argument(
                "ExplorerSpec: grid must be strictly descending");
    }
    if (!vddGrid.empty() && vddGrid.back() <= 0.0)
        throw std::invalid_argument(
            "ExplorerSpec: grid voltages must be > 0");
    if (faultRows == 0)
        throw std::invalid_argument(
            "ExplorerSpec: faultRows must be >= 1");
    if (cellsPerShard == 0)
        throw std::invalid_argument(
            "ExplorerSpec: cellsPerShard must be >= 1");
    model.validate();
}

std::uint64_t
ExplorerSpec::cellCount() const
{
    return static_cast<std::uint64_t>(workloads.size()) * sizesKb.size() *
           ways.size() * blocks.size() * replacements.size() *
           std::max<std::size_t>(1, l2SizesKb.size());
}

std::uint64_t
ExplorerSpec::runsPerCell() const
{
    return static_cast<std::uint64_t>(schemes.size()) *
           std::max<std::size_t>(1, vddGrid.size());
}

std::uint64_t
ExplorerSpec::configRunCount() const
{
    return cellCount() * runsPerCell();
}

std::uint64_t
ExplorerSpec::shardCount() const
{
    return (cellCount() + cellsPerShard - 1) / cellsPerShard;
}

std::string
ExplorerSpec::signature(const RunConfig &rc) const
{
    std::ostringstream os;
    os << "c8t-explore-sig 1";
    os << "; workloads";
    for (const std::string &w : workloads)
        os << " " << w;
    os << "; sizes_kb";
    for (const std::uint64_t v : sizesKb)
        os << " " << v;
    os << "; ways";
    for (const std::uint32_t v : ways)
        os << " " << v;
    os << "; blocks";
    for (const std::uint32_t v : blocks)
        os << " " << v;
    os << "; repl";
    for (const mem::ReplKind r : replacements)
        os << " " << mem::toString(r);
    os << "; schemes";
    for (const WriteScheme s : schemes)
        os << " " << toString(s);
    // Appended only when the axis is in use, so every historical
    // single-level signature (and its checkpoints) stays valid.
    if (!l2SizesKb.empty()) {
        os << "; l2_sizes_kb";
        for (const std::uint64_t v : l2SizesKb)
            os << " " << v;
    }
    os << "; grid";
    for (const double v : vddGrid)
        os << " " << hexDouble(v);
    os << "; model " << hexDouble(model.nominalVdd) << " "
       << hexDouble(model.alpha) << " " << hexDouble(model.leakDecayV)
       << " " << hexDouble(model.clockGhz) << " "
       << hexDouble(model.stability.vth) << " "
       << hexDouble(model.stability.kHold) << " "
       << hexDouble(model.stability.kRead6T) << " "
       << hexDouble(model.stability.kWrite) << " "
       << hexDouble(model.stability.sigmaVth);
    os << "; threshold " << hexDouble(failureThreshold);
    os << "; seed " << runSeed;
    os << "; fault_rows " << faultRows;
    os << "; cells_per_shard " << cellsPerShard;
    os << "; window " << rc.warmupAccesses << " " << rc.measureAccesses;
    return os.str();
}

/** Deferred bench-record state, armed by runExplore. */
struct ExploreResult::Pending
{
    RunConfig rc;
    unsigned workers = 0;
    obs::PhaseWindow phases;
};

ExploreResult::ExploreResult() = default;
ExploreResult::ExploreResult(ExploreResult &&) noexcept = default;
ExploreResult &
ExploreResult::operator=(ExploreResult &&) noexcept = default;

ExploreResult::~ExploreResult()
{
    emitBenchRecord();
}

std::vector<const DesignPointSummary *>
ExploreResult::frontier(const std::string &workload) const
{
    std::vector<const DesignPointSummary *> out;
    for (const DesignPointSummary &p : summaries) {
        if (p.onFrontier && p.workload == workload)
            out.push_back(&p);
    }
    return out;
}

void
ExploreResult::dumpJson(std::ostream &os) const
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    os << "{\"schema_version\":" << stats::Registry::kJsonSchemaVersion
       << ",\"kind\":\"explore\""
       << ",\"label\":\"" << stats::jsonEscape(label) << "\""
       << ",\"workloads\":[";
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        os << (i ? "," : "") << '"' << stats::jsonEscape(workloads[i])
           << '"';
    }
    os << "],\"vdd_grid\":[";
    for (std::size_t i = 0; i < vddGrid.size(); ++i) {
        os << (i ? "," : "");
        stats::jsonNumber(os, vddGrid[i]);
    }
    os << "],\"failure_threshold\":";
    stats::jsonNumber(os, failureThreshold);
    os << ",\"cells\":" << cellsTotal
       << ",\"cells_skipped\":" << cellsSkipped
       << ",\"config_runs\":" << configRunsTotal
       << ",\"completed\":" << (completed ? "true" : "false")
       << ",\"frontiers\":[";
    // An incomplete explore has no frontier to speak of (dominance
    // over a partial point set would be misleading) — emit the spec
    // echo and accounting only.
    bool first_workload = true;
    if (completed) {
        for (const std::string &w : workloads) {
            std::uint64_t n_points = 0, n_operational = 0;
            for (const DesignPointSummary &p : summaries) {
                if (p.workload != w)
                    continue;
                ++n_points;
                if (p.operational)
                    ++n_operational;
            }
            os << (first_workload ? "" : ",") << "{\"workload\":\""
               << stats::jsonEscape(w) << "\""
               << ",\"points\":" << n_points
               << ",\"operational\":" << n_operational
               << ",\"frontier\":[";
            bool first_point = true;
            for (const DesignPointSummary &p : summaries) {
                if (!p.onFrontier || p.workload != w)
                    continue;
                os << (first_point ? "" : ",") << "{\"size_kb\":"
                   << p.sizeBytes / 1024 << ",\"ways\":" << p.ways
                   << ",\"block\":" << p.blockBytes;
                // Gated key: absent for single-level documents.
                if (p.l2SizeBytes)
                    os << ",\"l2_kb\":" << p.l2SizeBytes / 1024;
                os << ",\"repl\":\""
                   << mem::toString(p.repl) << "\",\"scheme\":\""
                   << stats::jsonEscape(p.scheme) << "\",\"cell\":\""
                   << sram::toString(p.cell) << "\",\"min_vdd\":";
                stats::jsonNumber(os, p.minVdd);
                os << ",\"energy_per_access\":";
                stats::jsonNumber(os, p.energyPerAccess);
                os << ",\"edp_per_access\":";
                stats::jsonNumber(os, p.edpPerAccess);
                os << ",\"cycles_per_access\":";
                stats::jsonNumber(os, p.cyclesPerAccess);
                os << ",\"miss_rate\":";
                stats::jsonNumber(os, p.missRate);
                os << '}';
                first_point = false;
            }
            os << "]}";
            first_workload = false;
        }
    }
    os << "]}";
}

void
ExploreResult::emitBenchRecord()
{
    if (!_pending)
        return;
    const std::unique_ptr<Pending> p = std::move(_pending);
    const obs::prof::PhaseTimes phases = p->phases.close();
    obs::appendBenchRecord("explorer", [&](std::ostream &os) {
        const double simulated =
            static_cast<double>(configRunsExecuted) *
            static_cast<double>(p->rc.warmupAccesses +
                                p->rc.measureAccesses);
        os << "\"kind\":\"explore\",\"label\":\""
           << stats::jsonEscape(label) << "\""
           << ",\"workers\":" << p->workers
           << ",\"cells\":" << cellsTotal
           << ",\"cells_skipped\":" << cellsSkipped
           << ",\"shards\":" << shardsTotal
           << ",\"shards_executed\":" << shardsExecuted
           << ",\"shards_resumed\":" << shardsResumed
           << ",\"config_runs\":" << configRunsExecuted
           << ",\"config_runs_total\":" << configRunsTotal
           << ",\"warmup_accesses\":" << p->rc.warmupAccesses
           << ",\"measure_accesses\":" << p->rc.measureAccesses
           << ",\"simulated_accesses\":"
           << static_cast<std::uint64_t>(simulated)
           << ",\"wall_seconds\":" << wallSeconds
           << ",\"accesses_per_sec\":"
           << (wallSeconds > 0.0 ? simulated / wallSeconds : 0.0)
           << ",\"config_runs_per_sec\":";
        stats::jsonNumber(os, configRunsPerSec);
        os << ",\"stream_cache_hit_rate\":";
        stats::jsonNumber(os, streamCacheHitRate);
        os << ",\"completed\":" << (completed ? "true" : "false");
    }, p->phases.active() ? &phases : nullptr);
    obs::writeGlobalMetrics();
}

ExploreResult
runExplore(const ExplorerSpec &spec, const RunConfig &rc, unsigned workers)
{
    spec.validate();
    const auto t0 = std::chrono::steady_clock::now();
    const obs::PhaseWindow phases = obs::PhaseWindow::open();

    const bool hier_mode = !spec.l2SizesKb.empty();
    // Nominal-only mode is a one-point grid at the nominal supply,
    // where the controller detaches the voltage model.
    const std::vector<double> grid =
        spec.vddGrid.empty() ? std::vector<double>{spec.model.nominalVdd}
                             : spec.vddGrid;

    const StreamCache::Stats cache_before = globalStreamCache().stats();

    ExploreResult result;
    result.label = spec.label;
    result.workloads = spec.workloads;
    result.vddGrid = spec.vddGrid;
    result.failureThreshold = spec.failureThreshold;
    result.cellsTotal = spec.cellCount();
    result.configRunsTotal = spec.configRunCount();
    result.shardsTotal = spec.shardCount();

    const bool ckpt_on = !spec.checkpointDir.empty();
    std::string sig;
    if (ckpt_on) {
        std::filesystem::create_directories(spec.checkpointDir);
        sig = spec.signature(rc);
    }

    // Shard execution order: identity, or a seeded Fisher-Yates
    // shuffle. Results are order-invariant (summaries are sorted
    // canonically below); the shuffle exists so tests can prove it.
    std::vector<std::uint64_t> order(result.shardsTotal);
    std::iota(order.begin(), order.end(), 0);
    if (spec.shuffleShards && order.size() > 1) {
        std::uint64_t state = spec.shuffleSeed;
        for (std::size_t i = order.size() - 1; i > 0; --i) {
            const std::size_t j = static_cast<std::size_t>(
                splitmix64(state) % (i + 1));
            std::swap(order[i], order[j]);
        }
    }

    ParallelSweeper sweeper(workers);
    sweeper.setProgress(false); // the explorer heartbeats per shard
    sweeper.setRecordBench(false); // one umbrella record, not per shard

    const bool progress_on =
        spec.progress || ParallelSweeper::defaultProgress();
    auto last_beat = t0;
    std::uint64_t shards_accounted = 0;
    std::uint64_t cells_accounted = 0;

    const auto heartbeat = [&](bool final_beat) {
        if (!progress_on)
            return;
        const auto now = std::chrono::steady_clock::now();
        if (!final_beat &&
            std::chrono::duration<double>(now - last_beat).count() < 0.5)
            return;
        last_beat = now;
        const double elapsed =
            std::chrono::duration<double>(now - t0).count();
        const std::uint64_t runs_done =
            cells_accounted * spec.runsPerCell();
        const double exec_rate =
            elapsed > 0.0
                ? static_cast<double>(result.configRunsExecuted) / elapsed
                : 0.0;
        const std::uint64_t runs_left =
            result.configRunsTotal > runs_done
                ? result.configRunsTotal - runs_done
                : 0;
        const double eta = exec_rate > 0.0
                               ? static_cast<double>(runs_left) /
                                     exec_rate
                               : 0.0;
        const StreamCache::Stats cs = globalStreamCache().stats();
        const std::uint64_t d_hits = cs.hits - cache_before.hits;
        const std::uint64_t d_lookups =
            d_hits + (cs.misses - cache_before.misses);
        std::fprintf(
            stderr,
            "\r[%s] shards %llu/%llu · config-runs %llu/%llu · "
            "%.1f runs/s · ETA %.0fs · cache-hit %.0f%%%s",
            spec.label.c_str(),
            static_cast<unsigned long long>(shards_accounted),
            static_cast<unsigned long long>(result.shardsTotal),
            static_cast<unsigned long long>(runs_done),
            static_cast<unsigned long long>(result.configRunsTotal),
            exec_rate, eta,
            d_lookups ? 100.0 * static_cast<double>(d_hits) /
                            static_cast<double>(d_lookups)
                      : 0.0,
            final_beat ? "\n" : "");
        std::fflush(stderr);
    };

    for (const std::uint64_t shard : order) {
        const std::uint64_t first = shard * spec.cellsPerShard;
        const std::uint64_t count = std::min<std::uint64_t>(
            spec.cellsPerShard, result.cellsTotal - first);
        const std::string path =
            ckpt_on ? shardPath(spec.checkpointDir, shard)
                    : std::string();

        if (ckpt_on && std::filesystem::exists(path)) {
            result.cellsSkipped += loadShardCheckpoint(
                path, sig, shard, first, count, result.summaries);
            ++result.shardsResumed;
            ++shards_accounted;
            cells_accounted += count;
        } else if (!spec.maxShards ||
                   result.shardsExecuted < spec.maxShards) {
            const auto shard_t0 = std::chrono::steady_clock::now();

            // Each valid cell is a Vdd sweep over the grid: its
            // timing-class jobs join the shard's one sweeper run, and
            // its curves reduce to one design point per scheme.
            // Invalid geometries (e.g. a set smaller than one block)
            // are skipped — the verdict depends only on the spec, so
            // it is identical on every run/resume.
            std::vector<SweepJob> jobs;
            std::vector<std::pair<CellCoord, mem::CacheConfig>> valid;
            std::vector<std::unique_ptr<VddSweepBatch>> batches;
            std::uint64_t skipped = 0;
            for (std::uint64_t ci = first; ci < first + count; ++ci) {
                const CellCoord coord = decodeCell(spec, ci);
                const mem::CacheConfig cache = cacheFor(spec, coord);
                try {
                    cache.validate();
                    if (hier_mode) {
                        // An L2 that cannot hold the L1 breaks
                        // inclusion — skipped like any other invalid
                        // geometry, deterministically from the spec.
                        const LevelConfig l2 =
                            lowerFor(spec, coord, cache);
                        l2.cache.validate();
                        if (l2.cache.sizeBytes < cache.sizeBytes)
                            throw std::invalid_argument(
                                "L2 smaller than L1");
                    }
                } catch (const std::invalid_argument &) {
                    ++skipped;
                    continue;
                }
                batches.push_back(std::make_unique<VddSweepBatch>(
                    sweepSpecFor(spec, grid, coord, cache),
                    spec.workloads[coord.workload]));
                batches.back()->appendJobs(jobs);
                valid.emplace_back(coord, cache);
            }

            std::vector<DesignPointSummary> shard_points;
            if (!jobs.empty()) {
                sweeper.run(jobs, rc,
                            spec.label + ":shard" + std::to_string(shard));
                shard_points.reserve(valid.size() *
                                     spec.schemes.size());
                for (std::size_t vi = 0; vi < valid.size(); ++vi) {
                    summarizeCell(spec, valid[vi].first, valid[vi].second,
                                  batches[vi]->takeCurves(), shard_points);
                }
            }

            if (ckpt_on) {
                writeShardCheckpoint(spec.checkpointDir, shard, sig,
                                     first, count, skipped,
                                     shard_points);
            }
            result.summaries.insert(
                result.summaries.end(),
                std::make_move_iterator(shard_points.begin()),
                std::make_move_iterator(shard_points.end()));
            result.cellsSkipped += skipped;
            result.configRunsExecuted +=
                (count - skipped) * spec.runsPerCell();
            ++result.shardsExecuted;
            ++shards_accounted;
            cells_accounted += count;

            const auto shard_t1 = std::chrono::steady_clock::now();
            obs::globalMetrics().recordShardWallNs(
                static_cast<std::uint64_t>(
                    std::chrono::duration<double, std::nano>(shard_t1 -
                                                             shard_t0)
                        .count()));
        } else {
            // Shard budget exhausted and this shard has no checkpoint:
            // leave it for the next run.
            continue;
        }

        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        obs::Metrics::ExplorerSnapshot snap;
        snap.shardsDone = shards_accounted;
        snap.shardsTotal = result.shardsTotal;
        snap.configRunsDone = cells_accounted * spec.runsPerCell();
        snap.configRunsTotal = result.configRunsTotal;
        snap.configRunsPerSec =
            elapsed > 0.0
                ? static_cast<double>(result.configRunsExecuted) /
                      elapsed
                : 0.0;
        snap.etaSeconds =
            snap.configRunsPerSec > 0.0
                ? static_cast<double>(snap.configRunsTotal -
                                      snap.configRunsDone) /
                      snap.configRunsPerSec
                : 0.0;
        obs::globalMetrics().noteExplorer(snap);
        heartbeat(false);
    }

    result.completed = shards_accounted == result.shardsTotal;

    // Canonical order: spec axes cannot leak execution order into the
    // result document.
    std::sort(result.summaries.begin(), result.summaries.end(),
              [](const DesignPointSummary &a,
                 const DesignPointSummary &b) {
                  return std::tie(a.workload, a.sizeBytes, a.ways,
                                  a.blockBytes, a.repl, a.l2SizeBytes,
                                  a.scheme) <
                         std::tie(b.workload, b.sizeBytes, b.ways,
                                  b.blockBytes, b.repl, b.l2SizeBytes,
                                  b.scheme);
              });

    // Pareto frontier per workload over the operational points:
    // minimize (energy/access, EDP/access, min-Vdd). A point is
    // dominated when another is no worse on all three and strictly
    // better on one; exact ties survive together.
    if (result.completed) {
        for (const std::string &w : spec.workloads) {
            std::vector<DesignPointSummary *> pts;
            for (DesignPointSummary &p : result.summaries) {
                if (p.workload == w && p.operational)
                    pts.push_back(&p);
            }
            for (DesignPointSummary *p : pts) {
                bool dominated = false;
                for (const DesignPointSummary *q : pts) {
                    if (q == p)
                        continue;
                    const bool no_worse =
                        q->energyPerAccess <= p->energyPerAccess &&
                        q->edpPerAccess <= p->edpPerAccess &&
                        q->minVdd <= p->minVdd;
                    const bool better =
                        q->energyPerAccess < p->energyPerAccess ||
                        q->edpPerAccess < p->edpPerAccess ||
                        q->minVdd < p->minVdd;
                    if (no_worse && better) {
                        dominated = true;
                        break;
                    }
                }
                p->onFrontier = !dominated;
            }
        }
    }

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    result.wallSeconds = wall;
    result.configRunsPerSec =
        wall > 0.0 ? static_cast<double>(result.configRunsExecuted) / wall
                   : 0.0;
    const StreamCache::Stats cache_after = globalStreamCache().stats();
    const std::uint64_t d_hits = cache_after.hits - cache_before.hits;
    const std::uint64_t d_lookups =
        d_hits + (cache_after.misses - cache_before.misses);
    result.streamCacheHitRate =
        d_lookups ? static_cast<double>(d_hits) /
                        static_cast<double>(d_lookups)
                  : 0.0;
    heartbeat(true);

    result._pending = std::make_unique<ExploreResult::Pending>();
    result._pending->rc = rc;
    result._pending->workers = sweeper.workers();
    result._pending->phases = phases;
    return result;
}

} // namespace c8t::core
