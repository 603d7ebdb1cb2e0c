/**
 * @file
 * Tests for the design-space explorer (core/explorer.hh).
 *
 * The contracts pinned here:
 *   - determinism: the result document is byte-identical for any
 *     worker count and any shard execution order;
 *   - resumability: an interrupted explore (shard budget) resumed
 *     from its checkpoint directory reproduces the byte-identical
 *     document of an uninterrupted run, and re-running over a
 *     complete directory re-executes nothing;
 *   - safety: checkpoints from a different spec are rejected;
 *   - dedup: the workload-major expansion keeps the stream-cache hit
 *     rate high;
 *   - agreement: every design point is, bit for bit, the min-Vdd
 *     summary of a runVddSweep over that cell, and a cell replays
 *     once per timing class of the grid.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "core/vdd_sweep.hh"
#include "obs/metrics.hh"
#include "sram/vmodel.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;
using core::DesignPointSummary;
using core::ExploreResult;
using core::ExplorerSpec;
using core::RunConfig;
using core::VddSweepSpec;
using core::WriteScheme;

RunConfig
testWindow()
{
    RunConfig rc;
    rc.warmupAccesses = 500;
    rc.measureAccesses = 3'000;
    return rc;
}

/** 8 cells (2 workloads × 2 sizes × 2 ways), 2 schemes × 2 grid
 *  points = 32 config-runs; 3 cells/shard makes the last shard
 *  ragged. */
ExplorerSpec
testSpec()
{
    ExplorerSpec spec;
    spec.label = "explorer_test";
    spec.workloads = {"gcc", "mcf"};
    spec.sizesKb = {16, 32};
    spec.ways = {2, 4};
    spec.blocks = {32};
    spec.replacements = {mem::ReplKind::Lru};
    spec.schemes = {WriteScheme::Rmw,
                    WriteScheme::WriteGroupingReadBypass};
    spec.vddGrid = {1.0, 0.8};
    spec.cellsPerShard = 3;
    spec.faultRows = 128;
    return spec;
}

std::string
dump(const ExploreResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

/** RAII temp checkpoint directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/c8t_explorer_test_XXXXXX";
        path = mkdtemp(tmpl);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(Explorer, SpecValidation)
{
    EXPECT_NO_THROW(testSpec().validate());

    ExplorerSpec no_workloads = testSpec();
    no_workloads.workloads.clear();
    EXPECT_THROW(no_workloads.validate(), std::invalid_argument);

    ExplorerSpec unknown = testSpec();
    unknown.workloads.push_back("no_such_profile");
    EXPECT_THROW(unknown.validate(), std::invalid_argument);

    ExplorerSpec ascending = testSpec();
    ascending.vddGrid = {0.8, 1.0};
    EXPECT_THROW(ascending.validate(), std::invalid_argument);

    ExplorerSpec zero_shard = testSpec();
    zero_shard.cellsPerShard = 0;
    EXPECT_THROW(zero_shard.validate(), std::invalid_argument);

    EXPECT_EQ(testSpec().cellCount(), 8u);
    EXPECT_EQ(testSpec().runsPerCell(), 4u);
    EXPECT_EQ(testSpec().configRunCount(), 32u);
    EXPECT_EQ(testSpec().shardCount(), 3u);
}

TEST(Explorer, ResultIsWorkerCountAndShardOrderInvariant)
{
    const ExploreResult base = runExplore(testSpec(), testWindow(), 1);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.cellsTotal, 8u);
    EXPECT_EQ(base.cellsSkipped, 0u);
    EXPECT_EQ(base.shardsExecuted, 3u);
    EXPECT_EQ(base.configRunsExecuted, 32u);
    const std::string expect = dump(base);

    for (unsigned workers : {2u, 8u}) {
        const ExploreResult r =
            runExplore(testSpec(), testWindow(), workers);
        EXPECT_EQ(dump(r), expect) << workers << " workers";
    }

    ExplorerSpec shuffled = testSpec();
    shuffled.shuffleShards = true;
    shuffled.shuffleSeed = 99;
    const ExploreResult r = runExplore(shuffled, testWindow(), 2);
    EXPECT_EQ(dump(r), expect);
}

TEST(Explorer, InterruptAndResumeIsByteIdentical)
{
    const std::string expect =
        dump(runExplore(testSpec(), testWindow(), 2));

    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;

    // "Kill" after one shard: the budget runs out with work left.
    ExplorerSpec interrupted = spec;
    interrupted.maxShards = 1;
    {
        const ExploreResult r =
            runExplore(interrupted, testWindow(), 2);
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.shardsExecuted, 1u);
        EXPECT_EQ(r.shardsResumed, 0u);
        // The incomplete document is a stub without frontiers.
        EXPECT_NE(dump(r).find("\"completed\":false"),
                  std::string::npos);
        EXPECT_NE(dump(r).find("\"frontiers\":[]"), std::string::npos);
    }

    // Resume: the completed shard is loaded, the rest executed; the
    // document is byte-identical to the uninterrupted run's. Resume
    // under a different worker count and a shuffled order to stack
    // the invariances.
    ExplorerSpec resumed = spec;
    resumed.shuffleShards = true;
    resumed.shuffleSeed = 7;
    {
        const ExploreResult r = runExplore(resumed, testWindow(), 1);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.shardsResumed, 1u);
        EXPECT_EQ(r.shardsExecuted, 2u);
        EXPECT_EQ(dump(r), expect);
    }

    // Re-run over the now-complete directory: nothing executes.
    {
        const ExploreResult r = runExplore(spec, testWindow(), 2);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.shardsResumed, 3u);
        EXPECT_EQ(r.shardsExecuted, 0u);
        EXPECT_EQ(r.configRunsExecuted, 0u);
        EXPECT_EQ(dump(r), expect);
    }
}

TEST(Explorer, CheckpointFromDifferentSpecIsRejected)
{
    TempDir dir;
    ExplorerSpec spec = testSpec();
    spec.checkpointDir = dir.path;
    { runExplore(spec, testWindow(), 2); }

    // A different grid changes the signature.
    ExplorerSpec other = spec;
    other.vddGrid = {1.0, 0.9};
    EXPECT_THROW(runExplore(other, testWindow(), 2),
                 std::invalid_argument);

    // So does a different run window.
    RunConfig longer = testWindow();
    longer.measureAccesses *= 2;
    EXPECT_THROW(runExplore(spec, longer, 2), std::invalid_argument);
}

TEST(Explorer, StreamCacheDedupKeepsHitRateHigh)
{
    // 4 geometries × 2 grid points per workload = 8 acquires of the
    // same stream: 1 miss + 7 hits → 87.5 % (the acceptance bar is
    // > 50 % on a dedup-friendly grid).
    const ExploreResult r = runExplore(testSpec(), testWindow(), 1);
    EXPECT_GT(r.streamCacheHitRate, 0.5);
}

TEST(Explorer, InvalidGeometriesAreSkippedDeterministically)
{
    ExplorerSpec spec = testSpec();
    // A 16 KiB cache cannot be 512-way × 32 B (sets would vanish);
    // those cells must be skipped, not fail the explore.
    spec.ways = {2, 512};
    const ExploreResult a = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.cellsSkipped, 0u);
    EXPECT_LT(a.cellsSkipped, a.cellsTotal);
    EXPECT_EQ(a.summaries.size(),
              (a.cellsTotal - a.cellsSkipped) * spec.schemes.size());
    const ExploreResult b = runExplore(spec, testWindow(), 1);
    EXPECT_EQ(dump(a), dump(b));
}

TEST(Explorer, NominalOnlyGridRunsDetached)
{
    ExplorerSpec spec = testSpec();
    spec.vddGrid.clear(); // nominal-only
    const ExploreResult r = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.configRunsExecuted, 16u); // one grid point, 2 schemes
    for (const DesignPointSummary &p : r.summaries) {
        EXPECT_TRUE(p.operational);
        EXPECT_EQ(p.minVdd, spec.model.nominalVdd);
        EXPECT_GT(p.energyPerAccess, 0.0);
        EXPECT_GT(p.cyclesPerAccess, 0.0);
    }
}

TEST(Explorer, FrontierIsTheNonDominatedSet)
{
    const ExploreResult r = runExplore(testSpec(), testWindow(), 2);
    ASSERT_TRUE(r.completed);

    for (const std::string &w : r.workloads) {
        const auto front = r.frontier(w);
        ASSERT_FALSE(front.empty()) << w;

        // Every operational point off the frontier is dominated by
        // some frontier point; no frontier point dominates another.
        for (const DesignPointSummary &p : r.summaries) {
            if (p.workload != w || !p.operational)
                continue;
            bool dominated = false;
            for (const DesignPointSummary *q : front) {
                if (q == &p)
                    continue;
                const bool no_worse =
                    q->energyPerAccess <= p.energyPerAccess &&
                    q->edpPerAccess <= p.edpPerAccess &&
                    q->minVdd <= p.minVdd;
                const bool better =
                    q->energyPerAccess < p.energyPerAccess ||
                    q->edpPerAccess < p.edpPerAccess ||
                    q->minVdd < p.minVdd;
                if (no_worse && better) {
                    dominated = true;
                    break;
                }
            }
            EXPECT_EQ(p.onFrontier, !dominated)
                << w << " " << p.sizeBytes << "/" << p.ways << " "
                << p.scheme;
        }

        // The 8T scheme unlocks a lower min-Vdd than anything the
        // explorer would report for a failing configuration: frontier
        // points are all operational.
        for (const DesignPointSummary *q : front)
            EXPECT_TRUE(q->operational);
    }
}

/** The VddSweepSpec of the explorer cell behind @p p: the cell's
 *  cache (in hierarchy mode a 6T L1 at nominal over an L2 of 8 ways
 *  with the L1's block and replacement) swept over the explore's
 *  grid — the nominal supply alone for a nominal-only explore. */
VddSweepSpec
cellSweepSpec(const ExplorerSpec &spec, const DesignPointSummary &p)
{
    VddSweepSpec s;
    const trace::StreamParams profile = trace::specProfile(p.workload);
    s.makeGenerator = [profile] {
        return std::make_unique<trace::MarkovStream>(profile);
    };
    s.streamKey = trace::streamSignature(profile);
    s.cache = mem::CacheConfig{p.sizeBytes, p.ways, p.blockBytes, p.repl};
    if (p.l2SizeBytes) {
        core::LevelConfig l2;
        l2.cache = mem::CacheConfig{p.l2SizeBytes, 8, p.blockBytes, p.repl};
        s.lowerLevels = {l2};
    }
    s.schemes = spec.schemes;
    s.grid = spec.vddGrid.empty()
                 ? std::vector<double>{spec.model.nominalVdd}
                 : spec.vddGrid;
    s.model = spec.model;
    s.failureThreshold = spec.failureThreshold;
    s.runSeed = spec.runSeed;
    s.faultRows = spec.faultRows;
    return s;
}

/** EXPECT every design point of an explore of @p spec to equal (==)
 *  the min-Vdd summary of its cell's runVddSweep curve. */
void
expectAgreesWithVddSweep(const ExplorerSpec &spec)
{
    const bool nominal_only = spec.vddGrid.empty();
    for (const unsigned workers : {1u, 4u}) {
        const ExploreResult r = runExplore(spec, testWindow(), workers);
        ASSERT_TRUE(r.completed);
        ASSERT_FALSE(r.summaries.empty());
        for (const DesignPointSummary &p : r.summaries) {
            const std::string where =
                p.workload + " " + std::to_string(p.sizeBytes) + "/" +
                std::to_string(p.ways) + " l2=" +
                std::to_string(p.l2SizeBytes) + " " + p.scheme +
                " workers=" + std::to_string(workers);
            const core::VddSweepResult sweep =
                core::runVddSweep(cellSweepSpec(spec, p), testWindow(), 1);
            const core::VddCurve *curve =
                sweep.curve(core::parseWriteScheme(p.scheme));
            ASSERT_NE(curve, nullptr) << where;

            // A nominal-only point is operational by definition.
            const bool operational =
                nominal_only || curve->points.front().operational;
            const double min_vdd =
                nominal_only ? spec.model.nominalVdd : curve->minVdd;
            const core::VddPointResult *at = &curve->points.front();
            for (const core::VddPointResult &pt : curve->points) {
                if (operational && pt.vdd == min_vdd)
                    at = &pt;
            }
            EXPECT_EQ(p.operational, operational) << where;
            EXPECT_EQ(p.minVdd, min_vdd) << where;
            EXPECT_EQ(p.energyPerAccess, at->energyPerAccess) << where;
            EXPECT_EQ(p.edpPerAccess, at->edpPerAccess) << where;
            EXPECT_EQ(p.cyclesPerAccess, at->cyclesPerAccess) << where;
            EXPECT_EQ(p.missRate,
                      static_cast<double>(at->run.misses) /
                          static_cast<double>(at->run.requests))
                << where;
        }
    }
}

/** testSpec() over all four schemes, so the 6T baseline's earlier
 *  failures are covered too. */
ExplorerSpec
agreementSpec()
{
    ExplorerSpec spec = testSpec();
    spec.schemes = ExplorerSpec{}.schemes;
    return spec;
}

TEST(ExplorerAgreement, SingleLevelPointsAreVddSweepSummaries)
{
    // 6T stops at 1.0 V, the 8T schemes at 0.8 V (0.6 V fails).
    ExplorerSpec spec = agreementSpec();
    spec.vddGrid = {1.0, 0.8, 0.6};
    expectAgreesWithVddSweep(spec);
}

TEST(ExplorerAgreement, HierarchyPointsAreVddSweepSummaries)
{
    // A low grid: the 6T L2 is not operational anywhere, so its rows
    // summarize the highest grid point.
    ExplorerSpec spec = agreementSpec();
    spec.l2SizesKb = {64};
    spec.vddGrid = {0.7, 0.6};
    expectAgreesWithVddSweep(spec);
}

TEST(ExplorerAgreement, NominalOnlyPointsAreVddSweepSummaries)
{
    ExplorerSpec spec = agreementSpec();
    spec.vddGrid.clear();
    expectAgreesWithVddSweep(spec);
}

TEST(ExplorerAgreement, CellReplaysOncePerTimingClass)
{
    // 0.9 V and 0.8 V run at the same scaled latencies, so each cell
    // submits two sweep jobs ({1.0}, {0.9, 0.8}), not three. One shard
    // holds every cell, so the last sweep's job count covers them all.
    ExplorerSpec spec = testSpec();
    spec.vddGrid = {1.0, 0.9, 0.8};
    spec.cellsPerShard = 64;
    const ExploreResult r = runExplore(spec, testWindow(), 2);
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.shardsExecuted, 1u);
    EXPECT_EQ(obs::globalMetrics().sweep().jobsTotal,
              2 * (r.cellsTotal - r.cellsSkipped));
    // The logical config-run count is unchanged: schemes x grid.
    EXPECT_EQ(r.configRunsExecuted, 8u * 2u * 3u);
}

} // namespace
