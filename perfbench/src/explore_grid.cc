/**
 * @file
 * explore_grid: the design-space explorer. 25 profiles x 4 sizes x 3
 * associativities x 2 block sizes x {LRU, FIFO} x 4 schemes x 3 Vdd
 * points with short windows, checkpointing into a scratch directory,
 * through core::runExplore. One job is one whole explore.
 */

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/explorer.hh"
#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "sram/vmodel.hh"
#include "trace/spec_profiles.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace c8t;
namespace fs = std::filesystem;

namespace
{

const core::RunConfig kRun{200, 2000};

core::ExplorerSpec
buildSpec(const Options &o)
{
    core::ExplorerSpec spec;
    spec.label = "explore_grid";
    spec.workloads = trace::specBenchmarkNames();
    spec.sizesKb = {16, 32, 64, 128};
    spec.ways = {2, 4, 8};
    spec.blocks = {32, 64};
    spec.replacements = {mem::ReplKind::Lru, mem::ReplKind::Fifo};
    spec.vddGrid = {1.0, 0.9, 0.8};
    spec.cellsPerShard = 16;
    spec.runSeed = mix64(o.seed, 0xe8);
    spec.shuffleShards = true;
    spec.shuffleSeed = mix64(o.seed, 0x5f);
    spec.checkpointDir = (fs::path(o.tmpDir) / "explore_ckpt").string();
    return spec;
}

/** Structural checks of a completed explore; empty when it passes. */
std::string
violation(const core::ExplorerSpec &spec, const core::ExploreResult &r)
{
    if (!r.completed)
        return "explore_grid: explore did not complete";
    if (r.configRunsExecuted + r.cellsSkipped * spec.runsPerCell() !=
        r.configRunsTotal)
        return "explore_grid: config-runs executed + skipped != total";
    if (r.shardsExecuted != r.shardsTotal)
        return "explore_grid: not every shard executed";
    if (r.summaries.size() !=
        (r.cellsTotal - r.cellsSkipped) * spec.schemes.size())
        return "explore_grid: wrong number of design points";
    for (const std::string &w : r.workloads) {
        if (r.frontier(w).empty())
            return "explore_grid: empty frontier for " + w;
    }
    return {};
}

std::string
dumpDoc(const core::ExploreResult &r)
{
    return document([&](std::ostream &os) { r.dumpJson(os); });
}

/** One explore from an empty checkpoint directory and cold caches. */
std::unique_ptr<core::ExploreResult>
explore(const core::ExplorerSpec &spec, unsigned workers, JobTime *time)
{
    fs::remove_all(spec.checkpointDir);
    clearGlobalCaches();
    std::unique_ptr<core::ExploreResult> result;
    const JobTime t = timeJob([&] {
        result = std::make_unique<core::ExploreResult>(
            core::runExplore(spec, kRun, workers));
    });
    if (time)
        *time = t;
    return result;
}

/** The explorer's jobs and fault-map keys, expanded as runExplore
 *  expands its cells (invalid geometries skipped). */
struct Expansion
{
    std::vector<core::SweepJob> jobs;
    std::vector<sram::FaultMapConfig> faultKeys;
};

Expansion
expand(const core::ExplorerSpec &spec)
{
    Expansion out;
    const sram::VddModel model(spec.model);
    for (const std::string &w : spec.workloads) {
        const trace::StreamParams profile = trace::specProfile(w);
        for (const std::uint64_t kb : spec.sizesKb)
        for (const std::uint32_t ways : spec.ways)
        for (const std::uint32_t block : spec.blocks)
        for (const mem::ReplKind repl : spec.replacements) {
            mem::CacheConfig cache{kb * 1024, ways, block, repl};
            try {
                cache.validate();
            } catch (const std::invalid_argument &) {
                continue;
            }
            for (const double vdd : spec.vddGrid) {
                core::SweepJob job;
                job.makeGenerator =
                    [profile]() -> std::unique_ptr<trace::AccessGenerator> {
                    return std::make_unique<trace::MarkovStream>(profile);
                };
                job.streamKey = trace::streamSignature(profile);
                job.vdd = vdd;
                for (const core::WriteScheme s : spec.schemes) {
                    core::ControllerConfig cfg;
                    cfg.cache = cache;
                    cfg.scheme = s;
                    cfg.vdd = vdd;
                    cfg.vmodel = spec.model;
                    job.configs.push_back(cfg);

                    const core::SchemeTraits traits = core::schemeTraits(s);
                    sram::FaultMapConfig k;
                    k.runSeed = spec.runSeed;
                    k.vdd = vdd;
                    k.cell = traits.requiresEightT ? sram::CellType::EightT
                                                   : sram::CellType::SixT;
                    k.pfailCell = model.at(vdd, k.cell).pfailCell;
                    k.rows = spec.faultRows;
                    k.wordsPerRow =
                        std::max<std::uint32_t>(1, cache.setBytes() / 8);
                    k.degree = traits.requiresNonInterleaved
                                   ? 1u
                                   : core::ControllerConfig{}.interleaveDegree;
                    out.faultKeys.push_back(k);
                }
                out.jobs.push_back(std::move(job));
            }
        }
    }
    return out;
}

double
directoryKiB(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            bytes += entry.file_size();
    }
    return static_cast<double>(bytes) / 1024.0;
}

} // anonymous namespace

void
setupExploreGrid(const Options &o, const std::function<void()> &ready)
{
    const core::ExplorerSpec spec = buildSpec(o);
    fs::remove_all(spec.checkpointDir);
    ready();
}

Report
runExploreGrid(const Options &o)
{
    Report report;
    const core::ExplorerSpec spec = buildSpec(o);

    std::vector<JobTime> times;
    std::string first;
    std::uint64_t config_runs = 0;
    double rss = 0.0;
    repeatFor(o.seconds, 3, 10'000, [&](unsigned rep) {
        report.tally.attempt();
        JobTime t;
        const auto result = explore(spec, o.workers, &t);
        times.push_back(t);
        if (rep == 0)
            rss = peakRssMiB();
        config_runs = result->configRunsExecuted;
        std::string why = violation(spec, *result);
        const std::string doc = dumpDoc(*result);
        if (rep == 0)
            first = doc;
        else if (why.empty() && doc != first)
            why = "explore_grid: repeated explore differs from the first";
        report.tally.check(why.empty(), why);
    });

    // Resuming the finished checkpoint directory reproduces the result
    // without executing a shard.
    report.tally.attempt();
    const core::ExploreResult resumed = core::runExplore(spec, kRun, o.workers);
    report.tally.check(resumed.shardsExecuted == 0 &&
                           resumed.shardsResumed == resumed.shardsTotal &&
                           dumpDoc(resumed) == first,
                       "explore_grid: resume does not reproduce the result");
    fs::remove_all(spec.checkpointDir);

    setBatchMetrics(report, times,
                    static_cast<double>(config_runs) *
                        static_cast<double>(kRun.warmupAccesses +
                                            kRun.measureAccesses),
                    static_cast<double>(config_runs), rss);
    return report;
}

Report
traceExploreGrid(const Options &o)
{
    Report report;
    report.initLayerMetrics();
    const core::ExplorerSpec spec = buildSpec(o);
    const Expansion ex = expand(spec);
    const std::vector<ReplicaJob> replica_jobs = toReplica(ex.jobs);
    const std::vector<sram::FaultMapConfig> keys =
        distinctFaultKeys(ex.faultKeys);

    std::vector<double> untraced, profiled;
    std::unique_ptr<core::ExploreResult> result;
    std::string reference;
    core::FaultMapCache::Stats fault_delta;
    ReplicaRun replica;
    FaultProbe probe;
    repeatFor(o.seconds * 0.6, 2, 1000, [&](unsigned rep) {
        timeProfilerOffOn(
            rep,
            [&](bool) {
                const core::FaultMapCache::Stats before =
                    core::globalFaultMapCache().stats();
                JobTime t;
                result = explore(spec, o.workers, &t);
                const core::FaultMapCache::Stats after =
                    core::globalFaultMapCache().stats();
                fault_delta.hits = after.hits - before.hits;
                fault_delta.misses = after.misses - before.misses;
                if (reference.empty()) {
                    reference = dumpDoc(*result);
                } else {
                    report.tally.attempt();
                    report.tally.check(dumpDoc(*result) == reference,
                                       "explore_grid: the explore changes "
                                       "with the profiler on");
                }
                return t.wall;
            },
            untraced, profiled);

        clearGlobalCaches();
        replica = runReplica(replica_jobs, kRun, o.workers);
        probe = probeFaultMaps(keys);
    });
    report.tally.attempt();
    report.tally.check(violation(spec, *result).empty(),
                       violation(spec, *result));
    report.tally.attempt();
    report.tally.check(result->configRunsExecuted ==
                           replica_jobs.size() * spec.schemes.size(),
                       "explore_grid: traced expansion differs from the "
                       "explorer's config-runs");

    setReplicaLayers(report, replica);
    setFaultLayers(report, probe, fault_delta.hits, fault_delta.misses,
                   keys.size(), median(untraced));
    setObsLayers(report, untraced, profiled, jobSpanSeconds(replica),
                 replica.workers, probe.totalSeconds);
    report.set("app.document.serialize_us",
               meanMicros(5, [&] { dumpDoc(*result); }), "us");

    // The checkpoint directory the last explore left behind.
    report.set("core.explorer.checkpoint_kb",
               directoryKiB(spec.checkpointDir), "KiB");
    const auto t0 = Clock::now();
    const core::ExploreResult resumed = core::runExplore(spec, kRun, o.workers);
    report.set("core.explorer.resume_ms", secondsSince(t0) * 1e3, "ms");
    report.tally.attempt();
    report.tally.check(resumed.shardsExecuted == 0 &&
                           dumpDoc(resumed) == dumpDoc(*result),
                       "explore_grid: resume does not reproduce the result");
    fs::remove_all(spec.checkpointDir);

    clearGlobalCaches();
    setSweepLayers(report, ex.jobs, kRun, o.workers);

    std::vector<trace::StreamParams> profiles;
    for (const std::string &w : spec.workloads)
        profiles.push_back(trace::specProfile(w));
    setGenerateLayer(report, profiles,
                     kRun.warmupAccesses + kRun.measureAccesses);
    return report;
}

} // namespace perfbench
