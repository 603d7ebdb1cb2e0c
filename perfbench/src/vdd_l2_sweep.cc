/**
 * @file
 * vdd_l2_sweep: the two-level Vdd sweep. A 6T 64 KB L1 pinned at
 * nominal Vdd over a 256 KB 8-way L2 swept over the default 11-point
 * grid with four L2 schemes, through core::runVddSweep. One job is one
 * whole sweep (44 config-runs plus the fault-map campaigns).
 */

#include <algorithm>

#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "core/vdd_sweep.hh"
#include "sram/vmodel.hh"
#include "trace/spec_profiles.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace c8t;

namespace
{

const core::RunConfig kRun{10'000, 100'000};

trace::StreamParams
seededProfile(std::uint64_t seed)
{
    trace::StreamParams p = trace::specProfile("gcc");
    p.seed = mix64(seed, 0x6c32) | 1;
    return p;
}

core::VddSweepSpec
buildSpec(const trace::StreamParams &profile, std::uint64_t seed)
{
    core::VddSweepSpec spec; // 64 KB L1, default grid, four schemes
    spec.lowerLevels.push_back(core::LevelConfig{}); // 256 KB / 8-way
    spec.makeGenerator = [profile]() -> std::unique_ptr<trace::AccessGenerator> {
        return std::make_unique<trace::MarkovStream>(profile);
    };
    spec.streamKey = trace::streamSignature(profile);
    spec.runSeed = mix64(seed, 0xfa17);
    return spec;
}

double
configRuns(const core::VddSweepSpec &spec)
{
    return static_cast<double>(spec.grid.size() * spec.schemes.size());
}

/** The 8T L2 curves' min-Vdd lies below the 6T floor. */
std::string
floorViolation(const core::VddSweepResult &result)
{
    const core::VddCurve *sixt = result.curve(core::WriteScheme::SixTDirect);
    if (!sixt)
        return "vdd_l2_sweep: no 6T curve";
    for (const core::VddCurve &c : result.curves) {
        if (c.cell == sram::CellType::EightT && !(c.minVdd < sixt->minVdd))
            return "vdd_l2_sweep: 8T L2 " + c.scheme + " min-Vdd " +
                   jsonNum(c.minVdd) + " V is not below the 6T floor " +
                   jsonNum(sixt->minVdd) + " V";
    }
    return {};
}

std::string
dumpDoc(const core::VddSweepResult &r)
{
    return document([&](std::ostream &os) { r.dumpJson(os); });
}

/** The sweep's jobs as runVddSweep builds them: one per grid point,
 *  one two-level configuration per L2 scheme. */
std::vector<core::SweepJob>
sweepJobs(const core::VddSweepSpec &spec)
{
    std::vector<core::SweepJob> jobs;
    for (const double vdd : spec.grid) {
        core::SweepJob job;
        job.makeGenerator = spec.makeGenerator;
        job.streamKey = spec.streamKey;
        job.vdd = vdd;
        for (const core::WriteScheme s : spec.schemes) {
            core::ControllerConfig cfg;
            cfg.cache = spec.cache;
            cfg.vmodel = spec.model;
            cfg.scheme = spec.topScheme;
            cfg.vdd = spec.topVdd;
            cfg.lowerLevels = spec.lowerLevels;
            cfg.lowerLevels.front().scheme = s;
            cfg.lowerLevels.front().vdd = vdd;
            job.configs.push_back(cfg);
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** The sweep's fault-map keys, derived as runVddSweep derives them. */
std::vector<sram::FaultMapConfig>
faultKeys(const core::VddSweepSpec &spec)
{
    const sram::VddModel model(spec.model);
    const core::LevelConfig &l2 = spec.lowerLevels.front();
    std::vector<sram::FaultMapConfig> keys;
    for (const core::WriteScheme s : spec.schemes) {
        const core::SchemeTraits traits = core::schemeTraits(s);
        for (const double vdd : spec.grid) {
            sram::FaultMapConfig k;
            k.runSeed = spec.runSeed;
            k.vdd = vdd;
            k.cell = traits.requiresEightT ? sram::CellType::EightT
                                           : sram::CellType::SixT;
            k.pfailCell = model.at(vdd, k.cell).pfailCell;
            k.rows = spec.faultRows;
            k.wordsPerRow =
                std::max<std::uint32_t>(1, l2.cache.setBytes() / 8);
            k.degree = traits.requiresNonInterleaved ? 1u : l2.interleaveDegree;
            keys.push_back(k);
        }
    }
    return keys;
}

} // anonymous namespace

void
setupVddL2Sweep(const Options &o, const std::function<void()> &ready)
{
    const core::VddSweepSpec spec = buildSpec(seededProfile(o.seed), o.seed);
    ready();
}

Report
runVddL2Sweep(const Options &o)
{
    Report report;
    const core::VddSweepSpec spec = buildSpec(seededProfile(o.seed), o.seed);

    std::vector<JobTime> times;
    std::string first;
    double rss = 0.0;
    repeatFor(o.seconds, 3, 10'000, [&](unsigned rep) {
        report.tally.attempt();
        clearGlobalCaches();
        std::unique_ptr<core::VddSweepResult> result;
        times.push_back(timeJob([&] {
            result = std::make_unique<core::VddSweepResult>(
                core::runVddSweep(spec, kRun, o.workers));
        }));
        if (rep == 0)
            rss = peakRssMiB();
        std::string why = floorViolation(*result);
        const std::string doc = dumpDoc(*result);
        if (rep == 0)
            first = doc;
        else if (why.empty() && doc != first)
            why = "vdd_l2_sweep: repeated sweep differs from the first";
        report.tally.check(why.empty(), why);
    });

    // Spot check: one worker gives the nproc-worker document.
    report.tally.attempt();
    clearGlobalCaches();
    report.tally.check(dumpDoc(core::runVddSweep(spec, kRun, 1)) == first,
                       "vdd_l2_sweep: 1-worker sweep differs from the " +
                           std::to_string(o.workers) + "-worker sweep");

    setBatchMetrics(report, times,
                    configRuns(spec) * static_cast<double>(
                                           kRun.warmupAccesses +
                                           kRun.measureAccesses),
                    configRuns(spec), rss);
    return report;
}

Report
traceVddL2Sweep(const Options &o)
{
    Report report;
    report.initLayerMetrics();
    const trace::StreamParams profile = seededProfile(o.seed);
    const core::VddSweepSpec spec = buildSpec(profile, o.seed);
    const std::vector<core::SweepJob> jobs = sweepJobs(spec);

    const std::vector<ReplicaJob> replica_jobs = toReplica(jobs);
    const std::vector<sram::FaultMapConfig> keys =
        distinctFaultKeys(faultKeys(spec));

    std::vector<double> untraced, profiled;
    std::unique_ptr<core::VddSweepResult> result;
    std::string reference;
    core::FaultMapCache::Stats fault_delta;
    ReplicaRun replica;
    FaultProbe probe;
    repeatFor(o.seconds * 0.7, 2, 1000, [&](unsigned rep) {
        timeProfilerOffOn(
            rep,
            [&](bool) {
                clearGlobalCaches();
                const core::FaultMapCache::Stats before =
                    core::globalFaultMapCache().stats();
                const double wall =
                    timeJob([&] {
                        result = std::make_unique<core::VddSweepResult>(
                            core::runVddSweep(spec, kRun, o.workers));
                    }).wall;
                const core::FaultMapCache::Stats after =
                    core::globalFaultMapCache().stats();
                fault_delta.hits = after.hits - before.hits;
                fault_delta.misses = after.misses - before.misses;
                if (reference.empty()) {
                    reference = dumpDoc(*result);
                } else {
                    report.tally.attempt();
                    report.tally.check(dumpDoc(*result) == reference,
                                       "vdd_l2_sweep: the sweep changes with "
                                       "the profiler on");
                }
                return wall;
            },
            untraced, profiled);

        clearGlobalCaches();
        report.tally.attempt();
        replica = runReplica(replica_jobs, kRun, o.workers);
        probe = probeFaultMaps(keys);
        // The replica's two-level runs are the sweep's point runs.
        bool same = true;
        for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
            for (std::size_t si = 0; si < spec.schemes.size(); ++si)
                same = same && replica.results[gi][si] ==
                                   result->curves[si].points[gi].run;
        }
        report.tally.check(same, "vdd_l2_sweep: traced runs are not "
                                 "bit-identical to the sweep's points");
    });

    setReplicaLayers(report, replica);
    setFaultLayers(report, probe, fault_delta.hits, fault_delta.misses,
                   keys.size(), median(untraced));
    setObsLayers(report, untraced, profiled, jobSpanSeconds(replica),
                 replica.workers, probe.totalSeconds);
    report.set("app.document.serialize_us",
               meanMicros(20, [&] { dumpDoc(*result); }), "us");
    report.tally.attempt();
    report.tally.check(floorViolation(*result).empty(), floorViolation(*result));

    // The same stream through the 6T L1 alone isolates the L1's apply
    // cost from the L2 below it.
    ReplicaJob l1_only = replica_jobs.front();
    core::ControllerConfig l1;
    l1.cache = spec.cache;
    l1.scheme = spec.topScheme;
    l1_only.configs = {l1};
    clearGlobalCaches();
    const ReplicaRun l1_run = runReplica({l1_only}, kRun, 1);
    report.set("core.apply.6t.ns_per_access",
               layerTotals(l1_run.logs)["core.apply.6t"].selfNsPerWork(), "ns");

    clearGlobalCaches();
    setSweepLayers(report, jobs, kRun, o.workers);
    setGenerateLayer(report, {profile},
                     kRun.warmupAccesses + kRun.measureAccesses);
    return report;
}

} // namespace perfbench
