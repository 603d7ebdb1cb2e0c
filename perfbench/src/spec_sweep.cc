/**
 * @file
 * spec_sweep: the Figure 11 sweep. All 25 SPEC profiles x {32 KB,
 * 128 KB} (4-way, 32 B, LRU) x {RMW, WG, WG+RB}, one cache level at
 * nominal Vdd, through core::specSweepJobs and ParallelSweeper::run.
 * One job is one whole sweep (150 config-runs).
 */

#include <cmath>

#include "core/stream_cache.hh"
#include "trace/spec_profiles.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace c8t;

namespace
{

const std::vector<core::WriteScheme> kSchemes = {
    core::WriteScheme::Rmw, core::WriteScheme::WriteGrouping,
    core::WriteScheme::WriteGroupingReadBypass};

const std::vector<mem::CacheConfig> kCaches = {{32 * 1024, 4, 32},
                                               {128 * 1024, 4, 32}};

/** Paper Fig. 11 averages (%): WG and WG+RB at 32 KB, then 128 KB. */
constexpr double kPaperAverages[4] = {26.9, 32.6, 26.6, 32.1};

const core::RunConfig kRun{10'000, 100'000};

using Results = std::vector<std::vector<core::SchemeRunResult>>;

/** The SPEC profiles with their stream seeds drawn from @p seed. */
std::vector<trace::StreamParams>
seededProfiles(std::uint64_t seed)
{
    std::vector<trace::StreamParams> profiles = trace::specProfiles();
    for (std::size_t i = 0; i < profiles.size(); ++i)
        profiles[i].seed = mix64(seed, i) | 1;
    return profiles;
}

/** specSweepJobs for each size, each job re-pointed at its seeded
 *  profile (same profile order as specSweepJobs). */
std::vector<core::SweepJob>
buildJobs(const std::vector<trace::StreamParams> &profiles)
{
    std::vector<core::SweepJob> all;
    for (const mem::CacheConfig &cache : kCaches) {
        std::vector<core::SweepJob> jobs = core::specSweepJobs(cache, kSchemes);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const trace::StreamParams p = profiles.at(i);
            jobs[i].makeGenerator =
                [p]() -> std::unique_ptr<trace::AccessGenerator> {
                return std::make_unique<trace::MarkovStream>(p);
            };
            jobs[i].streamKey = trace::streamSignature(p);
            all.push_back(std::move(jobs[i]));
        }
    }
    return all;
}

double
reductionPct(const core::SchemeRunResult &rmw, const core::SchemeRunResult &r)
{
    return 100.0 * (1.0 - static_cast<double>(r.demandAccesses) /
                              static_cast<double>(rmw.demandAccesses));
}

/** WG+RB <= WG <= RMW demand accesses for every profile and size;
 *  returns the first violation, empty when there is none. */
std::string
orderingViolation(const Results &results)
{
    for (std::size_t j = 0; j < results.size(); ++j) {
        const auto &r = results[j];
        if (r.size() != 3 || !(r[2].demandAccesses <= r[1].demandAccesses &&
                               r[1].demandAccesses <= r[0].demandAccesses)) {
            return "spec_sweep: WG+RB <= WG <= RMW fails for " +
                   (r.empty() ? std::string("?") : r[0].workload) + " at " +
                   kCaches[j / (results.size() / kCaches.size())].toString();
        }
    }
    return {};
}

/** Mean absolute gap (pp) between the measured and the paper's
 *  Fig. 11 averages. */
double
paperGap(const Results &results)
{
    const std::size_t per_size = results.size() / kCaches.size();
    double gap = 0.0;
    for (std::size_t s = 0; s < kCaches.size(); ++s) {
        double wg = 0.0, wgrb = 0.0;
        for (std::size_t i = 0; i < per_size; ++i) {
            const auto &r = results[s * per_size + i];
            wg += reductionPct(r[0], r[1]) / static_cast<double>(per_size);
            wgrb += reductionPct(r[0], r[2]) / static_cast<double>(per_size);
        }
        gap += std::fabs(wg - kPaperAverages[2 * s]) +
               std::fabs(wgrb - kPaperAverages[2 * s + 1]);
    }
    return gap / 4.0;
}

/** One timed sweep from a cold process state. */
Results
sweep(const core::ParallelSweeper &sweeper,
      const std::vector<core::SweepJob> &jobs, JobTime *time)
{
    clearGlobalCaches();
    Results results;
    const JobTime t =
        timeJob([&] { results = sweeper.run(jobs, kRun, "spec_sweep"); });
    if (time)
        *time = t;
    return results;
}

double
accessesPerJob(const std::vector<core::SweepJob> &jobs)
{
    return static_cast<double>(jobs.size() * kSchemes.size()) *
           static_cast<double>(kRun.warmupAccesses + kRun.measureAccesses);
}

} // anonymous namespace

void
setupSpecSweep(const Options &o, const std::function<void()> &ready)
{
    const std::vector<core::SweepJob> jobs = buildJobs(seededProfiles(o.seed));
    const core::ParallelSweeper sweeper(o.workers);
    ready();
}

Report
runSpecSweep(const Options &o)
{
    Report report;
    const std::vector<core::SweepJob> jobs = buildJobs(seededProfiles(o.seed));
    core::ParallelSweeper sweeper(o.workers);
    sweeper.setProgress(false);

    std::vector<JobTime> times;
    Results first;
    double rss = 0.0;
    repeatFor(o.seconds, 3, 10'000, [&](unsigned rep) {
        report.tally.attempt();
        JobTime t;
        Results results = sweep(sweeper, jobs, &t);
        times.push_back(t);
        if (rep == 0)
            rss = peakRssMiB();
        std::string why = orderingViolation(results);
        if (rep == 0)
            first = std::move(results);
        else if (why.empty() && results != first)
            why = "spec_sweep: repeated sweep differs from the first";
        report.tally.check(why.empty(), why);
    });

    // Spot check: one worker gives the nproc-worker results.
    report.tally.attempt();
    core::ParallelSweeper one(1);
    one.setProgress(false);
    report.tally.check(sweep(one, jobs, nullptr) == first,
                       "spec_sweep: 1-worker results differ from " +
                           std::to_string(o.workers) + "-worker results");

    setBatchMetrics(report, times, accessesPerJob(jobs),
                    static_cast<double>(jobs.size() * kSchemes.size()), rss);
    report.detail("paper_gap_pp", jsonNum(paperGap(first)));
    return report;
}

Report
traceSpecSweep(const Options &o)
{
    Report report;
    report.initLayerMetrics();
    const std::vector<trace::StreamParams> profiles = seededProfiles(o.seed);
    const std::vector<core::SweepJob> jobs = buildJobs(profiles);
    const std::vector<ReplicaJob> replica_jobs = toReplica(jobs);
    core::ParallelSweeper sweeper(o.workers);
    sweeper.setProgress(false);

    // The real sweep with the profiler off and on, and the traced
    // replica, alternate, so all of them see the same host.
    std::vector<double> untraced, profiled;
    Results reference;
    ReplicaRun replica;
    repeatFor(o.seconds * 0.7, 2, 1000, [&](unsigned rep) {
        timeProfilerOffOn(
            rep,
            [&](bool) {
                JobTime t;
                Results results = sweep(sweeper, jobs, &t);
                if (reference.empty()) {
                    reference = std::move(results);
                } else {
                    report.tally.attempt();
                    report.tally.check(results == reference,
                                       "spec_sweep: the sweep changes with "
                                       "the profiler on");
                }
                return t.wall;
            },
            untraced, profiled);

        clearGlobalCaches();
        report.tally.attempt();
        replica = runReplica(replica_jobs, kRun, o.workers);
        report.tally.check(replica.results == reference,
                           "spec_sweep: traced results are not "
                           "bit-identical to the untraced sweep");
    });

    setReplicaLayers(report, replica);
    setObsLayers(report, untraced, profiled, jobSpanSeconds(replica),
                 replica.workers, 0.0);
    report.tally.attempt();
    const LayerTotals job = layerTotals(replica.logs)["job"];
    report.tally.check(job.totalNs > 0.0 &&
                           (job.totalNs - job.selfNs) >= 0.9 * job.totalNs,
                       "spec_sweep: layer spans cover under 90% of job time");

    clearGlobalCaches();
    report.tally.attempt();
    report.tally.check(setSweepLayers(report, jobs, kRun, o.workers) ==
                           reference,
                       "spec_sweep: hooked sweep differs from the untraced one");
    setGenerateLayer(report, profiles,
                     kRun.warmupAccesses + kRun.measureAccesses);
    return report;
}

} // namespace perfbench
