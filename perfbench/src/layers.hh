/**
 * @file
 * Traced runs for the per-layer metrics.
 *
 * The replica makes the same public calls, in the same order, that
 * ParallelSweeper::run and MultiSchemeRunner::run make — stream-cache
 * acquire, LevelStack construction, borrowChunk/fillChunk, the plan
 * leader's planReplayChunk, accessChunk(chunk, n, plan) per
 * controller, resetStats after warm-up, drain and snapshotResult —
 * with a span around each call. The probes drive one layer alone on a
 * workload's inputs (stream generation, fault-map campaigns) or watch
 * the real sweep executor through the SweepJob hooks.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/controller.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "sram/fault_injection.hh"
#include "trace/access.hh"
#include "trace/markov_stream.hh"

namespace perfbench
{

/** One replica job: a workload plus the controller configurations it
 *  runs through (a SweepJob without hooks). */
struct ReplicaJob
{
    std::string streamKey; ///< empty: generate per job, no stream cache
    std::function<std::unique_ptr<c8t::trace::AccessGenerator>()> make;
    std::vector<c8t::core::ControllerConfig> configs;
};

/** Counts made at the layer boundaries of a replica run. */
struct ReplicaCounters
{
    std::uint64_t leaderChunks = 0;  ///< planReplayChunk calls
    std::uint64_t plannedChunks = 0; ///< ... that returned a plan
    std::uint64_t applyCalls = 0;    ///< accessChunk calls
    std::uint64_t sharedApplies = 0; ///< ... given a leader's plan
    std::uint64_t stackedRequests = 0; ///< measured L1 requests, 2 levels
    std::uint64_t l2Fetches = 0;
    std::uint64_t l2WritebackWords = 0;
    std::uint64_t backInvalidations = 0;
    std::uint64_t cacheHits = 0;   ///< stream-cache acquire hits
    std::uint64_t cacheLookups = 0;

    void add(const ReplicaCounters &o);
};

/** Result of a replica run. */
struct ReplicaRun
{
    std::vector<std::vector<c8t::core::SchemeRunResult>> results;
    std::vector<SpanLog> logs; ///< one per worker thread
    ReplicaCounters counters;
    double wallSeconds = 0.0;
    unsigned workers = 1;
};

/** Run @p jobs on @p workers threads with a span around every layer
 *  call; results are those MultiSchemeRunner::run would return. */
ReplicaRun runReplica(const std::vector<ReplicaJob> &jobs,
                      const c8t::core::RunConfig &rc, unsigned workers);

/** Stream, plan, apply, hierarchy, set-up and coverage metrics. */
void setReplicaLayers(Report &report, const ReplicaRun &run);

/** trace.generate: MarkovStream::fillChunk alone on each profile. */
void setGenerateLayer(Report &report,
                      const std::vector<c8t::trace::StreamParams> &profiles,
                      std::uint64_t accesses);

/** Fault-map campaign time on each distinct key, run serially. */
struct FaultProbe
{
    double campaignMs = 0.0; ///< mean per campaign
    double totalSeconds = 0.0;
    std::size_t keys = 0;
};
FaultProbe probeFaultMaps(const std::vector<c8t::sram::FaultMapConfig> &keys);

/**
 * sram/core.fault_cache metrics: the probe's campaign time, and the
 * memo behaviour (@p hits, @p misses) of one untraced job that filled
 * @p distinct keys in @p wall_seconds.
 */
void setFaultLayers(Report &report, const FaultProbe &probe,
                    std::uint64_t hits, std::uint64_t misses,
                    std::size_t distinct, double wall_seconds);

/** Distinct fault-map keys (FaultMapCache::key order-preserving). */
std::vector<c8t::sram::FaultMapConfig>
distinctFaultKeys(const std::vector<c8t::sram::FaultMapConfig> &keys);

/** core.sweep: run @p jobs through the real ParallelSweeper with
 *  prepare/inspect hooks; returns its results. */
std::vector<std::vector<c8t::core::SchemeRunResult>>
setSweepLayers(Report &report, std::vector<c8t::core::SweepJob> jobs,
               const c8t::core::RunConfig &rc, unsigned workers);

/** obs.trace_overhead_pct from the real job's wall times with the
 *  phase profiler @p off and @p on (timeProfilerOffOn; entry i of each
 *  is one pair): the median of the pairs' on/off ratios. And
 *  obs.wall_share_pct: layer spans covering @p parallel_span_s (summed
 *  over @p workers threads) plus @p serial_span_s on one thread, as a
 *  share of the median profiler-off wall time. */
void setObsLayers(Report &report, const std::vector<double> &off,
                  const std::vector<double> &on, double parallel_span_s,
                  unsigned workers, double serial_span_s);

/** Sum of root ("job") span durations over @p run's logs (s). */
double jobSpanSeconds(const ReplicaRun &run);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
