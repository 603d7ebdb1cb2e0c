/**
 * @file
 * Traced runs for the per-layer metrics.
 */

#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "core/fault_cache.hh"
#include "core/level_stack.hh"
#include "core/stream_cache.hh"
#include "mem/functional_mem.hh"

namespace perfbench
{

using namespace c8t;

namespace
{

/** Span name of a controller's accessChunk call. */
const char *
applySpanName(const core::ControllerConfig &cfg)
{
    if (!cfg.lowerLevels.empty())
        return "core.level_stack";
    switch (cfg.scheme) {
    case core::WriteScheme::SixTDirect:
        return "core.apply.6t";
    case core::WriteScheme::Rmw:
        return "core.apply.rmw";
    case core::WriteScheme::WriteGrouping:
        return "core.apply.wg";
    case core::WriteScheme::WriteGroupingReadBypass:
        return "core.apply.wgrb";
    default:
        return "core.apply.other";
    }
}

/** One job as executeJob + MultiSchemeRunner::run perform it. */
std::vector<core::SchemeRunResult>
runReplicaJob(const ReplicaJob &job, const core::RunConfig &rc,
              std::uint32_t id, SpanLog &log, ReplicaCounters &counters)
{
    const ScopedSpan root(log, "job", id);

    std::unique_ptr<trace::AccessGenerator> gen;
    {
        const ScopedSpan s(log, "core.stream_cache.acquire", id);
        gen = job.streamKey.empty()
                  ? job.make()
                  : core::globalStreamCache().acquire(
                        job.streamKey, rc.warmupAccesses + rc.measureAccesses,
                        job.make);
    }

    const std::size_t n = job.configs.size();
    std::vector<std::unique_ptr<mem::FunctionalMemory>> memories;
    std::vector<std::unique_ptr<core::LevelStack>> stacks;
    for (const core::ControllerConfig &cfg : job.configs) {
        const ScopedSpan s(log, "core.controller.construct", id);
        memories.push_back(std::make_unique<mem::FunctionalMemory>());
        stacks.push_back(
            std::make_unique<core::LevelStack>(cfg, *memories.back()));
    }

    // Plan-sharing groups, exactly as MultiSchemeRunner builds them.
    std::vector<std::size_t> leader(n);
    std::vector<const char *> apply_name(n);
    for (std::size_t i = 0; i < n; ++i) {
        leader[i] = i;
        for (std::size_t j = 0; j < i; ++j) {
            if (job.configs[j].cache == job.configs[i].cache &&
                job.configs[j].lowerLevels == job.configs[i].lowerLevels) {
                leader[i] = j;
                break;
            }
        }
        apply_name[i] = applySpanName(job.configs[i]);
    }
    std::vector<const mem::ChunkPlan *> leader_plan(n, nullptr);

    std::vector<trace::MemAccess> scratch(
        core::MultiSchemeRunner::kChunkAccesses);
    const auto replay = [&](std::uint64_t accesses) {
        std::uint64_t done = 0;
        while (done < accesses) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(scratch.size(), accesses - done));
            std::size_t got = 0;
            const std::size_t span = log.open("trace.replay", id);
            const trace::MemAccess *chunk = gen->borrowChunk(want, got);
            if (!chunk) {
                got = gen->fillChunk(scratch.data(), want);
                chunk = scratch.data();
            }
            log.setWork(span, got);
            log.close(span);
            if (got == 0)
                break;
            for (std::size_t i = 0; i < n; ++i) {
                const mem::ChunkPlan *plan = nullptr;
                if (leader[i] == i) {
                    const ScopedSpan s(log, "mem.plan", id, got);
                    plan = stacks[i]->planReplayChunk(chunk, got);
                    leader_plan[i] = plan;
                    ++counters.leaderChunks;
                    counters.plannedChunks += plan ? 1 : 0;
                } else {
                    plan = leader_plan[leader[i]];
                    counters.sharedApplies += plan ? 1 : 0;
                }
                const ScopedSpan s(log, apply_name[i], id, got);
                stacks[i]->accessChunk(chunk, got, plan);
                ++counters.applyCalls;
            }
            done += got;
        }
    };

    gen->reset();
    replay(rc.warmupAccesses);
    {
        const ScopedSpan s(log, "core.reset_stats", id);
        for (auto &stack : stacks)
            stack->resetStats();
    }
    replay(rc.measureAccesses);
    {
        const ScopedSpan s(log, "core.drain", id);
        for (auto &stack : stacks)
            stack->drain();
    }
    std::vector<core::SchemeRunResult> results;
    for (auto &stack : stacks) {
        const ScopedSpan s(log, "sram.energy.snapshot", id);
        results.push_back(core::snapshotResult(gen->name(), *stack));
    }
    for (auto &stack : stacks) {
        if (stack->depth() < 2)
            continue;
        counters.stackedRequests += stack->top().requests();
        counters.l2Fetches += stack->level(1).readRequests();
        counters.l2WritebackWords += stack->level(1).writeRequests();
        counters.backInvalidations += stack->top().backInvalidations();
    }
    return results;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // anonymous namespace

void
ReplicaCounters::add(const ReplicaCounters &o)
{
    leaderChunks += o.leaderChunks;
    plannedChunks += o.plannedChunks;
    applyCalls += o.applyCalls;
    sharedApplies += o.sharedApplies;
    stackedRequests += o.stackedRequests;
    l2Fetches += o.l2Fetches;
    l2WritebackWords += o.l2WritebackWords;
    backInvalidations += o.backInvalidations;
    cacheHits += o.cacheHits;
    cacheLookups += o.cacheLookups;
}

ReplicaRun
runReplica(const std::vector<ReplicaJob> &jobs, const core::RunConfig &rc,
           unsigned workers)
{
    ReplicaRun run;
    run.results.resize(jobs.size());
    run.workers = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(workers, jobs.size())));
    run.logs.resize(run.workers);
    std::vector<ReplicaCounters> counters(run.workers);

    const core::StreamCache::Stats before = core::globalStreamCache().stats();
    const auto t0 = Clock::now();
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto worker = [&](unsigned w) {
        for (;;) {
            const std::size_t i = cursor.fetch_add(1);
            if (i >= jobs.size())
                return;
            try {
                run.results[i] =
                    runReplicaJob(jobs[i], rc, static_cast<std::uint32_t>(i),
                                  run.logs[w], counters[w]);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < run.workers; ++w)
        threads.emplace_back(worker, w);
    for (std::thread &t : threads)
        t.join();
    run.wallSeconds = secondsSince(t0);
    if (first_error)
        std::rethrow_exception(first_error);

    for (const ReplicaCounters &c : counters)
        run.counters.add(c);
    const core::StreamCache::Stats after = core::globalStreamCache().stats();
    run.counters.cacheHits = after.hits - before.hits;
    run.counters.cacheLookups = (after.hits - before.hits) +
                                (after.misses - before.misses) +
                                (after.bypasses - before.bypasses);
    return run;
}

double
jobSpanSeconds(const ReplicaRun &run)
{
    double ns = 0.0;
    for (const SpanLog &log : run.logs) {
        for (const Span &s : log.spans()) {
            if (s.parent < 0)
                ns += static_cast<double>(s.endNs - s.startNs);
        }
    }
    return ns * 1e-9;
}

void
setReplicaLayers(Report &report, const ReplicaRun &run)
{
    const auto totals = layerTotals(run.logs);
    const auto get = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? LayerTotals{} : it->second;
    };
    const ReplicaCounters &c = run.counters;

    report.set("trace.replay.ns_per_access",
               get("trace.replay").selfNsPerWork(), "ns");
    report.set("core.stream_cache.hit_ratio",
               ratio(c.cacheHits, c.cacheLookups), "ratio");
    report.set("core.stream_cache.acquire_ms",
               get("core.stream_cache.acquire").selfNsPerSpan() * 1e-6, "ms");
    report.set("mem.plan.ns_per_access", get("mem.plan").selfNsPerWork(),
               "ns");
    report.set("mem.plan.eligible_ratio",
               ratio(c.plannedChunks, c.leaderChunks), "ratio");
    report.set("mem.plan.shared_ratio", ratio(c.sharedApplies, c.applyCalls),
               "ratio");
    for (const char *scheme : {"6t", "rmw", "wg", "wgrb"}) {
        const std::string name = std::string("core.apply.") + scheme;
        if (totals.count(name))
            report.set(name + ".ns_per_access",
                       totals.at(name).selfNsPerWork(), "ns");
    }
    if (totals.count("core.level_stack")) {
        report.set("core.level_stack.ns_per_access",
                   get("core.level_stack").selfNsPerWork(), "ns");
        const double kacc = static_cast<double>(c.stackedRequests) / 1000.0;
        report.set("core.l2.fetches_per_kaccess",
                   static_cast<double>(c.l2Fetches) / kacc, "1/kaccess");
        report.set("core.l2.writeback_words_per_kaccess",
                   static_cast<double>(c.l2WritebackWords) / kacc,
                   "1/kaccess");
        report.set("core.l2.back_invalidations_per_kaccess",
                   static_cast<double>(c.backInvalidations) / kacc,
                   "1/kaccess");
    }
    report.set("core.controller.construct_us",
               get("core.controller.construct").selfNsPerSpan() * 1e-3, "us");
    report.set("sram.energy.snapshot_us",
               get("sram.energy.snapshot").selfNsPerSpan() * 1e-3, "us");

    const LayerTotals job = get("job");
    report.set("obs.span_coverage_pct",
               job.totalNs > 0.0
                   ? 100.0 * (job.totalNs - job.selfNs) / job.totalNs
                   : 0.0,
               "%");
}

void
setGenerateLayer(Report &report,
                 const std::vector<trace::StreamParams> &profiles,
                 std::uint64_t accesses)
{
    std::vector<SpanLog> logs(1);
    std::vector<trace::MemAccess> buf(core::MultiSchemeRunner::kChunkAccesses);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        trace::MarkovStream gen(profiles[p]);
        std::uint64_t done = 0;
        while (done < accesses) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(buf.size(), accesses - done));
            const ScopedSpan s(logs[0], "trace.generate",
                               static_cast<std::uint32_t>(p), want);
            const std::size_t got = gen.fillChunk(buf.data(), want);
            if (got == 0)
                break;
            done += got;
        }
    }
    report.set("trace.generate.ns_per_access",
               layerTotals(logs)["trace.generate"].selfNsPerWork(), "ns");
}

std::vector<sram::FaultMapConfig>
distinctFaultKeys(const std::vector<sram::FaultMapConfig> &keys)
{
    std::vector<sram::FaultMapConfig> out;
    std::unordered_set<std::string> seen;
    for (const sram::FaultMapConfig &k : keys) {
        if (seen.insert(core::FaultMapCache::key(k)).second)
            out.push_back(k);
    }
    return out;
}

FaultProbe
probeFaultMaps(const std::vector<sram::FaultMapConfig> &keys)
{
    FaultProbe probe;
    std::vector<SpanLog> logs(1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const ScopedSpan s(logs[0], "sram.fault_map",
                           static_cast<std::uint32_t>(i), 1);
        sram::runFaultMapCampaign(keys[i]);
    }
    const LayerTotals t = layerTotals(logs)["sram.fault_map"];
    probe.keys = keys.size();
    probe.totalSeconds = t.totalNs * 1e-9;
    probe.campaignMs = t.selfNsPerSpan() * 1e-6;
    return probe;
}

void
setFaultLayers(Report &report, const FaultProbe &probe, std::uint64_t hits,
               std::uint64_t misses, std::size_t distinct,
               double wall_seconds)
{
    report.set("sram.fault_map.ms_per_campaign", probe.campaignMs, "ms");
    report.set("core.fault_cache.hit_ratio", ratio(hits, hits + misses),
               "ratio");
    report.set("core.fault_cache.dup_fills",
               static_cast<double>(misses) - static_cast<double>(distinct),
               "count");
    report.set("core.vdd_sweep.fault_map_share",
               wall_seconds > 0.0 ? static_cast<double>(misses) *
                                        probe.campaignMs * 1e-3 / wall_seconds
                                  : 0.0,
               "ratio");
}

std::vector<std::vector<core::SchemeRunResult>>
setSweepLayers(Report &report, std::vector<core::SweepJob> jobs,
               const core::RunConfig &rc, unsigned workers)
{
    std::vector<Clock::time_point> start(jobs.size()), end(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].prepare = [&start, i](core::MultiSchemeRunner &) {
            start[i] = Clock::now();
        };
        jobs[i].inspect = [&end, i](core::MultiSchemeRunner &) {
            end[i] = Clock::now();
        };
    }
    core::ParallelSweeper sweeper(workers);
    sweeper.setProgress(false);
    const auto t0 = Clock::now();
    auto results = sweeper.run(jobs, rc, "perfbench");
    const double wall = secondsSince(t0);

    std::vector<double> job_ms, wait_ms;
    double busy = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double ms =
            std::chrono::duration<double, std::milli>(end[i] - start[i])
                .count();
        job_ms.push_back(ms);
        wait_ms.push_back(
            std::chrono::duration<double, std::milli>(start[i] - t0).count());
        busy += ms * 1e-3;
    }
    double mean_wait = 0.0;
    for (const double w : wait_ms)
        mean_wait += w / static_cast<double>(wait_ms.size());
    const double pool = static_cast<double>(
        std::max<std::size_t>(1, std::min<std::size_t>(workers, jobs.size())));
    report.set("core.sweep.job_p50_ms", median(job_ms), "ms");
    report.set("core.sweep.job_p99_ms", quantile(job_ms, 0.99), "ms");
    report.set("core.sweep.queue_wait_ms", mean_wait, "ms");
    report.set("core.sweep.worker_busy_ratio",
               wall > 0.0 ? busy / (pool * wall) : 0.0, "ratio");
    return results;
}

void
setObsLayers(Report &report, const std::vector<double> &off,
             const std::vector<double> &on, double parallel_span_s,
             unsigned workers, double serial_span_s)
{
    // Each pair ran back to back, so its ratio cancels the host's drift.
    std::vector<double> ratios;
    for (std::size_t i = 0; i < std::min(off.size(), on.size()); ++i)
        ratios.push_back(on[i] / off[i]);
    report.set("obs.trace_overhead_pct", 100.0 * (median(ratios) - 1.0), "%");
    const double untraced_seconds = median(off);
    report.set("obs.wall_share_pct",
               100.0 *
                   (parallel_span_s / static_cast<double>(workers) +
                    serial_span_s) /
                   untraced_seconds,
               "%");
}

} // namespace perfbench
