/**
 * @file
 * The four benchmark workloads. Each has an untraced run (end-to-end
 * metrics), a traced run (per-layer metrics) and a set-up probe that
 * builds the inputs and returns where the first job would be
 * submitted.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <functional>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/sweep.hh"
#include "layers.hh"

namespace perfbench
{

struct Workload
{
    const char *name;
    Report (*run)(const Options &);
    Report (*trace)(const Options &);
    /** Build the inputs, call @p ready, then tear down. */
    void (*setup)(const Options &, const std::function<void()> &ready);
};

/** Every workload, in the order the benchmark documents them. */
const std::vector<Workload> &workloads();

Report runSpecSweep(const Options &o);
Report traceSpecSweep(const Options &o);
void setupSpecSweep(const Options &o, const std::function<void()> &ready);

Report runVddL2Sweep(const Options &o);
Report traceVddL2Sweep(const Options &o);
void setupVddL2Sweep(const Options &o, const std::function<void()> &ready);

Report runExploreGrid(const Options &o);
Report traceExploreGrid(const Options &o);
void setupExploreGrid(const Options &o, const std::function<void()> &ready);

Report runDaemonMix(const Options &o);
Report traceDaemonMix(const Options &o);
void setupDaemonMix(const Options &o, const std::function<void()> &ready);

/** The replica form of sweep jobs (same workload, key and configs). */
std::vector<ReplicaJob> toReplica(const std::vector<c8t::core::SweepJob> &jobs);

/**
 * obs.trace_overhead_pct's samples: @p job run twice, once with the
 * library's phase profiler (obs::prof, what C8T_PROF=1 turns on) off
 * and once with it on, the order swapped on every other @p rep; rep 0
 * first runs it once untimed. @p job gets whether the profiler is on
 * and returns its wall seconds, which go to @p off or @p on. The
 * profiler is off again afterwards.
 */
void timeProfilerOffOn(unsigned rep, const std::function<double(bool)> &job,
                       std::vector<double> &off, std::vector<double> &on);

/** Clear the process-wide stream and fault-map caches, so a job starts
 *  from the state a fresh process starts from. */
void clearGlobalCaches();

/** Serialize a result's JSON document with @p dump into a string. */
std::string document(const std::function<void(std::ostream &)> &dump);

/** Mean microseconds of @p fn over @p reps calls. */
double meanMicros(unsigned reps, const std::function<void()> &fn);

/** Number rendered as a JSON value. */
std::string jsonNum(double v);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
