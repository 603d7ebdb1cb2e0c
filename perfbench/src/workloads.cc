/**
 * @file
 * Workload table and helpers shared by the workloads.
 */

#include "workloads.hh"

#include <sstream>

#include "core/fault_cache.hh"
#include "core/stream_cache.hh"
#include "obs/prof.hh"
#include "stats/json.hh"

namespace perfbench
{

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        {"spec_sweep", runSpecSweep, traceSpecSweep, setupSpecSweep},
        {"vdd_l2_sweep", runVddL2Sweep, traceVddL2Sweep, setupVddL2Sweep},
        {"explore_grid", runExploreGrid, traceExploreGrid, setupExploreGrid},
        {"daemon_mix", runDaemonMix, traceDaemonMix, setupDaemonMix},
    };
    return table;
}

std::vector<ReplicaJob>
toReplica(const std::vector<c8t::core::SweepJob> &jobs)
{
    std::vector<ReplicaJob> out;
    out.reserve(jobs.size());
    for (const c8t::core::SweepJob &j : jobs)
        out.push_back(ReplicaJob{j.streamKey, j.makeGenerator, j.configs});
    return out;
}

void
timeProfilerOffOn(unsigned rep, const std::function<double(bool)> &job,
                  std::vector<double> &off, std::vector<double> &on)
{
    struct ProfilerOff
    {
        ~ProfilerOff() { c8t::obs::prof::setEnabled(false); }
    } const restore;
    // The process's first run pays for page faults and allocator
    // growth; neither side should carry that.
    if (rep == 0)
        job(false);
    for (const bool prof : {rep % 2 == 1, rep % 2 == 0}) {
        c8t::obs::prof::setEnabled(prof);
        const double seconds = job(prof);
        c8t::obs::prof::setEnabled(false);
        (prof ? on : off).push_back(seconds);
    }
}

void
clearGlobalCaches()
{
    c8t::core::globalStreamCache().clear();
    c8t::core::globalFaultMapCache().clear();
}

std::string
document(const std::function<void(std::ostream &)> &dump)
{
    std::ostringstream os;
    dump(os);
    return os.str();
}

double
meanMicros(unsigned reps, const std::function<void()> &fn)
{
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < reps; ++i)
        fn();
    return secondsSince(t0) * 1e6 / static_cast<double>(reps);
}

std::string
jsonNum(double v)
{
    std::ostringstream os;
    c8t::stats::jsonNumber(os, v);
    return os.str();
}

} // namespace perfbench
