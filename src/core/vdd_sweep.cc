/**
 * @file
 * Voltage sweep driver implementation.
 */

#include "core/vdd_sweep.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/fault_cache.hh"
#include "core/policies.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "sram/energy.hh"
#include "stats/json.hh"

namespace c8t::core
{

namespace
{

void
validate(const VddSweepSpec &spec)
{
    if (spec.grid.empty())
        throw std::invalid_argument("VddSweepSpec: empty grid");
    for (std::size_t i = 1; i < spec.grid.size(); ++i) {
        if (!(spec.grid[i] < spec.grid[i - 1]))
            throw std::invalid_argument(
                "VddSweepSpec: grid must be strictly descending");
    }
    if (spec.grid.back() <= 0.0)
        throw std::invalid_argument("VddSweepSpec: grid voltages must be > 0");
    if (spec.schemes.empty())
        throw std::invalid_argument("VddSweepSpec: no schemes");
    if (!spec.makeGenerator)
        throw std::invalid_argument("VddSweepSpec: no workload factory");
    if (spec.faultRows == 0)
        throw std::invalid_argument("VddSweepSpec: faultRows must be >= 1");
    for (const LevelConfig &l : spec.lowerLevels) {
        if (l.cache.blockBytes != spec.cache.blockBytes)
            throw std::invalid_argument(
                "VddSweepSpec: lower-level block size must match the "
                "top level's");
    }
    spec.model.validate();
}

/** The cache shape whose array the swept scheme runs on: the L1 for a
 *  single-level sweep, the L2 in hierarchy mode (the scheme axis and
 *  the grid voltage apply to the L2 there). */
const mem::CacheConfig &
sweptShape(const VddSweepSpec &spec)
{
    return spec.lowerLevels.empty() ? spec.cache
                                    : spec.lowerLevels.front().cache;
}

sram::CellType
cellOf(WriteScheme scheme)
{
    return schemeTraits(scheme).requiresEightT ? sram::CellType::EightT
                                               : sram::CellType::SixT;
}

/**
 * The grid partitioned into timing classes: groups of grid indices
 * (each descending, the groups in grid order) whose swept level runs
 * at the same scaled latencies. Supply voltage reaches a replay only
 * through those latencies and the per-event energy rates, and the
 * rates are applied after the run, so the points of one class share
 * one replay exactly (DESIGN.md §10).
 */
std::vector<std::vector<std::size_t>>
timingClasses(const VddSweepSpec &spec, const sram::VddModel &model)
{
    const LatencyParams base = spec.lowerLevels.empty()
                                   ? ControllerConfig{}.latency
                                   : spec.lowerLevels.front().latency;
    std::vector<LatencyParams> keys;
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
        const LatencyParams lat = scaledLatency(base, model, spec.grid[gi]);
        const auto it = std::find(keys.begin(), keys.end(), lat);
        if (it == keys.end()) {
            keys.push_back(lat);
            classes.push_back({gi});
        } else {
            classes[static_cast<std::size_t>(it - keys.begin())].push_back(
                gi);
        }
    }
    return classes;
}

/**
 * @p run, the snapshot of @p stack, re-priced at supply @p vdd: the
 * swept level's dynamic energy from its event counts at that point's
 * rates and the hierarchy total rebuilt in snapshotResult's addition
 * order — bit for bit the snapshot of a stack built at @p vdd.
 */
SchemeRunResult
repricedAt(SchemeRunResult run, const LevelStack &stack, bool hier,
           double vdd)
{
    const CacheController &swept = stack.level(hier ? 1 : 0);
    SchemeRunResult &level = hier ? run.levels.front() : run;
    level.dynamicEnergy = swept.dynamicEnergy(swept.eventRatesAt(vdd));
    level.totalDynamicEnergy = level.dynamicEnergy;
    run.totalDynamicEnergy = run.dynamicEnergy;
    for (const SchemeRunResult &lvl : run.levels)
        run.totalDynamicEnergy += lvl.dynamicEnergy;
    return run;
}

} // anonymous namespace

struct VddSweepBatch::CurveSetup
{
    /** Cell the scheme runs on. */
    sram::CellType cell = sram::CellType::EightT;

    /** Interleave degree of the swept array (the fault-map key). */
    std::uint32_t degree = 1;

    /** Swept array leakage power at nominal Vdd (W). */
    double leakNominal = 0.0;

    /** Leakage power outside the grid's reach (W): the pinned L1 at
     *  its own operating point in hierarchy mode, else 0. */
    double leakFixed = 0.0;
};

VddSweepBatch::VddSweepBatch(VddSweepSpec spec, std::string workload)
    : _spec(std::move(spec)), _workload(std::move(workload)),
      _model(_spec.model),
      _points(_spec.schemes.size(),
              std::vector<VddPointResult>(_spec.grid.size()))
{
    const bool hier = !_spec.lowerLevels.empty();
    const std::uint32_t degree =
        hier ? _spec.lowerLevels.front().interleaveDegree
             : ControllerConfig{}.interleaveDegree;
    const sram::TechParams tech = ControllerConfig{}.tech;

    // Hierarchy mode adds the pinned L1's leakage at its own (fixed)
    // operating point; the grid only scales the L2's.
    double leak_fixed = 0.0;
    if (hier) {
        const sram::EnergyModel top_em(
            arrayGeometry(_spec.cache, _spec.topScheme,
                          ControllerConfig{}.interleaveDegree),
            tech);
        const double top_scale =
            _spec.topVdd > 0.0
                ? _model.at(_spec.topVdd, cellOf(_spec.topScheme))
                      .leakageScale
                : 1.0;
        leak_fixed = top_em.leakagePower() * top_scale;
    }

    _setups.reserve(_spec.schemes.size());
    for (const WriteScheme s : _spec.schemes) {
        const sram::ArrayGeometry geom =
            arrayGeometry(sweptShape(_spec), s, degree);
        CurveSetup cs;
        cs.cell = cellOf(s);
        cs.degree = geom.interleaveDegree;
        cs.leakNominal = sram::EnergyModel(geom, tech).leakagePower();
        cs.leakFixed = leak_fixed;
        _setups.push_back(cs);
    }
}

VddSweepBatch::~VddSweepBatch() = default;

/** One grid point of one curve: the operating point, its fault map
 *  (fault maps depend on (seed, vdd, geometry, cell) only, so schemes
 *  of one cell flavour and degree share an evaluation, and the
 *  process-global memo shares it across requests too) and the
 *  per-access energy and delay of @p run. */
VddPointResult
VddSweepBatch::pointAt(const CurveSetup &cs, double vdd,
                       SchemeRunResult run) const
{
    VddPointResult pt;
    pt.vdd = vdd;
    pt.point = _model.at(vdd, cs.cell);

    sram::FaultMapConfig fmc;
    fmc.runSeed = _spec.runSeed;
    fmc.vdd = vdd;
    fmc.cell = cs.cell;
    fmc.pfailCell = pt.point.pfailCell;
    fmc.rows = _spec.faultRows;
    fmc.wordsPerRow =
        std::max<std::uint32_t>(1, sweptShape(_spec).setBytes() / 8);
    fmc.degree = cs.degree;
    pt.faults = globalFaultMapCache().evaluate(fmc);
    pt.operational =
        pt.faults.postEccFailureRate() <= _spec.failureThreshold;
    pt.run = std::move(run);

    const double requests = static_cast<double>(pt.run.requests);
    if (requests > 0.0) {
        const double period = _model.clockPeriod();
        const double seconds = static_cast<double>(pt.run.cycles) * period;
        // totalDynamicEnergy == dynamicEnergy bit-identically for a
        // single level; hierarchy-wide otherwise.
        pt.dynamicEnergyPerAccess = pt.run.totalDynamicEnergy / requests;
        pt.leakageEnergyPerAccess =
            (cs.leakFixed + cs.leakNominal * pt.point.leakageScale) *
            seconds / requests;
        pt.energyPerAccess =
            pt.dynamicEnergyPerAccess + pt.leakageEnergyPerAccess;
        pt.cyclesPerAccess = static_cast<double>(pt.run.cycles) / requests;
        pt.edpPerAccess = pt.energyPerAccess * pt.cyclesPerAccess * period;
    }
    return pt;
}

void
VddSweepBatch::appendJobs(std::vector<SweepJob> &jobs)
{
    const bool hier = !_spec.lowerLevels.empty();
    const std::vector<std::vector<std::size_t>> classes =
        timingClasses(_spec, _model);

    // One job per timing class: every job replays the identical stream
    // (shared through streamKey) with one controller per scheme, the
    // model attached at the class's highest voltage. Classes go out
    // lowest-Vdd first: the 6T campaigns there are the longest, so
    // they start first.
    for (auto c = classes.rbegin(); c != classes.rend(); ++c) {
        const std::vector<std::size_t> &members = *c;
        SweepJob job;
        job.makeGenerator = _spec.makeGenerator;
        job.streamKey = _spec.streamKey;
        job.vdd = _spec.grid[members.front()];
        job.configs.reserve(_spec.schemes.size());
        for (const WriteScheme s : _spec.schemes) {
            ControllerConfig cfg;
            cfg.cache = _spec.cache;
            cfg.vmodel = _spec.model;
            if (!hier) {
                cfg.scheme = s;
                cfg.vdd = job.vdd;
            } else {
                // Hierarchy mode: the L1 is pinned while the scheme
                // axis and the grid voltage ride on the L2.
                cfg.scheme = _spec.topScheme;
                cfg.vdd = _spec.topVdd;
                cfg.lowerLevels = _spec.lowerLevels;
                cfg.lowerLevels.front().scheme = s;
                cfg.lowerLevels.front().vdd = job.vdd;
            }
            job.configs.push_back(cfg);
        }
        // Build each grid point of the class on the worker: energy
        // re-priced at the point's own rates, fault maps through the
        // process-global memo. Each hook writes only its own class's
        // slots of _points.
        job.inspect = [this, hier, members](MultiSchemeRunner &runner) {
            // Re-pricing is energy materialization; the campaigns
            // inside carry their own fault_map scope.
            const obs::prof::ScopedPhase energy_scope(
                obs::prof::Phase::Energy);
            for (std::size_t si = 0; si < _spec.schemes.size(); ++si) {
                const LevelStack &stack = runner.stack(si);
                const SchemeRunResult run =
                    snapshotResult(_workload, stack);
                for (const std::size_t gi : members) {
                    const double vdd = _spec.grid[gi];
                    _points[si][gi] =
                        pointAt(_setups[si], vdd,
                                repricedAt(run, stack, hier, vdd));
                }
            }
        };
        jobs.push_back(std::move(job));
    }
}

std::vector<VddCurve>
VddSweepBatch::takeCurves()
{
    std::vector<VddCurve> curves;
    curves.reserve(_spec.schemes.size());
    for (std::size_t si = 0; si < _points.size(); ++si) {
        VddCurve curve;
        curve.scheme = toString(_spec.schemes[si]);
        curve.cell = _setups[si].cell;
        curve.points = std::move(_points[si]);

        // min-Vdd: the lowest voltage reachable from nominal through
        // operational points only — an operational island below a
        // failing point is unusable, DVFS descends the curve
        // continuously.
        for (const VddPointResult &pt : curve.points) {
            if (!pt.operational)
                break;
            curve.minVdd = pt.vdd;
        }
        curves.push_back(std::move(curve));
    }
    _points.clear();
    return curves;
}

/** Deferred bench-record state, armed by runVddSweep and consumed by
 *  emitBenchRecord(). Lives behind a unique_ptr so the header does not
 *  need the definition. */
struct VddSweepResult::Pending
{
    std::string label;
    RunConfig rc;
    unsigned workers = 0;
    std::uint64_t replayedConfigRuns = 0;
    double wallSeconds = 0.0;
    obs::PhaseWindow phases;
};

VddSweepResult::VddSweepResult() = default;
VddSweepResult::VddSweepResult(VddSweepResult &&) noexcept = default;
VddSweepResult &
VddSweepResult::operator=(VddSweepResult &&) noexcept = default;

VddSweepResult::~VddSweepResult()
{
    emitBenchRecord();
}

void
VddSweepResult::emitBenchRecord()
{
    if (!_pending)
        return;
    const std::unique_ptr<Pending> p = std::move(_pending);
    const obs::prof::PhaseTimes phases = p->phases.close();
    obs::appendBenchRecord("vdd_sweep", [&](std::ostream &os) {
        std::uint64_t config_runs = 0;
        for (const VddCurve &c : curves)
            config_runs += c.points.size();
        const double simulated =
            static_cast<double>(config_runs) *
            static_cast<double>(p->rc.warmupAccesses +
                                p->rc.measureAccesses);
        os << "\"kind\":\"vdd\",\"label\":\""
           << stats::jsonEscape(p->label) << "\""
           << ",\"grid_points\":" << grid.size()
           << ",\"schemes\":" << curves.size()
           << ",\"workers\":" << p->workers
           << ",\"config_runs\":" << config_runs
           << ",\"replayed_config_runs\":" << p->replayedConfigRuns
           << ",\"warmup_accesses\":" << p->rc.warmupAccesses
           << ",\"measure_accesses\":" << p->rc.measureAccesses
           << ",\"simulated_accesses\":"
           << static_cast<std::uint64_t>(simulated)
           << ",\"wall_seconds\":" << p->wallSeconds
           << ",\"accesses_per_sec\":"
           << (p->wallSeconds > 0.0 ? simulated / p->wallSeconds : 0.0)
           << ",\"min_vdd\":{";
        bool first = true;
        for (const VddCurve &c : curves) {
            os << (first ? "" : ",") << '"' << stats::jsonEscape(c.scheme)
               << "\":";
            stats::jsonNumber(os, c.minVdd);
            first = false;
        }
        os << "}";
    }, p->phases.active() ? &phases : nullptr);
    obs::writeGlobalMetrics();
}

const VddCurve *
VddSweepResult::curve(WriteScheme scheme) const
{
    const char *name = toString(scheme);
    for (const VddCurve &c : curves) {
        if (c.scheme == name)
            return &c;
    }
    return nullptr;
}

void
VddSweepResult::registerStats(stats::Registry &reg)
{
    for (const VddCurve &c : curves) {
        auto min_vdd = std::make_unique<stats::Gauge>(
            "vdd_sweep." + c.scheme + ".min_vdd",
            "lowest operational supply voltage (V)");
        min_vdd->set(c.minVdd);
        reg.add(*min_vdd);
        _gauges.push_back(std::move(min_vdd));

        // Energy per access at the min-Vdd point (the paper's payoff
        // number: what the low-voltage mode actually costs).
        double energy_at_min = 0.0;
        for (const VddPointResult &p : c.points) {
            if (p.vdd == c.minVdd) {
                energy_at_min = p.energyPerAccess;
                break;
            }
        }
        auto energy = std::make_unique<stats::Gauge>(
            "vdd_sweep." + c.scheme + ".energy_per_access_at_min",
            "total energy per access at min-Vdd (J)");
        energy->set(energy_at_min);
        reg.add(*energy);
        _gauges.push_back(std::move(energy));
    }
}

void
VddSweepResult::dumpJson(std::ostream &os) const
{
    const obs::prof::ScopedPhase serialize_scope(
        obs::prof::Phase::Serialize);
    os << "{\"schema_version\":" << stats::Registry::kJsonSchemaVersion
       << ",\"kind\":\"vdd_sweep\"";
    // New key only when the feature is active: single-level documents
    // stay byte-identical (modulo the schema version).
    if (hierarchy)
        os << ",\"hierarchy\":true";
    os << ",\"workload\":\"" << stats::jsonEscape(workload) << "\""
       << ",\"failure_threshold\":";
    stats::jsonNumber(os, failureThreshold);
    os << ",\"grid\":[";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        os << (i ? "," : "");
        stats::jsonNumber(os, grid[i]);
    }
    os << "],\"curves\":[";
    for (std::size_t ci = 0; ci < curves.size(); ++ci) {
        const VddCurve &c = curves[ci];
        os << (ci ? "," : "") << "{\"scheme\":\""
           << stats::jsonEscape(c.scheme) << "\""
           << ",\"cell\":\"" << sram::toString(c.cell) << "\""
           << ",\"min_vdd\":";
        stats::jsonNumber(os, c.minVdd);
        os << ",\"points\":[";
        for (std::size_t pi = 0; pi < c.points.size(); ++pi) {
            const VddPointResult &p = c.points[pi];
            os << (pi ? "," : "") << "{\"vdd\":";
            stats::jsonNumber(os, p.vdd);
            os << ",\"energy_scale\":";
            stats::jsonNumber(os, p.point.energyScale);
            os << ",\"leakage_scale\":";
            stats::jsonNumber(os, p.point.leakageScale);
            os << ",\"delay_factor\":";
            stats::jsonNumber(os, p.point.delayFactor);
            os << ",\"pfail_cell\":";
            stats::jsonNumber(os, p.point.pfailCell);
            os << ",\"fault_words\":" << p.faults.words
               << ",\"corrected\":" << p.faults.corrected
               << ",\"detected_uncorrectable\":"
               << p.faults.detectedUncorrectable
               << ",\"silent_corruptions\":" << p.faults.silentCorruptions
               << ",\"post_ecc_failure_rate\":";
            stats::jsonNumber(os, p.faults.postEccFailureRate());
            os << ",\"operational\":" << (p.operational ? "true" : "false")
               << ",\"dynamic_energy_per_access\":";
            stats::jsonNumber(os, p.dynamicEnergyPerAccess);
            os << ",\"leakage_energy_per_access\":";
            stats::jsonNumber(os, p.leakageEnergyPerAccess);
            os << ",\"energy_per_access\":";
            stats::jsonNumber(os, p.energyPerAccess);
            os << ",\"cycles_per_access\":";
            stats::jsonNumber(os, p.cyclesPerAccess);
            os << ",\"edp_per_access\":";
            stats::jsonNumber(os, p.edpPerAccess);
            os << '}';
        }
        os << "]}";
    }
    os << "]}";
}

VddSweepResult
runVddSweep(const VddSweepSpec &spec, const RunConfig &rc, unsigned workers)
{
    validate(spec);
    const auto t0 = std::chrono::steady_clock::now();
    // The record's phase block is the process rollup's growth across
    // this call and the caller's serialization of the result.
    const obs::PhaseWindow phases = obs::PhaseWindow::open();
    const bool hier = !spec.lowerLevels.empty();

    VddSweepResult result;
    result.workload = spec.makeGenerator()->name();
    result.failureThreshold = spec.failureThreshold;
    result.grid = spec.grid;
    result.hierarchy = hier;

    VddSweepBatch batch(spec, result.workload);
    std::vector<SweepJob> jobs;
    batch.appendJobs(jobs);

    // Hierarchy sweeps get their own label so their perf records never
    // pair with a single-level sweep of the same workload in
    // bench_diff (both kinds of record can land in one snapshot).
    const std::string label =
        "vdd_sweep:" + result.workload + (hier ? "+l2" : "");

    const ParallelSweeper sweeper(workers);
    sweeper.run(jobs, rc, label); // the inspect hooks filled the batch
    result.curves = batch.takeCurves();

    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    // Arm the deferred bench record: emitBenchRecord() (at the latest,
    // the result's destructor) writes it, so the caller's Serialize
    // scopes around dumpJson/table printing land in its phase block.
    result._pending = std::make_unique<VddSweepResult::Pending>();
    result._pending->label = label;
    result._pending->rc = rc;
    result._pending->workers = sweeper.workers();
    result._pending->replayedConfigRuns = jobs.size() * spec.schemes.size();
    result._pending->wallSeconds = wall;
    result._pending->phases = phases;
    return result;
}

} // namespace c8t::core
