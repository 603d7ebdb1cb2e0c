/**
 * @file
 * Tests for the voltage sweep driver (core/vdd_sweep.hh) and the
 * controller's operating-point wiring (DESIGN.md §10).
 *
 * The two contracts pinned here:
 *   - nominal identity: a voltage model attached at nominal Vdd is
 *     byte-identical to no model at all — stats dump, JSON document
 *     and event totals;
 *   - determinism: the sweep result (including the Monte-Carlo fault
 *     maps) is bit-identical for any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/controller.hh"
#include "core/simulator.hh"
#include "core/vdd_sweep.hh"
#include "mem/functional_mem.hh"
#include "obs/event_ring.hh"
#include "obs/metrics.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;
using core::CacheController;
using core::ControllerConfig;
using core::RunConfig;
using core::VddSweepResult;
using core::VddSweepSpec;
using core::WriteScheme;

std::vector<trace::MemAccess>
gccStream(std::uint64_t n)
{
    trace::MarkovStream gen(trace::specProfile("gcc"));
    std::vector<trace::MemAccess> out(n);
    for (auto &a : out)
        gen.next(a);
    return out;
}

VddSweepSpec
testSpec()
{
    VddSweepSpec spec;
    spec.makeGenerator = [] {
        return std::make_unique<trace::MarkovStream>(
            trace::specProfile("gcc"));
    };
    spec.streamKey = "vdd_sweep_test:gcc";
    return spec;
}

// ---------------------------------------------------------------------
// Satellite: nominal-Vdd identity. A model attached at nominal is the
// detached simulator, byte for byte.
// ---------------------------------------------------------------------

TEST(VddNominalIdentity, AttachedAtNominalIsByteIdentical)
{
    const auto stream = gccStream(40'000);

    for (WriteScheme scheme :
         {WriteScheme::SixTDirect, WriteScheme::Rmw,
          WriteScheme::WriteGroupingReadBypass}) {
        ControllerConfig detached;
        detached.scheme = scheme;
        ASSERT_EQ(detached.vdd, 0.0);

        ControllerConfig attached = detached;
        attached.vdd = attached.vmodel.nominalVdd; // explicit nominal

        mem::FunctionalMemory mem_a, mem_b;
        CacheController a(detached, mem_a);
        CacheController b(attached, mem_b);
        EXPECT_FALSE(a.vddActive());
        EXPECT_FALSE(b.vddActive());

        obs::EventRing ring_a(512), ring_b(512);
        a.attachEventRing(&ring_a);
        b.attachEventRing(&ring_b);
        for (const auto &acc : stream) {
            a.access(acc);
            b.access(acc);
        }

        // Human-readable dump.
        std::ostringstream dump_a, dump_b;
        a.dumpStats(dump_a);
        b.dumpStats(dump_b);
        EXPECT_EQ(dump_a.str(), dump_b.str()) << toString(scheme);

        // JSON document, including the absence of vdd.* gauges.
        stats::Registry reg_a, reg_b;
        a.registerStats(reg_a);
        b.registerStats(reg_b);
        std::ostringstream json_a, json_b;
        reg_a.dumpJson(json_a);
        reg_b.dumpJson(json_b);
        EXPECT_EQ(json_a.str(), json_b.str()) << toString(scheme);
        EXPECT_EQ(json_b.str().find("vdd."), std::string::npos);

        // Event totals.
        EXPECT_EQ(ring_a.typeCounts(), ring_b.typeCounts())
            << toString(scheme);
        EXPECT_EQ(a.cycle(), b.cycle()) << toString(scheme);
        EXPECT_EQ(a.dynamicEnergy(), b.dynamicEnergy())
            << toString(scheme);
    }
}

TEST(VddNominalIdentity, SubNominalVddActuallyChangesTheRun)
{
    const auto stream = gccStream(20'000);

    ControllerConfig nominal;
    nominal.scheme = WriteScheme::Rmw;
    ControllerConfig low = nominal;
    low.vdd = 0.7;

    mem::FunctionalMemory mem_a, mem_b;
    CacheController a(nominal, mem_a);
    CacheController b(low, mem_b);
    EXPECT_FALSE(a.vddActive());
    EXPECT_TRUE(b.vddActive());
    EXPECT_DOUBLE_EQ(b.vddPoint().vdd, 0.7);

    for (const auto &acc : stream) {
        a.access(acc);
        b.access(acc);
    }

    // CV^2 cuts dynamic energy, the alpha-power delay adds cycles;
    // functional behaviour (hits, misses, data) is untouched.
    EXPECT_LT(b.dynamicEnergy(), a.dynamicEnergy() * 0.55);
    EXPECT_GT(b.cycle(), a.cycle());
    EXPECT_EQ(a.requests(), b.requests());
    EXPECT_EQ(a.demandAccesses(), b.demandAccesses());
}

// ---------------------------------------------------------------------
// The sweep driver.
// ---------------------------------------------------------------------

TEST(VddSweep, EndToEndCurvesMatchThePaperStory)
{
    const VddSweepSpec spec = testSpec();
    const RunConfig rc{2'000, 20'000};
    const VddSweepResult result = core::runVddSweep(spec, rc);

    EXPECT_EQ(result.workload, "gcc");
    ASSERT_EQ(result.curves.size(), spec.schemes.size());
    ASSERT_GE(result.grid.size(), 8u);
    for (const core::VddCurve &c : result.curves)
        ASSERT_EQ(c.points.size(), result.grid.size());

    const core::VddCurve *sixt = result.curve(WriteScheme::SixTDirect);
    const core::VddCurve *rmw = result.curve(WriteScheme::Rmw);
    const core::VddCurve *wg = result.curve(WriteScheme::WriteGrouping);
    const core::VddCurve *wgrb =
        result.curve(WriteScheme::WriteGroupingReadBypass);
    ASSERT_NE(sixt, nullptr);
    ASSERT_NE(rmw, nullptr);
    ASSERT_NE(wg, nullptr);
    ASSERT_NE(wgrb, nullptr);
    EXPECT_EQ(result.curve(WriteScheme::LocalRmw), nullptr);

    // The headline: 6T runs on the 6T cell and stops scaling first;
    // every 8T scheme shares the same (cell, Vdd) fault maps, so all
    // three reach the same, strictly lower min-Vdd.
    EXPECT_EQ(sixt->cell, sram::CellType::SixT);
    EXPECT_EQ(rmw->cell, sram::CellType::EightT);
    EXPECT_GT(sixt->minVdd, 0.0);
    EXPECT_LT(rmw->minVdd, sixt->minVdd);
    EXPECT_DOUBLE_EQ(wg->minVdd, rmw->minVdd);
    EXPECT_DOUBLE_EQ(wgrb->minVdd, rmw->minVdd);

    for (std::size_t gi = 0; gi < result.grid.size(); ++gi) {
        // Write grouping recoups the RMW tax at every operating point.
        EXPECT_LT(wgrb->points[gi].energyPerAccess,
                  rmw->points[gi].energyPerAccess)
            << result.grid[gi];
        EXPECT_LT(wg->points[gi].energyPerAccess,
                  rmw->points[gi].energyPerAccess)
            << result.grid[gi];
        // Identical fault maps for every 8T scheme at each point.
        EXPECT_EQ(rmw->points[gi].faults.failedWords(),
                  wgrb->points[gi].faults.failedWords())
            << result.grid[gi];
        // Per-point bookkeeping is coherent.
        const core::VddPointResult &p = wgrb->points[gi];
        EXPECT_DOUBLE_EQ(p.energyPerAccess,
                         p.dynamicEnergyPerAccess +
                             p.leakageEnergyPerAccess);
        EXPECT_GT(p.cyclesPerAccess, 0.0);
        EXPECT_GT(p.edpPerAccess, 0.0);
    }

    // Nominal heads every curve and is always operational.
    EXPECT_TRUE(sixt->points.front().operational);
    EXPECT_TRUE(wgrb->points.front().operational);
    EXPECT_EQ(wgrb->points.front().point.energyScale, 1.0);
}

TEST(VddSweep, ResultIsIdenticalForAnyWorkerCount)
{
    VddSweepSpec spec = testSpec();
    spec.grid = {1.0, 0.85, 0.7, 0.6}; // keep the matrix small
    const RunConfig rc{1'000, 10'000};

    std::vector<std::string> dumps;
    for (unsigned workers : {1u, 2u, 8u}) {
        const VddSweepResult r = core::runVddSweep(spec, rc, workers);
        std::ostringstream os;
        r.dumpJson(os);
        dumps.push_back(os.str());
    }
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(dumps[0], dumps[2]);
}

// ---------------------------------------------------------------------
// Timing classes: grid points whose swept level runs at the same
// scaled latencies share one replay, re-priced per point. Every point
// must still be, field for field, the run of its own configuration.
// ---------------------------------------------------------------------

/** The configuration runVddSweep evaluates for @p scheme at @p vdd. */
ControllerConfig
pointConfig(const VddSweepSpec &spec, WriteScheme scheme, double vdd)
{
    ControllerConfig cfg;
    cfg.cache = spec.cache;
    cfg.vmodel = spec.model;
    if (spec.lowerLevels.empty()) {
        cfg.scheme = scheme;
        cfg.vdd = vdd;
    } else {
        cfg.scheme = spec.topScheme;
        cfg.vdd = spec.topVdd;
        cfg.lowerLevels = spec.lowerLevels;
        cfg.lowerLevels.front().scheme = scheme;
        cfg.lowerLevels.front().vdd = vdd;
    }
    return cfg;
}

struct ClassGrid
{
    std::vector<double> grid;
    std::uint64_t classes; ///< distinct scaled-latency triples
};

TEST(VddSweepClasses, EveryPointEqualsAFreshRunOfItsOwnConfig)
{
    const RunConfig rc{1'000, 8'000};
    const std::vector<ClassGrid> grids = {
        {sram::VddModel::defaultGrid(), 7},
        {{0.99, 0.98, 0.97}, 1}, // one class, all below nominal
        {{1.05, 1.00}, 1},       // above nominal keeps nominal timing
    };
    for (const bool hier : {false, true}) {
        for (const ClassGrid &g : grids) {
            VddSweepSpec spec = testSpec();
            spec.grid = g.grid;
            if (hier)
                spec.lowerLevels.push_back(core::LevelConfig{});

            // The reference: one fresh runner per (scheme, point).
            std::vector<std::vector<core::SchemeRunResult>> expected(
                spec.schemes.size());
            for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
                for (const double vdd : spec.grid) {
                    core::MultiSchemeRunner runner(
                        {pointConfig(spec, spec.schemes[si], vdd)});
                    const auto gen = spec.makeGenerator();
                    expected[si].push_back(runner.run(*gen, rc).front());
                }
            }

            for (const unsigned workers : {1u, 4u}) {
                const VddSweepResult r =
                    core::runVddSweep(spec, rc, workers);
                EXPECT_EQ(obs::globalMetrics().sweep().jobsTotal,
                          g.classes)
                    << "hier=" << hier << " grid[0]=" << g.grid[0];
                ASSERT_EQ(r.curves.size(), spec.schemes.size());
                for (std::size_t si = 0; si < spec.schemes.size(); ++si) {
                    for (std::size_t gi = 0; gi < spec.grid.size(); ++gi) {
                        EXPECT_TRUE(r.curves[si].points[gi].run ==
                                    expected[si][gi])
                            << "hier=" << hier << " workers=" << workers
                            << " scheme=" << r.curves[si].scheme
                            << " vdd=" << spec.grid[gi];
                    }
                }
            }
        }
    }
}

TEST(VddSweepClasses, DefaultGridSubmitsOneJobPerTimingClass)
{
    VddSweepSpec spec = testSpec();
    const VddSweepResult r = core::runVddSweep(spec, RunConfig{200, 2'000});
    ASSERT_EQ(r.grid.size(), 11u);
    // {1.00}, {0.95..0.80}, {0.75, 0.70}, then 0.65 .. 0.50 alone.
    EXPECT_EQ(obs::globalMetrics().sweep().jobsTotal, 7u);
    EXPECT_EQ(obs::globalMetrics().sweep().jobsDone, 7u);
}

TEST(VddSweepClasses, ScaledLatencyKeepsTheDetachedCase)
{
    const sram::VddModel model;
    const core::LatencyParams base;
    EXPECT_EQ(core::scaledLatency(base, model, 0.0), base);
    EXPECT_EQ(core::scaledLatency(base, model, 1.0), base);

    // The controller runs at exactly the helper's latencies.
    const core::LatencyParams low = core::scaledLatency(base, model, 0.7);
    EXPECT_GT(low.rowReadCycles, base.rowReadCycles);
    EXPECT_EQ(low.missPenaltyCycles, base.missPenaltyCycles);
    ControllerConfig cfg;
    cfg.vdd = 0.7;
    mem::FunctionalMemory memory;
    const CacheController ctrl(cfg, memory);
    EXPECT_EQ(ctrl.config().latency, low);
}

TEST(VddSweep, DumpJsonIsVersionedAndWellFormed)
{
    VddSweepSpec spec = testSpec();
    spec.grid = {1.0, 0.7};
    const VddSweepResult r =
        core::runVddSweep(spec, RunConfig{500, 5'000});

    std::ostringstream os;
    r.dumpJson(os);
    const std::string out = os.str();
    EXPECT_EQ(out.find("{\"schema_version\":5,\"kind\":\"vdd_sweep\""),
              0u);
    for (const char *key :
         {"\"workload\":\"gcc\"", "\"failure_threshold\"", "\"grid\"",
          "\"curves\"", "\"scheme\":\"6T\"", "\"scheme\":\"WG+RB\"",
          "\"cell\":\"8T\"", "\"min_vdd\"", "\"energy_per_access\"",
          "\"post_ecc_failure_rate\"", "\"operational\"",
          "\"delay_factor\""}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
    EXPECT_EQ(out.find(",}"), std::string::npos);
    EXPECT_EQ(out.find(",]"), std::string::npos);
}

TEST(VddSweep, RegisterStatsExposesPerSchemeSummaries)
{
    VddSweepSpec spec = testSpec();
    spec.grid = {1.0, 0.7};
    VddSweepResult r = core::runVddSweep(spec, RunConfig{500, 5'000});

    stats::Registry reg;
    r.registerStats(reg);
    for (const char *name :
         {"vdd_sweep.6T.min_vdd", "vdd_sweep.RMW.min_vdd",
          "vdd_sweep.WG.min_vdd", "vdd_sweep.WG+RB.min_vdd",
          "vdd_sweep.WG+RB.energy_per_access_at_min"}) {
        ASSERT_NE(reg.gauge(name), nullptr) << name;
    }
    EXPECT_DOUBLE_EQ(reg.gauge("vdd_sweep.6T.min_vdd")->value(),
                     r.curve(WriteScheme::SixTDirect)->minVdd);
}

TEST(VddSweep, SpecValidationRejectsBrokenInput)
{
    const RunConfig rc{100, 1'000};

    VddSweepSpec no_factory = testSpec();
    no_factory.makeGenerator = nullptr;
    EXPECT_THROW(core::runVddSweep(no_factory, rc),
                 std::invalid_argument);

    VddSweepSpec empty_grid = testSpec();
    empty_grid.grid.clear();
    EXPECT_THROW(core::runVddSweep(empty_grid, rc),
                 std::invalid_argument);

    VddSweepSpec ascending = testSpec();
    ascending.grid = {0.5, 0.7, 1.0};
    EXPECT_THROW(core::runVddSweep(ascending, rc),
                 std::invalid_argument);

    VddSweepSpec no_schemes = testSpec();
    no_schemes.schemes.clear();
    EXPECT_THROW(core::runVddSweep(no_schemes, rc),
                 std::invalid_argument);
}

} // anonymous namespace
