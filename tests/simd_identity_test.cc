/**
 * @file
 * SIMD-dispatch and batched-pipeline identity guarantees.
 *
 * The way-compare kernel (mem/simd.hh) and the set-batched chunk
 * pipeline (TagArray::planChunk + CacheController::runPlannedChunk)
 * are pure performance mechanisms: every dispatch level and both
 * drive paths must be invisible in every result. This suite pins
 * that end to end:
 *
 *  1. The way-compare kernels themselves produce bit-identical match
 *     masks at every level, for every ways count and tag pattern.
 *  2. Full runs over all 25 calibrated SPEC profiles and every
 *     kernel workload produce bit-identical SchemeRunResults and
 *     byte-identical stats-registry JSON under forced scalar, SSE2,
 *     AVX2 and auto dispatch.
 *  3. The parallel sweep engine is level-invariant across 1/2/8
 *     workers.
 *  4. The recorded event stream (the legacy per-access path, which
 *     event observers force) is identical at every level.
 *  5. The planned chunk pipeline reproduces the per-access access()
 *     loop bit-for-bit, including the stats JSON.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/options.hh"
#include "core/controller.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "mem/simd.hh"
#include "obs/event_ring.hh"
#include "stats/registry.hh"
#include "trace/markov_stream.hh"
#include "trace/replay.hh"
#include "trace/spec_profiles.hh"

namespace
{

using namespace c8t;
using core::CacheController;
using core::ControllerConfig;
using core::RunConfig;
using core::SchemeRunResult;
using core::WriteScheme;
using mem::simd::SimdLevel;

/** Every level this binary + CPU can actually run (scalar first). */
std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    for (SimdLevel l : {SimdLevel::Sse2, SimdLevel::Avx2}) {
        if (mem::simd::setLevel(l) == l)
            levels.push_back(l);
    }
    return levels;
}

/** Restore dispatch to the environment-resolved default on scope
 *  exit so test order cannot leak a forced level. */
struct LevelGuard
{
    ~LevelGuard() { mem::simd::setLevel(mem::simd::bestSupported()); }
};

/** The schemes every identity run covers (the four the figures use),
 *  on @p cache (default: the paper's 64 KB / 4-way / 32 B LRU L1). */
std::vector<ControllerConfig>
allSchemeConfigs(const mem::CacheConfig &cache = mem::CacheConfig{})
{
    std::vector<ControllerConfig> cfgs;
    for (WriteScheme s :
         {WriteScheme::SixTDirect, WriteScheme::Rmw,
          WriteScheme::WriteGrouping,
          WriteScheme::WriteGroupingReadBypass}) {
        ControllerConfig c;
        c.cache = cache;
        c.scheme = s;
        cfgs.push_back(c);
    }
    return cfgs;
}

/** One full multi-scheme run plus the per-controller stats JSON. */
struct RunDigest
{
    std::vector<SchemeRunResult> results;
    std::vector<std::string> statsJson;
};

/** Run @p spec through all schemes at the *current* dispatch level. */
RunDigest
runWorkload(const std::string &spec, const RunConfig &rc)
{
    core::MultiSchemeRunner runner(allSchemeConfigs());
    auto gen = app::makeWorkload(spec);
    RunDigest d;
    d.results = runner.run(*gen, rc);
    for (std::size_t i = 0; i < d.results.size(); ++i) {
        stats::Registry reg;
        runner.controller(i).registerStats(reg);
        std::ostringstream os;
        reg.dumpJson(os);
        d.statsJson.push_back(os.str());
    }
    return d;
}

/** Field-wise bit-equality of two results (doubles compared exactly:
 *  the identity claim is bit-level, not approximate). */
void
expectSameResult(const SchemeRunResult &a, const SchemeRunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.workload, b.workload) << what;
    EXPECT_EQ(a.scheme, b.scheme) << what;
    EXPECT_EQ(a.requests, b.requests) << what;
    EXPECT_EQ(a.reads, b.reads) << what;
    EXPECT_EQ(a.writes, b.writes) << what;
    EXPECT_EQ(a.demandAccesses, b.demandAccesses) << what;
    EXPECT_EQ(a.demandRowReads, b.demandRowReads) << what;
    EXPECT_EQ(a.demandRowWrites, b.demandRowWrites) << what;
    EXPECT_EQ(a.fillAccesses, b.fillAccesses) << what;
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.misses, b.misses) << what;
    EXPECT_EQ(a.groupedWrites, b.groupedWrites) << what;
    EXPECT_EQ(a.bypassedReads, b.bypassedReads) << what;
    EXPECT_EQ(a.prematureWritebacks, b.prematureWritebacks) << what;
    EXPECT_EQ(a.silentWritesDetected, b.silentWritesDetected) << what;
    EXPECT_EQ(a.silentGroupsElided, b.silentGroupsElided) << what;
    EXPECT_EQ(a.meanGroupSize, b.meanGroupSize) << what;
    EXPECT_EQ(a.portStallCycles, b.portStallCycles) << what;
    EXPECT_EQ(a.portConflicts, b.portConflicts) << what;
    EXPECT_EQ(a.meanReadLatency, b.meanReadLatency) << what;
    EXPECT_EQ(a.dynamicEnergy, b.dynamicEnergy) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
}

void
expectSameDigest(const RunDigest &a, const RunDigest &b,
                 const std::string &what)
{
    ASSERT_EQ(a.results.size(), b.results.size()) << what;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        expectSameResult(a.results[i], b.results[i],
                         what + "/" + a.results[i].scheme);
        EXPECT_EQ(a.statsJson[i], b.statsJson[i])
            << what << "/" << a.results[i].scheme << ": stats JSON";
    }
}

TEST(SimdKernels, MatchMasksBitIdenticalAcrossLevels)
{
    // Tag patterns chosen to stress the compare: duplicates, the
    // SSE2 half-word trap (equal low halves, different high halves),
    // all-ones, zero, and odd tails for every ways count 1..16.
    const mem::Addr patterns[] = {
        0x0ull,
        0x1ull,
        0xffffffffffffffffull,
        0x00000001'00000002ull,
        0x00000002'00000001ull,
        0x12345678'12345678ull,
        0xdeadbeef'cafef00dull,
    };
    std::vector<mem::Addr> tags;
    for (std::uint32_t ways = 1; ways <= 16; ++ways) {
        tags.clear();
        for (std::uint32_t w = 0; w < ways; ++w)
            tags.push_back(patterns[w % std::size(patterns)]);
        for (mem::Addr needle : patterns) {
            const std::uint64_t scalar = mem::simd::matchBitsScalar(
                tags.data(), ways, needle);
            for (SimdLevel l : supportedLevels()) {
                EXPECT_EQ(mem::simd::matchBits(l, tags.data(), ways,
                                               needle),
                          scalar)
                    << "ways=" << ways << " needle=" << needle
                    << " level=" << mem::simd::toString(l);
            }
        }
    }
}

TEST(SimdKernels, AutoCalibrationPicksASupportedStableLevel)
{
    // The calibrated level must be executable (<= bestSupported())
    // and cached: C8T_SIMD=auto may not flap between runs inside one
    // process. Which level wins is host-dependent (the point of
    // measuring), so only the contract is pinned; correctness is
    // already covered by the mask-identity test above.
    const SimdLevel calibrated = mem::simd::autoCalibratedLevel();
    EXPECT_LE(static_cast<int>(calibrated),
              static_cast<int>(mem::simd::bestSupported()));
    EXPECT_EQ(mem::simd::autoCalibratedLevel(), calibrated);
    EXPECT_EQ(mem::simd::parseLevel("auto"), calibrated);
    EXPECT_EQ(mem::simd::parseLevel(""), calibrated);
}

TEST(SimdIdentity, SpecProfilesIdenticalAcrossLevels)
{
    LevelGuard guard;
    const RunConfig rc{1'000, 8'000};
    const auto levels = supportedLevels();
    for (const std::string &name : trace::specBenchmarkNames()) {
        mem::simd::setLevel(SimdLevel::Scalar);
        const RunDigest base = runWorkload("spec:" + name, rc);
        for (std::size_t i = 1; i < levels.size(); ++i) {
            mem::simd::setLevel(levels[i]);
            expectSameDigest(base, runWorkload("spec:" + name, rc),
                             name + "@" +
                                 mem::simd::toString(levels[i]));
        }
    }
}

TEST(SimdIdentity, KernelWorkloadsIdenticalAcrossLevels)
{
    LevelGuard guard;
    const RunConfig rc{1'000, 8'000};
    const auto levels = supportedLevels();
    for (const std::string &name : app::kernelNames()) {
        mem::simd::setLevel(SimdLevel::Scalar);
        const RunDigest base = runWorkload("kernel:" + name, rc);
        for (std::size_t i = 1; i < levels.size(); ++i) {
            mem::simd::setLevel(levels[i]);
            expectSameDigest(base, runWorkload("kernel:" + name, rc),
                             name + "@" +
                                 mem::simd::toString(levels[i]));
        }
    }
}

TEST(SimdIdentity, ParallelSweepIdenticalAcrossLevelsAndWorkers)
{
    LevelGuard guard;
    const mem::CacheConfig cache;
    const std::vector<WriteScheme> schemes = {
        WriteScheme::Rmw, WriteScheme::WriteGroupingReadBypass};
    const RunConfig rc{1'000, 8'000};

    mem::simd::setLevel(SimdLevel::Scalar);
    const auto base =
        core::ParallelSweeper(1).run(core::specSweepJobs(cache, schemes),
                                     rc, "simd_identity");

    for (SimdLevel l : supportedLevels()) {
        for (unsigned workers : {1u, 2u, 8u}) {
            mem::simd::setLevel(l);
            const auto got = core::ParallelSweeper(workers).run(
                core::specSweepJobs(cache, schemes), rc,
                "simd_identity");
            ASSERT_EQ(base.size(), got.size());
            for (std::size_t j = 0; j < base.size(); ++j) {
                ASSERT_EQ(base[j].size(), got[j].size());
                for (std::size_t s = 0; s < base[j].size(); ++s) {
                    expectSameResult(
                        base[j][s], got[j][s],
                        std::string("job ") + std::to_string(j) + "@" +
                            mem::simd::toString(l) + "/workers=" +
                            std::to_string(workers));
                }
            }
        }
    }
}

TEST(SimdIdentity, EventStreamIdenticalAcrossLevels)
{
    LevelGuard guard;
    constexpr std::uint64_t kAccesses = 10'000;
    auto buffer = std::make_shared<std::vector<trace::MemAccess>>();
    {
        trace::MarkovStream gen(trace::specProfile("gcc"));
        buffer->resize(kAccesses);
        gen.fillChunk(buffer->data(), kAccesses);
    }

    // Event observers force the per-access path; the recorded stream
    // (every field of every event, in order) must not depend on the
    // dispatch level the tag compares run at.
    auto record = [&](SimdLevel l) {
        mem::simd::setLevel(l);
        mem::FunctionalMemory memory;
        ControllerConfig cfg;
        cfg.scheme = WriteScheme::WriteGroupingReadBypass;
        CacheController ctrl(cfg, memory);
        obs::EventRing ring(1u << 18);
        ctrl.attachEventRing(&ring);
        for (const auto &a : *buffer)
            ctrl.access(a);
        ctrl.drain();
        // Ring sized to retain the whole run: wrap-around would make
        // the comparison silently partial.
        EXPECT_EQ(ring.dropped(), 0u);
        std::vector<obs::Event> events;
        events.reserve(ring.size());
        for (std::size_t i = 0; i < ring.size(); ++i)
            events.push_back(ring.at(i));
        return events;
    };

    const auto base = record(SimdLevel::Scalar);
    ASSERT_FALSE(base.empty());
    for (SimdLevel l : supportedLevels()) {
        const auto got = record(l);
        ASSERT_EQ(base.size(), got.size()) << mem::simd::toString(l);
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(base[i].seq, got[i].seq);
            EXPECT_EQ(base[i].accessIndex, got[i].accessIndex);
            EXPECT_EQ(base[i].cycle, got[i].cycle);
            EXPECT_EQ(base[i].addr, got[i].addr);
            EXPECT_EQ(base[i].set, got[i].set);
            EXPECT_EQ(base[i].type, got[i].type);
        }
    }
}

TEST(BatchedPipeline, PlannedChunksMatchPerAccessLoop)
{
    LevelGuard guard;
    const RunConfig rc{2'000, 20'000};
    auto buffer = std::make_shared<std::vector<trace::MemAccess>>();
    {
        trace::MarkovStream gen(trace::specProfile("gcc"));
        buffer->resize(rc.warmupAccesses + rc.measureAccesses);
        gen.fillChunk(buffer->data(), buffer->size());
    }

    // The baseline L1, plus the widest planned shape of each
    // deterministic policy (16 ways fills the LRU nibble word).
    std::vector<mem::CacheConfig> shapes(4);
    for (std::size_t k = 1; k < shapes.size(); ++k)
        shapes[k].ways = 16;
    shapes[2].replacement = mem::ReplKind::TreePlru;
    shapes[3].replacement = mem::ReplKind::Fifo;

    for (const mem::CacheConfig &shape : shapes) {
        for (SimdLevel l : supportedLevels()) {
            mem::simd::setLevel(l);
            ASSERT_TRUE(mem::TagArray(shape).planEligible())
                << shape.toString();

            // Batched: the runner plans each chunk and applies it through
            // runPlannedChunk (every shape above is plan-eligible).
            core::MultiSchemeRunner runner(allSchemeConfigs(shape));
            trace::ReplayGenerator replay("gcc", buffer);
            RunDigest batched;
            batched.results = runner.run(replay, rc);
            for (std::size_t i = 0; i < batched.results.size(); ++i) {
                stats::Registry reg;
                runner.controller(i).registerStats(reg);
                std::ostringstream os;
                reg.dumpJson(os);
                batched.statsJson.push_back(os.str());
            }

            // Reference: the historical one-access-at-a-time loop.
            RunDigest legacy;
            for (const ControllerConfig &cfg : allSchemeConfigs(shape)) {
                mem::FunctionalMemory memory;
                CacheController ctrl(cfg, memory);
                for (std::uint64_t i = 0; i < rc.warmupAccesses; ++i)
                    ctrl.access((*buffer)[i]);
                ctrl.resetStats();
                for (std::size_t i = rc.warmupAccesses; i < buffer->size();
                     ++i)
                    ctrl.access((*buffer)[i]);
                ctrl.drain();
                legacy.results.push_back(core::snapshotResult("gcc", ctrl));
                stats::Registry reg;
                ctrl.registerStats(reg);
                std::ostringstream os;
                reg.dumpJson(os);
                legacy.statsJson.push_back(os.str());
            }

            expectSameDigest(legacy, batched,
                             "planned " + shape.toString() + "@" +
                                 mem::simd::toString(l));
        }
    }
}

} // anonymous namespace
