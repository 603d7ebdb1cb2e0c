/**
 * @file
 * Tests for the calibrated Markov stream model: parameter validation,
 * determinism, and — the load-bearing property — that the measured
 * stream statistics converge to the configured targets.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "core/analyzer.hh"
#include "mem/addr.hh"
#include "trace/markov_stream.hh"
#include "trace/trace_io.hh"

namespace c8t::trace
{

/**
 * Without this, gtest prints a StreamParams parameter as its raw bytes,
 * which include the address of the name's buffer, so the registered
 * test names would differ from one build or run to the next.
 */
void
PrintTo(const StreamParams &p, std::ostream *os)
{
    *os << p.name;
}

} // namespace c8t::trace

namespace
{

using namespace c8t::trace;
using c8t::core::StreamAnalyzer;
using c8t::mem::AddrLayout;

StreamParams
defaultParams()
{
    StreamParams p;
    p.name = "test";
    p.seed = 77;
    return p;
}

TEST(StreamParams, DefaultIsValid)
{
    EXPECT_NO_THROW(defaultParams().validate());
}

TEST(StreamParams, RejectsOutOfRangeProbability)
{
    StreamParams p = defaultParams();
    p.silentFraction = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = defaultParams();
    p.rr = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(StreamParams, RejectsImpossiblePairShares)
{
    StreamParams p = defaultParams();
    // ww + wr exceeding the write share is unrealisable.
    p.readShare = 0.9;
    p.ww = 0.2;
    p.wr = 0.2;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(StreamParams, RejectsInfeasibleResidual)
{
    StreamParams p = defaultParams();
    // All writes are same-set writes: residual write probability < 0.
    p.readShare = 0.65;
    p.rr = 0.0;
    p.rw = 0.30;
    p.ww = 0.30;
    p.wr = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(StreamParams, RejectsTinyFootprint)
{
    StreamParams p = defaultParams();
    p.footprintBytes = 1024;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(StreamParams, DerivedQuantities)
{
    StreamParams p = defaultParams();
    EXPECT_NEAR(p.sameSetShare(), p.rr + p.rw + p.ww + p.wr, 1e-12);
    EXPECT_NEAR(p.writeShare(), 1.0 - p.readShare, 1e-12);
    const double w_star = p.diffSetWriteProb();
    EXPECT_GE(w_star, 0.0);
    EXPECT_LE(w_star, 1.0);
}

TEST(MarkovStream, DeterministicGivenSeed)
{
    MarkovStream a(defaultParams());
    MarkovStream b(defaultParams());
    const auto ta = collect(a, 5000);
    const auto tb = collect(b, 5000);
    EXPECT_EQ(ta, tb);
}

TEST(MarkovStream, ResetReplaysIdentically)
{
    MarkovStream g(defaultParams());
    const auto first = collect(g, 5000);
    g.reset();
    const auto second = collect(g, 5000);
    EXPECT_EQ(first, second);
}

TEST(MarkovStream, DifferentSeedsDiffer)
{
    StreamParams p1 = defaultParams();
    StreamParams p2 = defaultParams();
    p2.seed = p1.seed + 1;
    MarkovStream a(p1), b(p2);
    EXPECT_NE(collect(a, 1000), collect(b, 1000));
}

TEST(MarkovStream, AddressesAlignedAndSized)
{
    MarkovStream g(defaultParams());
    MemAccess a;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(g.next(a));
        EXPECT_EQ(a.addr % 8, 0u);
        EXPECT_EQ(a.size, 8);
    }
}

TEST(MarkovStream, ShadowTracksWrites)
{
    MarkovStream g(defaultParams());
    MemAccess a;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(g.next(a));
        if (a.isWrite()) {
            EXPECT_EQ(g.shadowValue(a.addr), a.data);
        }
    }
}

TEST(MarkovStream, SilentWritesStoreCurrentValue)
{
    // Every write either matches the shadow (silent) or updates it;
    // verified through the analyzer's independent shadow below.
    StreamParams p = defaultParams();
    p.silentFraction = 1.0; // all writes silent
    MarkovStream g(p);
    MemAccess a;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(g.next(a));
        if (a.isWrite()) {
            EXPECT_EQ(a.data, g.shadowValue(a.addr));
        }
    }
}

/**
 * The calibration property: measured statistics converge to targets.
 * Run over a few parameter corners.
 */
class Calibration : public ::testing::TestWithParam<StreamParams>
{};

TEST_P(Calibration, MeasuredStatisticsMatchTargets)
{
    const StreamParams p = GetParam();
    MarkovStream g(p);
    AddrLayout layout(static_cast<std::uint32_t>(refBlockBytes),
                      static_cast<std::uint32_t>(refSetCount));
    StreamAnalyzer an(layout);

    MemAccess a;
    const std::uint64_t n = 300'000;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(g.next(a));
        an.observe(a);
    }

    const double mem_frac =
        static_cast<double>(an.accesses()) / an.instructions();
    EXPECT_NEAR(mem_frac, p.memFraction, 0.01);
    EXPECT_NEAR(an.readInstrFraction() / mem_frac, p.readShare, 0.01);
    EXPECT_NEAR(an.rrShare(), p.rr, 0.01);
    EXPECT_NEAR(an.rwShare(), p.rw, 0.01);
    EXPECT_NEAR(an.wwShare(), p.ww, 0.01);
    EXPECT_NEAR(an.wrShare(), p.wr, 0.01);
    EXPECT_NEAR(an.silentWriteFraction(), p.silentFraction, 0.01);
}

StreamParams
corner(const char *name, double read_share, double rr, double rw,
       double ww, double wr, double silent)
{
    StreamParams p;
    p.name = name;
    p.readShare = read_share;
    p.rr = rr;
    p.rw = rw;
    p.ww = ww;
    p.wr = wr;
    p.silentFraction = silent;
    p.seed = 1234;
    return p;
}

INSTANTIATE_TEST_SUITE_P(
    Corners, Calibration,
    ::testing::Values(
        corner("balanced", 0.65, 0.12, 0.02, 0.10, 0.03, 0.42),
        corner("write_heavy", 0.56, 0.10, 0.02, 0.24, 0.03, 0.77),
        corner("read_heavy", 0.80, 0.25, 0.02, 0.05, 0.02, 0.30),
        corner("low_locality", 0.70, 0.03, 0.01, 0.02, 0.01, 0.10),
        corner("no_silent", 0.65, 0.12, 0.02, 0.10, 0.03, 0.0),
        corner("all_silent", 0.65, 0.12, 0.02, 0.10, 0.03, 1.0)),
    [](const auto &info) { return info.param.name; });

TEST(MarkovStream, SetReturnsDoNotDistortPairShares)
{
    // pWriteReturn/pReadReturn must be invisible to Figure 4.
    StreamParams lo = defaultParams();
    lo.pWriteReturn = 0.0;
    lo.pReadReturn = 0.0;
    StreamParams hi = defaultParams();
    hi.pWriteReturn = 0.6;
    hi.pReadReturn = 0.3;

    AddrLayout layout(32, 512);
    for (const auto &p : {lo, hi}) {
        MarkovStream g(p);
        StreamAnalyzer an(layout);
        MemAccess a;
        for (int i = 0; i < 200'000; ++i) {
            ASSERT_TRUE(g.next(a));
            an.observe(a);
        }
        EXPECT_NEAR(an.wwShare(), p.ww, 0.012);
        EXPECT_NEAR(an.rrShare(), p.rr, 0.012);
    }
}

} // anonymous namespace
