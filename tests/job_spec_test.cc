/**
 * @file
 * JobSpec JSON tests: strict unknown-key rejection (the satellite
 * contract: a client typo must fail loudly, never simulate the
 * default), defaults, round-tripping and validation (DESIGN.md §13).
 */

#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/job_spec.hh"

namespace
{

using namespace c8t;
using core::JobKind;
using core::JobSpec;

/** EXPECT that parsing @p text throws mentioning @p needle. */
void
expectParseError(const std::string &text, const std::string &needle)
{
    try {
        JobSpec::fromJsonText(text);
        FAIL() << "expected failure parsing: " << text;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message '" << e.what() << "' lacks '" << needle << "'";
    }
}

TEST(JobSpecTest, MinimalRunSpecGetsDefaults)
{
    const JobSpec spec = JobSpec::fromJsonText("{\"kind\":\"run\"}");
    EXPECT_EQ(spec.kind, JobKind::Run);
    EXPECT_EQ(spec.workload, "spec:gcc");
    EXPECT_EQ(spec.accesses, 1'000'000u);
    EXPECT_EQ(spec.warmup, 0u);
    EXPECT_EQ(spec.effectiveWarmup(), 100'000u);
    EXPECT_TRUE(spec.schemes.empty());
    // Kind defaults: run = the paper's baseline pair.
    EXPECT_EQ(spec.effectiveSchemes().size(), 2u);
    EXPECT_TRUE(spec.silentDetection);
    EXPECT_EQ(spec.bufferEntries, 1u);
}

TEST(JobSpecTest, KindIsRequired)
{
    expectParseError("{}", "kind");
    expectParseError("{\"workload\":\"spec:gcc\"}", "kind");
}

TEST(JobSpecTest, UnknownKindRejected)
{
    expectParseError("{\"kind\":\"sweep\"}", "unknown kind");
}

TEST(JobSpecTest, UnknownTopLevelKeyRejected)
{
    // The canonical typo: "acceses" must not silently simulate 1M.
    expectParseError("{\"kind\":\"run\",\"acceses\":5}",
                     "unknown key \"acceses\"");
}

TEST(JobSpecTest, UnknownNestedCacheKeyRejected)
{
    expectParseError(
        "{\"kind\":\"run\",\"cache\":{\"size_kb\":32,\"way\":4}}",
        "unknown key \"way\"");
}

TEST(JobSpecTest, UnknownNestedExploreKeyRejected)
{
    expectParseError(
        "{\"kind\":\"explore\",\"explore\":{\"sizes\":[16]}}",
        "unknown key \"sizes\"");
}

TEST(JobSpecTest, ExploreAxesOnNonExploreKindRejected)
{
    expectParseError(
        "{\"kind\":\"run\",\"explore\":{\"sizes_kb\":[16]}}",
        "non-explore");
}

TEST(JobSpecTest, DuplicateKeysRejected)
{
    expectParseError("{\"kind\":\"run\",\"kind\":\"run\"}",
                     "duplicate");
}

TEST(JobSpecTest, FractionalIntegerRejected)
{
    expectParseError("{\"kind\":\"run\",\"accesses\":10.5}",
                     "accesses");
    // Scientific notation is exact-integer-ambiguous; the raw token
    // check rejects it for integer fields.
    expectParseError("{\"kind\":\"run\",\"accesses\":1e6}",
                     "accesses");
}

TEST(JobSpecTest, MalformedJsonRejectedWithOffset)
{
    expectParseError("{\"kind\":\"run\"", "byte");
    expectParseError("{\"kind\":\"run\"} trailing", "byte");
    expectParseError("", "byte");
}

TEST(JobSpecTest, DeepNestingRejectedWithoutCrashing)
{
    // Every wire request goes through this parser; 100 K nested
    // brackets used to recurse until the stack overflowed.
    expectParseError(std::string(100'000, '['), "job spec: JSON nesting");
    std::string objects, mixed;
    for (int i = 0; i < 100'000; ++i)
        objects += "{\"a\":";
    for (int i = 0; i < 50'000; ++i)
        mixed += "{\"a\":[";
    expectParseError(objects, "job spec: JSON nesting");
    expectParseError(mixed, "job spec: JSON nesting");

    // Nesting up to the limit is still plain JSON; it fails later, on
    // the spec's own rules, not on depth.
    const std::string at_limit =
        "{\"kind\":\"run\",\"schemes\":" +
        std::string(core::kMaxJsonDepth - 1, '[') +
        std::string(core::kMaxJsonDepth - 1, ']') + "}";
    try {
        JobSpec::fromJsonText(at_limit);
        FAIL() << "nested schemes list accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()).find("nesting"), std::string::npos)
            << e.what();
    }
    expectParseError("{\"kind\":\"run\",\"schemes\":" +
                         std::string(core::kMaxJsonDepth, '[') +
                         std::string(core::kMaxJsonDepth, ']') + "}",
                     "job spec: JSON nesting");
}

TEST(JobSpecTest, FullSpecParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"workload\":\"kernel:hash_update\","
        "\"accesses\":250000,\"warmup\":1000,"
        "\"cache\":{\"size_kb\":64,\"ways\":8,\"block\":32,"
        "\"repl\":\"lru\"},"
        "\"schemes\":[\"RMW\",\"WG+RB\"],\"buffer_entries\":4,"
        "\"silent_detection\":false,\"levels\":[{\"size_kb\":256}],"
        "\"vdd\":0.8}");
    EXPECT_EQ(spec.workload, "kernel:hash_update");
    EXPECT_EQ(spec.accesses, 250'000u);
    EXPECT_EQ(spec.warmup, 1'000u);
    EXPECT_EQ(spec.cache.sizeBytes, 64u * 1024);
    EXPECT_EQ(spec.cache.ways, 8u);
    EXPECT_EQ(spec.cache.blockBytes, 32u);
    EXPECT_EQ(spec.schemes.size(), 2u);
    EXPECT_EQ(spec.bufferEntries, 4u);
    EXPECT_FALSE(spec.silentDetection);
    // A level with only a capacity gets the default L2 shape.
    ASSERT_EQ(spec.levels.size(), 1u);
    EXPECT_EQ(spec.levels[0].sizeKb, 256u);
    EXPECT_EQ(spec.levels[0].ways, 8u);
    EXPECT_DOUBLE_EQ(spec.vdd, 0.8);
}

TEST(JobSpecTest, IntegersParseExactly)
{
    // Above 2^53 a double rounds: 2^53 + 1 must survive as itself.
    EXPECT_EQ(JobSpec::fromJsonText(
                  "{\"kind\":\"run\",\"accesses\":9007199254740993}")
                  .accesses,
              9'007'199'254'740'993ull);
    // 2^64 - 1 is the largest u64; as a double it rounds up to 2^64,
    // which no u64 conversion can hold.
    EXPECT_EQ(JobSpec::fromJsonText("{\"kind\":\"run\","
                                    "\"accesses\":18446744073709551615}")
                  .accesses,
              18'446'744'073'709'551'615ull);
    expectParseError(
        "{\"kind\":\"run\",\"accesses\":18446744073709551616}",
        "job spec: accesses: ");
}

TEST(JobSpecTest, ThirtyTwoBitFieldsRejectOverflow)
{
    // 2^32 + 4 must not wrap to 4 in any 32-bit field.
    const std::pair<const char *, const char *> cases[] = {
        {"{\"kind\":\"run\",\"cache\":{\"ways\":4294967300}}",
         "job spec: cache.ways: "},
        {"{\"kind\":\"run\",\"cache\":{\"block\":4294967328}}",
         "job spec: cache.block: "},
        {"{\"kind\":\"run\",\"buffer_entries\":4294967297}",
         "job spec: buffer_entries: "},
        {"{\"kind\":\"run\",\"levels\":[{\"ways\":4294967304}]}",
         "job spec: levels[].ways: "},
        {"{\"kind\":\"run\",\"levels\":[{\"block\":4294967328}]}",
         "job spec: levels[].block: "},
        {"{\"kind\":\"explore\",\"explore\":{\"ways\":[4294967300]}}",
         "job spec: explore.ways[]: "},
        {"{\"kind\":\"explore\",\"explore\":{\"blocks\":[4294967328]}}",
         "job spec: explore.blocks[]: "},
    };
    for (const auto &[text, needle] : cases)
        expectParseError(text, needle);
    // The largest 32-bit value itself is in range.
    EXPECT_EQ(JobSpec::fromJsonText(
                  "{\"kind\":\"run\",\"buffer_entries\":4294967295}")
                  .bufferEntries,
              4'294'967'295u);
}

TEST(JobSpecTest, LevelsArrayParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"levels\":[{\"size_kb\":512,\"ways\":16,"
        "\"repl\":\"fifo\",\"scheme\":\"WG\",\"vdd\":0.7}]}");
    ASSERT_EQ(spec.levels.size(), 1u);
    EXPECT_EQ(spec.levels[0].sizeKb, 512u);
    EXPECT_EQ(spec.levels[0].ways, 16u);
    EXPECT_EQ(spec.levels[0].blockBytes, 0u); // inherits the L1 block
    EXPECT_EQ(spec.levels[0].repl, mem::ReplKind::Fifo);
    EXPECT_EQ(spec.levels[0].scheme, core::WriteScheme::WriteGrouping);
    EXPECT_DOUBLE_EQ(spec.levels[0].vdd, 0.7);
}

TEST(JobSpecTest, UnknownLevelKeyRejected)
{
    expectParseError(
        "{\"kind\":\"run\",\"levels\":[{\"size_kb\":256,\"way\":8}]}",
        "unknown key \"way\"");
}

TEST(JobSpecTest, DuplicateLevelKeyRejected)
{
    expectParseError(
        "{\"kind\":\"run\","
        "\"levels\":[{\"size_kb\":256,\"size_kb\":512}]}",
        "duplicate");
}

TEST(JobSpecTest, RetiredL2KbKeyIsRejected)
{
    // The retired tags-only shim's "l2_kb" alias is gone: it fails
    // like any other typo instead of simulating something else.
    expectParseError("{\"kind\":\"run\",\"l2_kb\":256}",
                     "unknown key \"l2_kb\"");
}

TEST(JobSpecTest, LevelSpecRoundTripsThroughCanonicalForm)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"levels\":[{\"size_kb\":256,\"ways\":8,"
        "\"scheme\":\"RMW\",\"vdd\":0.75}]}");
    const std::string canonical = spec.toJson();
    // The alias never survives serialization: the canonical form
    // carries the "levels" array.
    EXPECT_EQ(canonical.find("l2_kb"), std::string::npos);
    EXPECT_NE(canonical.find("\"levels\""), std::string::npos);
    const JobSpec again = JobSpec::fromJsonText(canonical);
    EXPECT_EQ(again.toJson(), canonical);
    EXPECT_EQ(again.levels, spec.levels);
}

TEST(JobSpecTest, SingleLevelCanonicalFormHasNoLevelsKey)
{
    // The gating contract: a single-level spec serializes without any
    // hierarchy key, byte-identical to pre-hierarchy builds.
    JobSpec spec;
    EXPECT_EQ(spec.toJson().find("levels"), std::string::npos);
    EXPECT_EQ(spec.toJson().find("l2_kb"), std::string::npos);
}

TEST(JobSpecTest, LevelValidationCatchesBadShapes)
{
    // Block mismatch with the L1 (default 32 B) and negative vdd.
    expectParseError(
        "{\"kind\":\"run\",\"levels\":[{\"block\":64}]}", "block");
    expectParseError(
        "{\"kind\":\"run\",\"levels\":[{\"vdd\":-0.5}]}", "vdd");
}

TEST(JobSpecTest, ExploreL2SizesParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"explore\":{\"sizes_kb\":[16],"
        "\"l2_sizes_kb\":[128,256]}}");
    ASSERT_EQ(spec.exploreL2SizesKb.size(), 2u);
    EXPECT_EQ(spec.exploreL2SizesKb[0], 128u);
    const std::string canonical = spec.toJson();
    const JobSpec again = JobSpec::fromJsonText(canonical);
    EXPECT_EQ(again.toJson(), canonical);
    EXPECT_EQ(again.exploreL2SizesKb, spec.exploreL2SizesKb);
}

TEST(JobSpecTest, ExploreSpecParses)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"accesses\":50000,"
        "\"explore\":{\"workloads\":[\"gcc\",\"mcf\"],"
        "\"sizes_kb\":[16,32],\"ways\":[2],\"blocks\":[64],"
        "\"repl\":[\"lru\"],\"vdd\":[0.7,0.8],\"shard_cells\":4}}");
    EXPECT_EQ(spec.kind, JobKind::Explore);
    EXPECT_EQ(spec.exploreWorkloads.size(), 2u);
    EXPECT_EQ(spec.exploreSizesKb.size(), 2u);
    EXPECT_EQ(spec.exploreVdd.size(), 2u);
    EXPECT_EQ(spec.shardCells, 4u);
    // Explore kind default: the voltage-story four.
    EXPECT_EQ(spec.effectiveSchemes().size(), 4u);
}

TEST(JobSpecTest, ToJsonRoundTripsEquivalently)
{
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"accesses\":50000,"
        "\"schemes\":[\"RMW\"],"
        "\"explore\":{\"workloads\":[\"gcc\"],\"sizes_kb\":[16],"
        "\"ways\":[2],\"blocks\":[64],\"vdd\":[0.75]}}");
    const std::string canonical = spec.toJson();
    const JobSpec again = JobSpec::fromJsonText(canonical);
    // Canonical form is a fixed point: equal specs -> equal bytes
    // (the daemon keys its whole-result memo on this).
    EXPECT_EQ(again.toJson(), canonical);
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_EQ(again.accesses, spec.accesses);
    EXPECT_EQ(again.schemes, spec.schemes);
    EXPECT_EQ(again.exploreWorkloads, spec.exploreWorkloads);
    EXPECT_EQ(again.exploreVdd, spec.exploreVdd);
}

TEST(JobSpecTest, DefaultSpecRoundTrips)
{
    for (const char *kind : {"run", "vdd_sweep", "explore"}) {
        JobSpec spec;
        spec.kind = core::parseJobKind(kind);
        const JobSpec again = JobSpec::fromJsonText(spec.toJson());
        EXPECT_EQ(again.toJson(), spec.toJson()) << kind;
    }
}

TEST(JobSpecTest, ValidationCatchesBadShapes)
{
    expectParseError("{\"kind\":\"run\",\"accesses\":0}",
                     "accesses");
    expectParseError("{\"kind\":\"run\",\"buffer_entries\":0}",
                     "buffer_entries");
    expectParseError("{\"kind\":\"run\",\"vdd\":-0.5}", "vdd");
    expectParseError("{\"kind\":\"run\",\"workload\":\"gcc\"}",
                     "workload");
    expectParseError(
        "{\"kind\":\"explore\",\"explore\":{\"shard_cells\":0}}",
        "shard_cells");
}

TEST(JobSpecTest, ReplacementWidthLimitsRejected)
{
    // A Tree-PLRU set must be a power of two wide: a 3-way tree never
    // evicts its last way. One way (direct-mapped) stays legal.
    expectParseError("{\"kind\":\"run\",\"cache\":{\"size_kb\":48,"
                     "\"ways\":3,\"repl\":\"plru\"}}",
                     "plru ways must be a power of two");
    EXPECT_NO_THROW(JobSpec::fromJsonText(
        "{\"kind\":\"run\",\"cache\":{\"size_kb\":16,\"ways\":1,"
        "\"repl\":\"plru\"}}"));
    // LRU is encoded for at most 16 ways.
    expectParseError("{\"kind\":\"run\",\"cache\":{\"size_kb\":64,"
                     "\"ways\":32,\"repl\":\"lru\"}}",
                     "lru ways must be in 1..16");
    expectParseError("{\"kind\":\"run\",\"levels\":[{\"size_kb\":96,"
                     "\"ways\":6,\"repl\":\"plru\"}]}",
                     "plru ways must be a power of two");
}

TEST(JobSpecTest, KibCapacitiesRejectOverflow)
{
    // 2^54 + 1 KiB wraps to 1024 bytes when multiplied unchecked.
    const std::string huge = "18014398509481985";
    expectParseError("{\"kind\":\"run\",\"cache\":{\"size_kb\":" +
                         huge + "}}",
                     "cache.size_kb: " + huge + " KiB is out of range");
    expectParseError("{\"kind\":\"run\",\"levels\":[{\"size_kb\":" +
                         huge + "}]}",
                     "levels[].size_kb: " + huge + " KiB is out of range");
    expectParseError("{\"kind\":\"explore\",\"explore\":{\"sizes_kb\":"
                     "[16," + huge + "]}}",
                     "explore.sizes_kb[]: " + huge + " KiB is out of range");
    expectParseError("{\"kind\":\"explore\",\"explore\":{"
                     "\"l2_sizes_kb\":[" + huge + "]}}",
                     "explore.l2_sizes_kb[]: " + huge +
                         " KiB is out of range");
    // The largest representable capacity still parses.
    const JobSpec spec = JobSpec::fromJsonText(
        "{\"kind\":\"explore\",\"explore\":{\"sizes_kb\":"
        "[18014398509481983]}}");
    EXPECT_EQ(spec.exploreSizesKb[0], 18014398509481983u);
}

TEST(JobSpecTest, CheckpointKnobsAreNotWireKeys)
{
    // Server-side file paths stay out of the JSON schema by design.
    expectParseError(
        "{\"kind\":\"explore\",\"checkpoint_dir\":\"/tmp/x\"}",
        "unknown key \"checkpoint_dir\"");
    expectParseError(
        "{\"kind\":\"explore\",\"explore_max_shards\":2}",
        "unknown key \"explore_max_shards\"");
}

} // namespace
