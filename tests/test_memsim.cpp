/**
 * @file
 * Tests of the memory-simulation substrate: cache geometry and LRU
 * behaviour, recorder checkpointing, and the Figure 2/3 report
 * aggregations.
 */

#include <gtest/gtest.h>

#include "memsim/cache_model.hpp"
#include "memsim/memory_recorder.hpp"
#include "memsim/profile_report.hpp"
#include "util/error.hpp"

using namespace fcc::memsim;
using fcc::util::Error;

// ---- CacheModel -----------------------------------------------------------

TEST(Cache, GeometryValidation)
{
    CacheConfig bad;
    bad.lineBytes = 48;  // not a power of two
    EXPECT_THROW(CacheModel{bad}, Error);
    bad = CacheConfig{};
    bad.ways = 0;
    EXPECT_THROW(CacheModel{bad}, Error);
    bad = CacheConfig{};
    bad.sizeBytes = 1000;  // not divisible
    EXPECT_THROW(CacheModel{bad}, Error);

    CacheConfig ok;
    EXPECT_EQ(ok.sets(), 16u * 1024 / (32 * 2));
    EXPECT_NO_THROW(CacheModel{ok});
}

TEST(Cache, ColdMissThenHit)
{
    CacheModel cache;
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x101f));  // same 32 B line
    EXPECT_FALSE(cache.access(0x1020)); // next line
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way cache: three lines mapping to one set evict LRU.
    CacheConfig cfg;
    cfg.sizeBytes = 4096;
    cfg.lineBytes = 64;
    cfg.ways = 2;
    CacheModel cache(cfg);
    uint32_t sets = cfg.sets();
    uint64_t a = 0, b = static_cast<uint64_t>(sets) * 64,
             c = 2ull * sets * 64;  // same set, different tags

    EXPECT_FALSE(cache.access(a));
    EXPECT_FALSE(cache.access(b));
    EXPECT_TRUE(cache.access(a));   // a MRU
    EXPECT_FALSE(cache.access(c));  // evicts b
    EXPECT_TRUE(cache.access(a));
    EXPECT_FALSE(cache.access(b));  // b was evicted
}

TEST(Cache, DirectMappedConflicts)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 32;
    cfg.ways = 1;
    CacheModel cache(cfg);
    uint64_t a = 0, b = 1024;  // same set in a direct-mapped cache
    cache.access(a);
    cache.access(b);
    EXPECT_FALSE(cache.access(a));  // ping-pong
    EXPECT_FALSE(cache.access(b));
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, FullyAssociativeNoConflicts)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.lineBytes = 32;
    cfg.ways = 32;  // single set
    CacheModel cache(cfg);
    for (int i = 0; i < 32; ++i)
        cache.access(static_cast<uint64_t>(i) * 32);
    for (int i = 0; i < 32; ++i)
        EXPECT_TRUE(cache.access(static_cast<uint64_t>(i) * 32));
}

// ---- MemoryRecorder ------------------------------------------------------

TEST(Recorder, PerPacketCheckpoints)
{
    MemoryRecorder recorder;
    recorder.beginPacket();
    recorder.record(0x100, 4);
    recorder.record(0x200, 8);
    recorder.endPacket();
    recorder.beginPacket();
    recorder.record(0x300, 4);
    recorder.endPacket();

    ASSERT_EQ(recorder.samples().size(), 2u);
    EXPECT_EQ(recorder.samples()[0].accesses, 2u);
    EXPECT_EQ(recorder.samples()[1].accesses, 1u);
    EXPECT_EQ(recorder.totalAccesses(), 3u);
    EXPECT_FALSE(recorder.hasCache());
}

TEST(Recorder, AccessesOutsidePacketsCountGlobally)
{
    MemoryRecorder recorder;
    recorder.record(0x100, 4);  // e.g. table build
    recorder.beginPacket();
    recorder.record(0x200, 4);
    recorder.endPacket();
    EXPECT_EQ(recorder.totalAccesses(), 2u);
    ASSERT_EQ(recorder.samples().size(), 1u);
    EXPECT_EQ(recorder.samples()[0].accesses, 1u);
}

TEST(Recorder, CacheMissesPerPacket)
{
    CacheConfig cfg;
    MemoryRecorder recorder(cfg);
    recorder.beginPacket();
    recorder.record(0x1000, 4);  // miss
    recorder.record(0x1000, 4);  // hit
    recorder.endPacket();
    ASSERT_EQ(recorder.samples().size(), 1u);
    EXPECT_EQ(recorder.samples()[0].accesses, 2u);
    EXPECT_EQ(recorder.samples()[0].misses, 1u);
    EXPECT_DOUBLE_EQ(recorder.samples()[0].missRate(), 0.5);
}

TEST(Recorder, StraddlingAccessTouchesBothLines)
{
    CacheConfig cfg;  // 32 B lines
    MemoryRecorder recorder(cfg);
    recorder.beginPacket();
    recorder.record(0x101e, 8);  // crosses 0x1020 boundary
    recorder.endPacket();
    EXPECT_EQ(recorder.samples()[0].misses, 2u);
}

TEST(Recorder, ResetSamplesKeepsCacheWarm)
{
    CacheConfig cfg;
    MemoryRecorder recorder(cfg);
    recorder.beginPacket();
    recorder.record(0x1000, 4);
    recorder.endPacket();
    recorder.resetSamples();
    recorder.beginPacket();
    recorder.record(0x1000, 4);  // still cached
    recorder.endPacket();
    EXPECT_EQ(recorder.samples().size(), 1u);
    EXPECT_EQ(recorder.samples()[0].misses, 0u);
}

// ---- reports ---------------------------------------------------------------

TEST(Report, TrafficShareInRange)
{
    std::vector<PacketSample> samples = {
        {53, 0}, {60, 0}, {67, 0}, {90, 0}};
    EXPECT_DOUBLE_EQ(trafficShareInAccessRange(samples, 53, 67),
                     0.75);
    EXPECT_DOUBLE_EQ(trafficShareInAccessRange(samples, 0, 10), 0.0);
    EXPECT_THROW(trafficShareInAccessRange(samples, 5, 1), Error);
}

TEST(Report, MissRateBucketsMatchFigure3Edges)
{
    std::vector<PacketSample> samples = {
        {100, 0},   // 0 %    -> bucket 0
        {100, 4},   // 4 %    -> bucket 0
        {100, 5},   // 5 %    -> bucket 1
        {100, 9},   // 9 %    -> bucket 1
        {100, 15},  // 15 %   -> bucket 2
        {100, 25},  // 25 %   -> bucket 3
        {100, 99},  // 99 %   -> bucket 3
    };
    auto buckets = missRateBuckets(samples);
    EXPECT_NEAR(buckets.share[0], 2.0 / 7, 1e-12);
    EXPECT_NEAR(buckets.share[1], 2.0 / 7, 1e-12);
    EXPECT_NEAR(buckets.share[2], 1.0 / 7, 1e-12);
    EXPECT_NEAR(buckets.share[3], 2.0 / 7, 1e-12);
    EXPECT_STREQ(MissRateBuckets::label(0), "0%-5%");
    EXPECT_STREQ(MissRateBuckets::label(3), ">20%");
}

TEST(Report, MeanAccesses)
{
    std::vector<PacketSample> samples = {{10, 0}, {20, 0}};
    EXPECT_DOUBLE_EQ(meanAccesses(samples), 15.0);
    EXPECT_DOUBLE_EQ(meanAccesses({}), 0.0);
}
