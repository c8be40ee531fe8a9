/**
 * @file
 * Regression test: sustained uniform scans must not exhaust Value
 * Storage.
 *
 * Scan-aware SVC reorganisation (§4.4) rewrites each evicted scan chain
 * (up to 99 values) into Value Storage. If every such rewrite, every GC
 * pass and every forced reclaim sealed its own partially filled chunk,
 * a long run of uniform scans over a working set larger than the SVC
 * would fill the SSDs with mostly-empty chunks faster than GC compacts
 * them, and a later reclaim would abort with "Value Storage out of
 * space". This drives that sequence at a reduced scale: load, uniform
 * GETs, uniform scans of length 1..99, updates, flushAll — then reads
 * every value back.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rand.h"
#include "core/prism_db.h"
#include "sim/device_profile.h"

namespace prism::core {
namespace {

// The sequence at one eighth of prismbench's scale: 25k x
// 1 KiB records on 4 x 16 MiB SSDs (the same 2.6x headroom), SVC 20%
// and four PWBs of 4% of the data each, default 512 KiB chunks.
constexpr uint64_t kRecords = 25000;
constexpr uint32_t kValueBytes = 1024;
constexpr uint64_t kSsdBytes = 16ull << 20;
constexpr uint64_t kScans = 2000;

std::string
valueFor(uint64_t key, uint64_t version)
{
    std::string v(kValueBytes, '\0');
    Xorshift rng(hash64(key) ^ version);
    for (size_t i = 0; i < v.size(); i += 8) {
        const uint64_t w = rng.next();
        for (size_t b = 0; b < 8 && i + b < v.size(); b++)
            v[i + b] = static_cast<char>('a' + ((w >> (8 * b)) % 26));
    }
    return v;
}

TEST(ScanExhaustionTest, UniformScansThenUpdatesKeepEveryValue)
{
    const uint64_t data_bytes = kRecords * kValueBytes;
    PrismOptions opts;
    opts.svc_capacity_bytes = data_bytes * 20 / 100;
    opts.pwb_size_bytes = data_bytes * 16 / 100 / 4;
    opts.hsit_capacity = 2 * kRecords;
    opts.bg_workers = 2;
    auto nvm = std::make_shared<sim::NvmDevice>(
        data_bytes * 16 / 100 + opts.pwb_size_bytes * 4 +
            opts.hsit_capacity * 32 + (64ull << 20),
        sim::kOptaneDcpmmProfile, /*timing=*/false);
    auto region = std::make_shared<pmem::PmemRegion>(nvm, /*format=*/true);
    std::vector<std::shared_ptr<sim::SsdDevice>> ssds;
    for (int i = 0; i < 4; i++) {
        ssds.push_back(std::make_shared<sim::SsdDevice>(
            kSsdBytes, sim::kSamsung980ProProfile, /*timing=*/false));
    }
    auto db = PrismDb::open(opts, region, ssds);

    std::vector<uint64_t> version(kRecords, 1);
    for (uint64_t k = 0; k < kRecords; k++)
        ASSERT_TRUE(db->put(k, valueFor(k, 1)).isOk());
    db->flushAll();

    Xorshift rng(7);
    std::string v;
    for (uint64_t i = 0; i < kRecords; i++) {
        const uint64_t k = rng.nextUniform(kRecords);
        ASSERT_TRUE(db->get(k, &v).isOk());
    }
    std::vector<std::pair<uint64_t, std::string>> rows;
    for (uint64_t i = 0; i < kScans; i++) {
        const uint64_t start = rng.nextUniform(kRecords);
        const size_t len = 1 + rng.nextUniform(99);
        ASSERT_TRUE(db->scan(start, len, &rows).isOk());
        ASSERT_EQ(rows.size(), std::min<uint64_t>(len, kRecords - start));
    }
    for (uint64_t i = 0; i < kRecords / 2; i++) {
        const uint64_t k = rng.nextUniform(kRecords);
        version[k]++;
        ASSERT_TRUE(db->put(k, valueFor(k, version[k])).isOk());
    }
    db->flushAll();

    for (uint64_t k = 0; k < kRecords; k++) {
        ASSERT_TRUE(db->get(k, &v).isOk()) << k;
        ASSERT_EQ(v, valueFor(k, version[k])) << k;
    }
}

}  // namespace
}  // namespace prism::core
