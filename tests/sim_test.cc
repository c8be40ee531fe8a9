/**
 * @file
 * Unit tests for the storage device simulator: NVM device, SSD device
 * (queue pair, timing, snapshots) and the RAID-0 array.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/fault.h"
#include "common/waiter.h"
#include "sim/nvm_device.h"
#include "sim/ssd_array.h"
#include "sim/ssd_device.h"

namespace prism::sim {
namespace {

TEST(NvmDeviceTest, RawAccessAndStats)
{
    NvmDevice dev(1 << 20, kOptaneDcpmmProfile, /*timing=*/false);
    std::memcpy(dev.raw() + 100, "hello", 5);
    EXPECT_EQ(std::memcmp(dev.raw() + 100, "hello", 5), 0);
    dev.chargeRead(64);
    dev.chargeWrite(128);
    EXPECT_EQ(dev.stats().bytes_read.load(), 64u);
    EXPECT_EQ(dev.stats().bytes_written.load(), 128u);
    EXPECT_EQ(dev.stats().read_ops.load(), 1u);
}

TEST(NvmDeviceTest, TimingChargesRealTime)
{
    NvmDevice dev(1 << 20, kOptaneDcpmmProfile, /*timing=*/true);
    const uint64_t t0 = nowNs();
    for (int i = 0; i < 100; i++)
        dev.chargeRead(64);
    // 100 reads at 300 ns latency each: at least 30 us must elapse.
    EXPECT_GE(nowNs() - t0, 30 * 1000u);
}

TEST(NvmDeviceTest, LoadImageRestoresContents)
{
    NvmDevice dev(1 << 20, kOptaneDcpmmProfile, false);
    std::vector<uint8_t> image(1 << 20, 0xAB);
    dev.loadImage(image.data(), image.size());
    EXPECT_EQ(dev.raw()[12345], 0xAB);
}

TEST(SsdDeviceTest, SyncWriteReadRoundtrip)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/false);
    std::string data = "prism value storage block";
    ASSERT_TRUE(dev.writeSync(8192, data.data(),
                              static_cast<uint32_t>(data.size()))
                    .isOk());
    std::string back(data.size(), 0);
    ASSERT_TRUE(dev.readSync(8192, back.data(),
                             static_cast<uint32_t>(back.size()))
                    .isOk());
    EXPECT_EQ(back, data);
}

TEST(SsdDeviceTest, UnwrittenBlocksReadZero)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> buf(4096, 0xFF);
    ASSERT_TRUE(dev.readSync(1 << 20, buf.data(), 4096).isOk());
    for (const uint8_t b : buf)
        ASSERT_EQ(b, 0);
}

TEST(SsdDeviceTest, AsyncBatchCompletes)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> src(4096, 0x5A);
    std::vector<SsdIoRequest> batch;
    for (int i = 0; i < 8; i++) {
        SsdIoRequest req;
        req.op = SsdIoRequest::Op::kWrite;
        req.offset = static_cast<uint64_t>(i) * 4096;
        req.length = 4096;
        req.src = src.data();
        req.user_data = static_cast<uint64_t>(i) + 1;
        batch.push_back(req);
    }
    ASSERT_TRUE(dev.submit({batch.data(), batch.size()}).isOk());
    std::vector<SsdCompletion> done;
    while (done.size() < 8)
        dev.waitCompletions(done, 8, 1000);
    std::set<uint64_t> tags;
    for (const auto &c : done) {
        EXPECT_TRUE(c.status.isOk());
        tags.insert(c.user_data);
    }
    EXPECT_EQ(tags.size(), 8u);
    EXPECT_EQ(dev.inflight(), 0u);
}

TEST(SsdDeviceTest, TimedReadHasModeledLatency)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    std::vector<uint8_t> buf(4096);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.offset = 0;
    req.length = 4096;
    req.buf = buf.data();
    req.user_data = 1;
    const uint64_t t0 = nowNs();
    ASSERT_TRUE(dev.submit(req).isOk());
    std::vector<SsdCompletion> done;
    while (done.empty())
        dev.waitCompletions(done, 1, 1000);
    const uint64_t dt = nowNs() - t0;
    // 980 Pro read latency is 50 us; allow generous slack upward.
    EXPECT_GE(dt, 45 * 1000u);
    EXPECT_GE(done[0].latency_ns, 40 * 1000u);
}

SsdIoRequest
readRequest(void *buf, uint64_t user_data)
{
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.offset = (user_data % 64) * 4096;
    req.length = 4096;
    req.buf = buf;
    req.user_data = user_data;
    return req;
}

size_t
threadCount()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/task"))
        n++;
    return n;
}

TEST(SsdDeviceTest, NoThreadOfItsOwn)
{
    // The device is a passive due-time queue: its reapers keep time.
    const size_t before = threadCount();
    std::vector<std::unique_ptr<SsdDevice>> devs;
    for (int i = 0; i < 4; i++) {
        devs.push_back(std::make_unique<SsdDevice>(
            16 << 20, kSamsung980ProProfile, /*timing=*/true));
    }
    EXPECT_EQ(threadCount(), before);
}

TEST(SsdDeviceTest, SubmitWakesSleepingReaper)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    std::vector<SsdCompletion> done;
    uint64_t returned_ns = 0;
    std::thread reaper([&] {
        dev.waitCompletions(done, 1, /*timeout_us=*/2'000'000);
        returned_ns = nowNs();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<uint8_t> buf(4096);
    const uint64_t submit_ns = nowNs();
    ASSERT_TRUE(dev.submit(readRequest(buf.data(), 7)).isOk());
    reaper.join();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].user_data, 7u);
    // Due 50 us after submit; the reaper must not sleep out its timeout.
    EXPECT_LT(returned_ns - submit_ns, 500'000'000u);
}

TEST(SsdDeviceTest, PollReturnsOnlyWhatIsDue)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    // Injected latency pushes the due time far enough out that the
    // first poll cannot be late for it, however loaded the host.
    auto &faults = fault::FaultRegistry::global();
    fault::FaultSpec slow;
    slow.trigger = fault::Trigger::kOnce;
    slow.payload = 100'000'000;  // 100 ms
    faults.arm("ssd." + std::to_string(dev.deviceNumber()) + ".latency",
               slow);
    std::vector<uint8_t> buf(4096);
    ASSERT_TRUE(dev.submit(readRequest(buf.data(), 3)).isOk());
    faults.disarmAll();
    std::vector<SsdCompletion> done;
    EXPECT_EQ(dev.pollCompletions(done, 8), 0u);
    EXPECT_EQ(dev.inflight(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    ASSERT_EQ(dev.pollCompletions(done, 8), 1u);
    EXPECT_EQ(done[0].user_data, 3u);
    EXPECT_GE(done[0].latency_ns, 100'000'000u);
    EXPECT_EQ(dev.inflight(), 0u);
}

TEST(SsdDeviceTest, CrashDropsDueButUnreapedCompletions)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/false);
    std::vector<uint8_t> buf(4096);
    for (uint64_t i = 1; i <= 4; i++)
        ASSERT_TRUE(dev.submit(readRequest(buf.data(), i)).isOk());
    EXPECT_EQ(dev.inflight(), 4u);  // due at once, but nobody reaped
    dev.simulateCrash();
    EXPECT_EQ(dev.inflight(), 0u);
    std::vector<SsdCompletion> done;
    EXPECT_EQ(dev.pollCompletions(done, 8), 0u);
}

TEST(SsdDeviceTest, ConcurrentReapersSeeEachCompletionOnce)
{
    SsdDevice dev(16 << 20, kSamsung980ProProfile, /*timing=*/true);
    constexpr int kSubmitters = 4;
    constexpr uint64_t kPerSubmitter = 500;
    constexpr uint64_t kTotal = kSubmitters * kPerSubmitter;
    std::atomic<uint64_t> reaped{0};
    std::vector<std::vector<uint64_t>> seen(2);
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; r++) {
        threads.emplace_back([&, r] {
            std::vector<SsdCompletion> done;
            while (reaped.load() < kTotal) {
                done.clear();
                const size_t n = r == 0 ? dev.waitCompletions(done, 16, 1000)
                                        : dev.pollCompletions(done, 16);
                for (const auto &c : done) {
                    EXPECT_TRUE(c.status.isOk());
                    seen[r].push_back(c.user_data);
                }
                reaped.fetch_add(n);
                if (n == 0)
                    std::this_thread::yield();
            }
        });
    }
    for (int s = 0; s < kSubmitters; s++) {
        threads.emplace_back([&, s] {
            std::vector<uint8_t> buf(4096);
            for (uint64_t i = 0; i < kPerSubmitter; i++) {
                const uint64_t tag = static_cast<uint64_t>(s) * kPerSubmitter +
                                     i + 1;
                ASSERT_TRUE(dev.submit(readRequest(buf.data(), tag)).isOk());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    std::set<uint64_t> tags(seen[0].begin(), seen[0].end());
    tags.insert(seen[1].begin(), seen[1].end());
    EXPECT_EQ(seen[0].size() + seen[1].size(), kTotal);
    EXPECT_EQ(tags.size(), kTotal);
    EXPECT_EQ(dev.inflight(), 0u);
}

TEST(SsdDeviceTest, RejectsOutOfRange)
{
    SsdDevice dev(1 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> buf(4096);
    SsdIoRequest req;
    req.op = SsdIoRequest::Op::kRead;
    req.offset = (1 << 20);
    req.length = 4096;
    req.buf = buf.data();
    EXPECT_FALSE(dev.submit(req).isOk());
    EXPECT_FALSE(dev.readSync(1 << 20, buf.data(), 4096).isOk());
}

TEST(SsdDeviceTest, SnapshotAndRestore)
{
    SsdDevice dev(4 << 20, kSamsung980ProProfile, false);
    const char data[] = "persisted";
    dev.writeSync(4096, data, sizeof(data));
    std::vector<uint8_t> image;
    dev.snapshotTo(image);

    SsdDevice dev2(4 << 20, kSamsung980ProProfile, false);
    dev2.loadFrom(image);
    char back[sizeof(data)] = {};
    dev2.readSync(4096, back, sizeof(back));
    EXPECT_STREQ(back, data);
}

TEST(SsdDeviceTest, EraseAllClears)
{
    SsdDevice dev(4 << 20, kSamsung980ProProfile, false);
    const char data[] = "gone";
    dev.writeSync(0, data, sizeof(data));
    dev.eraseAll();
    char back[8] = {1, 1, 1, 1};
    dev.readSync(0, back, 8);
    for (const char b : back)
        EXPECT_EQ(b, 0);
}

TEST(SsdDeviceTest, StatsCountHostBytes)
{
    SsdDevice dev(4 << 20, kSamsung980ProProfile, false);
    std::vector<uint8_t> buf(8192, 1);
    dev.writeSync(0, buf.data(), 8192);
    dev.readSync(0, buf.data(), 4096);
    EXPECT_EQ(dev.stats().bytes_written.load(), 8192u);
    EXPECT_EQ(dev.stats().bytes_read.load(), 4096u);
}

TEST(SsdArrayTest, StripedRoundtripAcrossBoundaries)
{
    std::vector<std::shared_ptr<SsdDevice>> devices;
    for (int i = 0; i < 4; i++) {
        devices.push_back(std::make_shared<SsdDevice>(
            4 << 20, kSamsung980ProProfile, false));
    }
    SsdArray array(devices, 64 * 1024);
    EXPECT_EQ(array.capacity(), 4ull * (4 << 20));

    // A write spanning several stripe units must round-trip intact.
    std::vector<uint8_t> data(300 * 1024);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = static_cast<uint8_t>(i * 31);
    ASSERT_TRUE(array.writeSync(40 * 1024, data.data(),
                                static_cast<uint32_t>(data.size()))
                    .isOk());
    std::vector<uint8_t> back(data.size());
    ASSERT_TRUE(array.readSync(40 * 1024, back.data(),
                               static_cast<uint32_t>(back.size()))
                    .isOk());
    EXPECT_EQ(back, data);

    // The bytes must actually be spread over multiple member devices.
    int touched = 0;
    for (const auto &d : devices)
        touched += d->stats().bytes_written.load() > 0;
    EXPECT_GE(touched, 4);
    EXPECT_EQ(array.totalBytesWritten(), data.size());
}

}  // namespace
}  // namespace prism::sim
