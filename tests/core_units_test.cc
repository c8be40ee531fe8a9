/**
 * @file
 * Unit tests for Prism's core components in isolation: the packed
 * value-address encoding, HSIT protocols (including the dirty-bit
 * flush-on-read crash semantics), the PWB ring log, Value Storage
 * chunk management and GC, the ChunkWriter, and the read batcher.
 */
#include <gtest/gtest.h>

#include <future>
#include <set>
#include <thread>

#include "common/fault.h"
#include "common/rand.h"
#include "core/chunk_writer.h"
#include "core/hsit.h"
#include "core/pwb.h"
#include "core/read_batcher.h"
#include "core/value_storage.h"
#include "sim/device_profile.h"
#include "sim/ssd_device.h"

namespace prism::core {
namespace {

struct NvmFixture {
    std::shared_ptr<sim::NvmDevice> nvm;
    std::unique_ptr<pmem::PmemRegion> region;
    std::unique_ptr<pmem::PmemAllocator> alloc;

    explicit NvmFixture(uint64_t bytes = 64 << 20, bool tracking = false)
    {
        nvm = std::make_shared<sim::NvmDevice>(
            bytes, sim::kOptaneDcpmmProfile, /*timing=*/false);
        region = std::make_unique<pmem::PmemRegion>(nvm, true);
        if (tracking)
            region->enableTracking();
        alloc = std::make_unique<pmem::PmemAllocator>(*region);
    }
};

// ---------------------------------------------------------------------------
// ValueAddr

TEST(ValueAddrTest, EncodeDecodePwb)
{
    const ValueAddr a = ValueAddr::pwb(123456, 1024);
    EXPECT_TRUE(a.isPwb());
    EXPECT_FALSE(a.isVs());
    EXPECT_FALSE(a.isDirty());
    EXPECT_EQ(a.offset(), 123456u);
    EXPECT_EQ(a.recordBytes(), 1024u);
}

TEST(ValueAddrTest, EncodeDecodeVs)
{
    const ValueAddr a = ValueAddr::vs(13, (1ull << 40) + 64, 4096);
    EXPECT_TRUE(a.isVs());
    EXPECT_EQ(a.ssdId(), 13u);
    EXPECT_EQ(a.offset(), (1ull << 40) + 64);
    EXPECT_EQ(a.recordBytes(), 4096u);
}

TEST(ValueAddrTest, DirtyBitRoundtrip)
{
    const ValueAddr a = ValueAddr::vs(1, 128, 64);
    const ValueAddr dirty = a.withDirty();
    EXPECT_TRUE(dirty.isDirty());
    EXPECT_EQ(dirty.withoutDirty(), a);
    EXPECT_FALSE(ValueAddr().isDirty());
    EXPECT_TRUE(ValueAddr().isNull());
    EXPECT_TRUE(ValueAddr(ValueAddr::kDirtyBit).isNull());
}

TEST(ValueAddrTest, PropertySweepRoundtrips)
{
    Xorshift rng(2);
    for (int i = 0; i < 20000; i++) {
        const uint64_t off = rng.next() & ValueAddr::kOffsetMask;
        const uint32_t ssd = static_cast<uint32_t>(rng.nextUniform(64));
        const uint64_t bytes =
            (1 + rng.nextUniform(ValueAddr::kSizeMask)) *
            ValueAddr::kSizeUnit;
        const ValueAddr a = ValueAddr::vs(ssd, off, bytes);
        ASSERT_EQ(a.offset(), off);
        ASSERT_EQ(a.ssdId(), ssd);
        ASSERT_EQ(a.recordBytes(), bytes);
        ASSERT_TRUE(a.isVs());
    }
}

TEST(ValueAddrTest, RecordBytesAligns)
{
    const uint64_t hdr = sizeof(ValueRecordHeader);
    EXPECT_EQ(recordBytes(0), 64u);
    EXPECT_EQ(recordBytes(static_cast<uint32_t>(64 - hdr)), 64u);
    EXPECT_EQ(recordBytes(static_cast<uint32_t>(64 - hdr + 1)), 128u);
    EXPECT_EQ(recordBytes(1024), ((hdr + 1024 + 63) / 64) * 64);
}

// ---------------------------------------------------------------------------
// HSIT

TEST(HsitTest, AllocPublishFree)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 128);
    const uint64_t a = hsit->allocEntry();
    const uint64_t b = hsit->allocEntry();
    EXPECT_NE(a, b);
    EXPECT_EQ(hsit->liveCount(), 2u);

    hsit->storePrimaryDurable(a, ValueAddr::pwb(64, 64));
    EXPECT_EQ(hsit->loadPrimary(a).offset(), 64u);

    hsit->freeEntryImmediate(b);
    EXPECT_EQ(hsit->allocEntry(), b);  // recycled
}

TEST(HsitTest, CapacityExhaustion)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 4);
    for (int i = 0; i < 4; i++)
        EXPECT_NE(hsit->allocEntry(), Hsit::kInvalidIndex);
    EXPECT_EQ(hsit->allocEntry(), Hsit::kInvalidIndex);
}

TEST(HsitTest, DurableCasDetectsConflicts)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v1 = ValueAddr::pwb(64, 64);
    const ValueAddr v2 = ValueAddr::pwb(128, 64);
    hsit->storePrimaryDurable(e, v1);
    EXPECT_TRUE(hsit->casPrimaryDurable(e, v1, v2));
    EXPECT_FALSE(hsit->casPrimaryDurable(e, v1, v2));  // stale expected
    EXPECT_EQ(hsit->loadPrimary(e), v2);
}

TEST(HsitTest, UnfencedCasRevertsOnCrash)
{
    // The flush-on-read protocol: a CAS whose flush never happened must
    // roll back to the previous pointer at a crash.
    NvmFixture fx(64 << 20, /*tracking=*/true);
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v1 = ValueAddr::pwb(64, 64);
    hsit->storePrimaryDurable(e, v1);

    // Simulate a writer that crashed mid-protocol: CAS to dirty state
    // without the persist step.
    const ValueAddr v2 = ValueAddr::pwb(128, 64);
    uint64_t expected = v1.raw();
    hsit->entry(e).primary.compare_exchange_strong(
        expected, v2.withDirty().raw());

    fx.region->simulateCrash();
    auto recovered = Hsit::attach(*fx.region, hsit->rootOff());
    recovered->resetVolatile();
    EXPECT_EQ(recovered->loadPrimary(e), v1);
}

TEST(HsitTest, PersistedDirtyBitIsClearedAtRecovery)
{
    NvmFixture fx(64 << 20, /*tracking=*/true);
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v2 = ValueAddr::pwb(128, 64);
    // Writer persisted the dirty pointer but crashed before clearing
    // the bit: the pointer is durable and must survive, bit cleared.
    hsit->entry(e).primary.store(v2.withDirty().raw());
    fx.region->persist(&hsit->entry(e).primary, 8);

    fx.region->simulateCrash();
    auto recovered = Hsit::attach(*fx.region, hsit->rootOff());
    recovered->resetVolatile();
    EXPECT_EQ(recovered->loadPrimary(e), v2);
    EXPECT_FALSE(ValueAddr(recovered->entry(e).primary.load()).isDirty());
}

TEST(HsitTest, FlushOnReadCleansWriterDirtyState)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 16);
    const uint64_t e = hsit->allocEntry();
    const ValueAddr v = ValueAddr::vs(0, 64, 64);
    hsit->entry(e).primary.store(v.withDirty().raw());
    // A reader encountering the dirty bit must flush and clear it.
    EXPECT_EQ(hsit->loadPrimary(e), v);
    EXPECT_FALSE(ValueAddr(hsit->entry(e).primary.load()).isDirty());
}

TEST(HsitTest, RebuildFreeListFromReachability)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 8);
    for (int i = 0; i < 8; i++)
        hsit->allocEntry();
    std::vector<bool> reachable(8, false);
    reachable[2] = reachable[5] = true;
    hsit->rebuildFreeList(reachable);
    EXPECT_EQ(hsit->liveCount(), 2u);
    // Allocations must hand out only unreachable indices.
    std::set<uint64_t> given;
    for (int i = 0; i < 6; i++)
        given.insert(hsit->allocEntry());
    EXPECT_EQ(given.count(2), 0u);
    EXPECT_EQ(given.count(5), 0u);
    EXPECT_EQ(given.size(), 6u);
}

TEST(HsitTest, SvcPointerCas)
{
    NvmFixture fx;
    auto hsit = Hsit::create(*fx.region, *fx.alloc, 8);
    const uint64_t e = hsit->allocEntry();
    int dummy1, dummy2;
    EXPECT_EQ(hsit->svcLoad(e), nullptr);
    EXPECT_TRUE(hsit->svcCas(e, nullptr, &dummy1));
    EXPECT_FALSE(hsit->svcCas(e, nullptr, &dummy2));
    EXPECT_EQ(hsit->svcLoad(e), &dummy1);
    EXPECT_TRUE(hsit->svcCas(e, &dummy1, nullptr));
}

// ---------------------------------------------------------------------------
// PWB

TEST(PwbTest, AppendAndReadBack)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 1 << 20);
    const std::string value = "pwb payload";
    const ValueAddr a = pwb->append(7, 42, value.data(),
                                    static_cast<uint32_t>(value.size()));
    pwb->markPublished();
    ASSERT_FALSE(a.isNull());
    EXPECT_TRUE(a.isPwb());
    const auto *hdr = pwb->headerAt(a);
    EXPECT_EQ(hdr->backward, 7u);
    EXPECT_EQ(hdr->key, 42u);
    EXPECT_EQ(std::string(reinterpret_cast<const char *>(hdr + 1),
                          hdr->value_size),
              value);
}

TEST(PwbTest, FillsThenRejects)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 64 * 1024);
    std::string value(1000, 'x');
    int appended = 0;
    while (!pwb->append(1, appended, value.data(), 1000).isNull()) {
        pwb->markPublished();
        appended++;
    }
    EXPECT_GT(appended, 50);
    EXPECT_LE(pwb->usedBytes(), 64 * 1024u);
    EXPECT_GE(pwb->utilization(), 0.95);
}

TEST(PwbTest, CollectSkipsPadsAndStopsAtTail)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 64 * 1024);
    std::string value(900, 'y');  // forces a wrap pad eventually
    std::vector<ValueAddr> addrs;
    for (int i = 0; i < 40; i++) {
        const ValueAddr a = pwb->append(static_cast<uint64_t>(i), i,
                                        value.data(), 900);
        pwb->markPublished();
        ASSERT_FALSE(a.isNull());
        addrs.push_back(a);
    }
    std::vector<Pwb::RecordRef> refs;
    const uint64_t new_head = pwb->collect(UINT64_MAX, refs);
    EXPECT_EQ(refs.size(), 40u);
    EXPECT_EQ(new_head, pwb->tailLogical());
    for (size_t i = 0; i < refs.size(); i++) {
        EXPECT_EQ(refs[i].hdr->backward, i);
        EXPECT_EQ(refs[i].addr.raw(), addrs[i].raw());
    }
}

TEST(PwbTest, RingReusesSpaceAfterHeadAdvance)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 64 * 1024);
    std::string value(1000, 'z');
    for (int round = 0; round < 20; round++) {
        int appended = 0;
        while (!pwb->append(1, appended, value.data(), 1000).isNull()) {
            pwb->markPublished();
            appended++;
        }
        ASSERT_GT(appended, 10) << "ring did not recycle";
        std::vector<Pwb::RecordRef> refs;
        pwb->advanceHead(pwb->collect(UINT64_MAX, refs));
    }
}

TEST(PwbTest, UnpublishedRecordFencesReclamation)
{
    // A record that has been appended but whose HSIT forward pointer is
    // not yet installed looks ill-coupled; reclamation judging it would
    // free live space mid-publish. collect() must stop at the oldest
    // unpublished append and resume once it is marked published.
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 1 << 20);
    std::string value(100, 'u');
    pwb->append(1, 1, value.data(), 100);
    pwb->markPublished();
    pwb->append(2, 2, value.data(), 100);  // publish pending

    std::vector<Pwb::RecordRef> refs;
    uint64_t upto = pwb->collect(UINT64_MAX, refs);
    EXPECT_EQ(refs.size(), 1u);            // only the published record
    EXPECT_LT(upto, pwb->tailLogical());
    EXPECT_EQ(upto, pwb->inflightLogical());

    pwb->markPublished();
    refs.clear();
    upto = pwb->collect(UINT64_MAX, refs);
    EXPECT_EQ(refs.size(), 2u);
    EXPECT_EQ(upto, pwb->tailLogical());
}

TEST(PwbTest, HeadTailSurviveReattach)
{
    NvmFixture fx;
    auto pwb = Pwb::create(*fx.region, *fx.alloc, 1 << 20);
    std::string value(100, 'a');
    for (int i = 0; i < 10; i++) {
        pwb->append(1, i, value.data(), 100);
        pwb->markPublished();
    }
    const uint64_t tail = pwb->tailLogical();
    const pmem::POff root = pwb->rootOff();
    pwb.reset();
    auto attached = Pwb::attach(*fx.region, root);
    EXPECT_EQ(attached->tailLogical(), tail);
    EXPECT_EQ(attached->headLogical(), 0u);
}

// ---------------------------------------------------------------------------
// ValueStorage + ChunkWriter

struct VsFixture {
    NvmFixture nvm;  // for the HSIT used by GC
    PrismOptions opts;
    EpochManager epochs;
    std::shared_ptr<sim::SsdDevice> ssd;
    std::unique_ptr<ValueStorage> vs;
    std::unique_ptr<Hsit> hsit;

    VsFixture()
    {
        opts.chunk_bytes = 64 * 1024;
        ssd = std::make_shared<sim::SsdDevice>(
            8 << 20, sim::kSamsung980ProProfile, /*timing=*/false);
        vs = std::make_unique<ValueStorage>(0, ssd, opts, epochs);
        hsit = Hsit::create(*nvm.region, *nvm.alloc, 4096);
    }
};

TEST(ValueStorageTest, ChunkLifecycle)
{
    VsFixture fx;
    EXPECT_EQ(fx.vs->totalChunks(), (8 << 20) / (64 * 1024));
    uint32_t base = 1;
    const int64_t c = fx.vs->openChunk(64 * 1024, &base);
    ASSERT_GE(c, 0);
    EXPECT_EQ(base, 0u);
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks() - 1);

    std::vector<uint8_t> buf(64 * 1024, 0xAA);
    WriteTicket ticket;
    ASSERT_TRUE(fx.vs->submitChunkWrite(c, 0, buf.data(), 64 * 1024,
                                        &ticket)
                    .isOk());
    ticket.wait();
    fx.vs->sealChunk(c, 64 * 1024);
    fx.vs->settleChunk(c);

    fx.vs->freeChunkDeferred(c);
    fx.epochs.drain();
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks());
}

TEST(ValueStorageTest, DoubleFreeIsIgnored)
{
    VsFixture fx;
    uint32_t base = 0;
    const int64_t c = fx.vs->openChunk(64 * 1024, &base);
    fx.vs->sealChunk(c, 0);
    fx.vs->freeChunkDeferred(c);
    fx.vs->freeChunkDeferred(c);  // must be a no-op
    fx.epochs.drain();
    EXPECT_EQ(fx.vs->freeChunks(), fx.vs->totalChunks());
}

TEST(ValueStorageTest, ValidityBitmapAccounting)
{
    VsFixture fx;
    fx.vs->setValid(0, 128);
    fx.vs->setValid(128, 256);
    EXPECT_TRUE(fx.vs->isValid(0));
    EXPECT_TRUE(fx.vs->isValid(128));
    EXPECT_EQ(fx.vs->liveUnits(0), (128 + 256) / 64);
    fx.vs->setValid(0, 128);  // idempotent
    EXPECT_EQ(fx.vs->liveUnits(0), (128 + 256) / 64);
    fx.vs->clearValid(0, 128);
    fx.vs->clearValid(0, 128);  // idempotent
    EXPECT_EQ(fx.vs->liveUnits(0), 256u / 64);
    EXPECT_FALSE(fx.vs->isValid(0));
}

TEST(ChunkWriterTest, PacksRecordsAndReadsBack)
{
    VsFixture fx;
    ChunkWriter writer({fx.vs.get()});
    std::string value(5000, 'q');
    std::vector<ValueAddr> addrs;
    for (int i = 0; i < 50; i++) {
        const ValueAddr a = writer.add(static_cast<uint64_t>(i),
                                       static_cast<uint64_t>(i) * 10,
                                       value.data(), 5000);
        ASSERT_FALSE(a.isNull());
        addrs.push_back(a);
    }
    ASSERT_TRUE(writer.finish().isOk());
    EXPECT_GT(writer.chunksWritten(), 1u);  // 250 KB over 64 KB chunks

    std::vector<uint8_t> buf;
    for (int i = 0; i < 50; i++) {
        ASSERT_TRUE(fx.vs->readRecord(addrs[static_cast<size_t>(i)], buf)
                        .isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->backward, static_cast<uint64_t>(i));
        EXPECT_EQ(hdr->key, static_cast<uint64_t>(i) * 10);
        EXPECT_EQ(hdr->value_size, 5000u);
    }
}

uint64_t
counterValue(const char *name)
{
    return stats::StatsRegistry::global().counter(name).value();
}

/** Append @p n records through one writer, publish them, settle. */
std::vector<ValueAddr>
writePublished(VsFixture &fx, int n, uint32_t size, uint64_t first_h)
{
    ChunkWriter writer({fx.vs.get()});
    const std::string value(size, 'p');
    std::vector<ValueAddr> addrs;
    for (int i = 0; i < n; i++) {
        const uint64_t h = first_h + static_cast<uint64_t>(i);
        addrs.push_back(writer.add(h, h * 10, value.data(), size));
        EXPECT_FALSE(addrs.back().isNull());
    }
    EXPECT_TRUE(writer.finish().isOk());
    for (const ValueAddr &a : addrs)
        fx.vs->setValid(a.offset(), a.recordBytes());
    writer.settleAll();
    return addrs;
}

/** Read @p a back and check it is record @p h. */
void
expectRecord(VsFixture &fx, ValueAddr a, uint64_t h)
{
    std::vector<uint8_t> buf;
    ASSERT_TRUE(fx.vs->readRecord(a, buf).isOk());
    const auto *hdr = reinterpret_cast<const ValueRecordHeader *>(buf.data());
    EXPECT_EQ(hdr->backward, h);
    EXPECT_EQ(hdr->key, h * 10);
    EXPECT_TRUE(recordCrcOk(*hdr, hdr + 1));
}

int64_t
chunkOf(ValueAddr a)
{
    return static_cast<int64_t>(a.offset() / (64 * 1024));
}

TEST(ChunkWriterTest, SuccessiveWritersShareOneChunk)
{
    VsFixture fx;
    const size_t free_before = fx.vs->freeChunks();
    std::vector<ValueAddr> addrs = writePublished(fx, 3, 1000, 0);
    EXPECT_EQ(fx.vs->tailChunk(), chunkOf(addrs[0]));
    const std::vector<ValueAddr> more = writePublished(fx, 3, 1000, 3);
    addrs.insert(addrs.end(), more.begin(), more.end());

    // One chunk holds both writers' records back to back, and it is
    // still the parked tail.
    EXPECT_EQ(fx.vs->freeChunks(), free_before - 1);
    EXPECT_EQ(fx.vs->tailChunk(), chunkOf(addrs[0]));
    for (size_t i = 1; i < addrs.size(); i++) {
        EXPECT_EQ(addrs[i].offset(),
                  addrs[i - 1].offset() + addrs[i - 1].recordBytes());
    }
    for (size_t i = 0; i < addrs.size(); i++)
        expectRecord(fx, addrs[i], i);
}

TEST(ChunkWriterTest, RecordTooBigForTheTailSealsIt)
{
    VsFixture fx;
    // 21 records of 3072 bytes leave 1024 bytes behind the tail's fill.
    const std::vector<ValueAddr> first = writePublished(fx, 21, 3000, 0);
    const int64_t tail = fx.vs->tailChunk();
    ASSERT_EQ(tail, chunkOf(first[0]));
    const uint64_t chunks0 = counterValue("prism.vs.sealed_chunks");
    const uint64_t bytes0 = counterValue("prism.vs.sealed_bytes");

    const std::vector<ValueAddr> next = writePublished(fx, 1, 3000, 21);
    EXPECT_NE(chunkOf(next[0]), tail);
    EXPECT_EQ(next[0].offset() % (64 * 1024), 0u);
    EXPECT_EQ(counterValue("prism.vs.sealed_chunks") - chunks0, 1u);
    EXPECT_EQ(counterValue("prism.vs.sealed_bytes") - bytes0,
              21u * 3072u);
    EXPECT_EQ(fx.vs->tailChunk(), chunkOf(next[0]));
    for (size_t i = 0; i < first.size(); i++)
        expectRecord(fx, first[i], i);
    expectRecord(fx, next[0], 21);
}

TEST(ChunkWriterTest, FailedAppendKeepsTheEarlierWritersRecords)
{
    VsFixture fx;
    struct Disarm {
        ~Disarm() { fault::FaultRegistry::global().disarmAll(); }
    } disarm;
    const std::vector<ValueAddr> first = writePublished(fx, 3, 1000, 0);
    const int64_t tail = fx.vs->tailChunk();
    const size_t free_before = fx.vs->freeChunks();

    // A transient failure: the retry lands the append in place.
    fault::FaultSpec once;
    once.trigger = fault::Trigger::kOnce;
    fault::FaultRegistry::global().arm("pwb.chunk_write", once);
    const uint64_t retries0 = counterValue("prism.pwb.retries");
    const std::vector<ValueAddr> second = writePublished(fx, 2, 1000, 3);
    EXPECT_GT(counterValue("prism.pwb.retries"), retries0);
    EXPECT_EQ(second[0].offset(),
              first.back().offset() + first.back().recordBytes());
    EXPECT_EQ(fx.vs->tailChunk(), tail);

    // A permanent failure: the append is reported failed, the chunk is
    // closed behind the published records instead of recycled.
    fault::FaultSpec always;
    always.trigger = fault::Trigger::kProbability;
    always.probability = 1.0;
    fault::FaultRegistry::global().arm("pwb.chunk_write", always);
    {
        ChunkWriter writer({fx.vs.get()});
        const std::string value(1000, 'f');
        const ValueAddr a = writer.add(5, 50, value.data(), 1000);
        EXPECT_EQ(chunkOf(a), tail);
        ASSERT_TRUE(writer.finish().isOk());
        EXPECT_TRUE(writer.recordFailed(0));
    }
    fault::FaultRegistry::global().disarmAll();
    fx.epochs.drain();
    EXPECT_EQ(fx.vs->freeChunks(), free_before);
    EXPECT_EQ(fx.vs->tailChunk(), -1);
    for (size_t i = 0; i < first.size(); i++) {
        EXPECT_TRUE(fx.vs->isValid(first[i].offset()));
        expectRecord(fx, first[i], i);
    }
    for (size_t i = 0; i < second.size(); i++)
        expectRecord(fx, second[i], 3 + i);

    // The next writer starts a fresh chunk.
    const std::vector<ValueAddr> after = writePublished(fx, 1, 1000, 6);
    EXPECT_NE(chunkOf(after[0]), tail);
    expectRecord(fx, after[0], 6);
}

TEST(ChunkWriterTest, SuccessiveWritersSpreadOverIdleTargets)
{
    // Writers built with the same seed must still not all start on the
    // same idle Value Storage.
    PrismOptions opts;
    opts.chunk_bytes = 64 * 1024;
    EpochManager epochs;
    std::vector<std::unique_ptr<ValueStorage>> owned;
    std::vector<ValueStorage *> targets;
    for (uint32_t i = 0; i < 4; i++) {
        owned.push_back(std::make_unique<ValueStorage>(
            i,
            std::make_shared<sim::SsdDevice>(
                8 << 20, sim::kSamsung980ProProfile, /*timing=*/false),
            opts, epochs));
        targets.push_back(owned.back().get());
    }
    std::set<uint32_t> used;
    const std::string value(100, 's');
    for (int w = 0; w < 64; w++) {
        ChunkWriter writer(targets);
        const ValueAddr a = writer.add(static_cast<uint64_t>(w), 0,
                                       value.data(), 100);
        ASSERT_FALSE(a.isNull());
        ASSERT_TRUE(writer.finish().isOk());
        writer.settleAll();
        used.insert(a.ssdId());
    }
    EXPECT_GE(used.size(), 3u);
}

TEST(ValueStorageTest, GcRelocatesLiveValues)
{
    VsFixture fx;
    // Write two full chunks of values plus a partial third, which is
    // parked as the open tail; register them in the HSIT; kill most of
    // them; GC must compact the survivors (into the tail first) and
    // free victims.
    ChunkWriter writer({fx.vs.get()});
    std::string value(3000, 'g');  // 3072-byte records, 21 per chunk
    struct Item {
        uint64_t h;
        ValueAddr addr;
    };
    std::vector<Item> items;
    for (int i = 0; i < 60; i++) {
        const uint64_t h = fx.hsit->allocEntry();
        const ValueAddr a = writer.add(h, static_cast<uint64_t>(i),
                                       value.data(), 3000);
        ASSERT_FALSE(a.isNull());
        items.push_back({h, a});
    }
    ASSERT_TRUE(writer.finish().isOk());
    for (const auto &it : items) {
        fx.vs->setValid(it.addr.offset(), it.addr.recordBytes());
        fx.hsit->storePrimaryDurable(it.h, it.addr);
    }
    writer.settleAll();

    // Invalidate all but every 8th value.
    for (size_t i = 0; i < items.size(); i++) {
        if (i % 8 == 0)
            continue;
        fx.vs->clearValid(items[i].addr.offset(),
                          items[i].addr.recordBytes());
        fx.hsit->storePrimaryDurable(items[i].h, ValueAddr());
    }
    const ValueAddr last = items.back().addr;
    ASSERT_EQ(fx.vs->tailChunk(),
              static_cast<int64_t>(last.offset() / (64 * 1024)));
    const size_t free_before = fx.vs->freeChunks();
    const size_t reclaimed = fx.vs->runGcPass(*fx.hsit);
    fx.epochs.drain();
    EXPECT_EQ(reclaimed, 2u);
    EXPECT_GT(fx.vs->freeChunks(), free_before);
    // The first survivor continued the tail right behind its fill.
    EXPECT_EQ(fx.hsit->loadPrimary(items[0].h).offset(),
              last.offset() + last.recordBytes());

    // Survivors must still be readable via their *new* HSIT pointers.
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < items.size(); i += 8) {
        const ValueAddr now = fx.hsit->loadPrimary(items[i].h);
        ASSERT_FALSE(now.isNull());
        ASSERT_TRUE(fx.vs->readRecord(now, buf).isOk());
        const auto *hdr =
            reinterpret_cast<const ValueRecordHeader *>(buf.data());
        EXPECT_EQ(hdr->backward, items[i].h);
    }
}

TEST(ValueStorageTest, GcWithNoFreeChunkLeavesSurvivorsInPlace)
{
    VsFixture fx;
    ChunkWriter writer({fx.vs.get()});
    std::string value(3000, 'n');
    struct Item {
        uint64_t h;
        ValueAddr addr;
    };
    std::vector<Item> items;
    for (int i = 0; i < 40; i++) {
        const uint64_t h = fx.hsit->allocEntry();
        const ValueAddr a = writer.add(h, static_cast<uint64_t>(i),
                                       value.data(), 3000);
        ASSERT_FALSE(a.isNull());
        items.push_back({h, a});
    }
    ASSERT_TRUE(writer.finish().isOk());
    for (const auto &it : items) {
        fx.vs->setValid(it.addr.offset(), it.addr.recordBytes());
        fx.hsit->storePrimaryDurable(it.h, it.addr);
    }
    writer.settleAll();
    for (size_t i = 0; i < items.size(); i++) {
        if (i % 8 == 0)
            continue;
        fx.vs->clearValid(items[i].addr.offset(),
                          items[i].addr.recordBytes());
        fx.hsit->storePrimaryDurable(items[i].h, ValueAddr());
    }

    // Every free chunk is taken and the parked tail is sealed (a record
    // as big as a chunk never fits behind its fill): the pass cannot
    // place any survivor, so it must leave them (and their victims)
    // alone rather than abort.
    ASSERT_GE(fx.vs->tailChunk(), 0);
    std::vector<int64_t> held;
    uint32_t base = 0;
    for (int64_t c = fx.vs->openChunk(64 * 1024, &base); c >= 0;
         c = fx.vs->openChunk(64 * 1024, &base))
        held.push_back(c);
    EXPECT_EQ(fx.vs->tailChunk(), -1);
    EXPECT_EQ(fx.vs->runGcPass(*fx.hsit), 0u);
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < items.size(); i += 8) {
        EXPECT_EQ(fx.hsit->loadPrimary(items[i].h), items[i].addr);
        ASSERT_TRUE(fx.vs->readRecord(items[i].addr, buf).isOk());
        EXPECT_EQ(reinterpret_cast<const ValueRecordHeader *>(buf.data())
                      ->backward,
                  items[i].h);
    }
}

// ---------------------------------------------------------------------------
// ReadBatcher

class ReadBatcherTest : public ::testing::TestWithParam<ReadBatchMode> {};

TEST_P(ReadBatcherTest, ConcurrentReadsAllCorrect)
{
    auto ssd = std::make_shared<sim::SsdDevice>(
        8 << 20, sim::kSamsung980ProProfile, /*timing=*/false);
    // Stamp each 4 KB block with its index.
    for (uint64_t b = 0; b < 256; b++) {
        std::vector<uint64_t> block(512, b);
        ssd->writeSync(b * 4096, block.data(), 4096);
    }
    ReadBatcher batcher(*ssd, GetParam(), 16, 50);
    // A completion thread, as ValueStorage runs one.
    std::atomic<bool> stop{false};
    std::thread completer([&] {
        std::vector<sim::SsdCompletion> done;
        while (!stop.load()) {
            done.clear();
            if (ssd->waitCompletions(done, 64, 100) == 0)
                continue;
            for (const auto &c : done)
                ReadBatcher::completeFromUserData(c.user_data);
        }
    });

    std::vector<std::thread> readers;
    for (int t = 0; t < 8; t++) {
        readers.emplace_back([&, t] {
            Xorshift rng(static_cast<uint64_t>(t));
            std::vector<uint64_t> buf(512);
            for (int i = 0; i < 500; i++) {
                const uint64_t b = rng.nextUniform(256);
                ASSERT_TRUE(batcher.read(b * 4096, buf.data(), 4096)
                                .isOk());
                ASSERT_EQ(buf[0], b);
                ASSERT_EQ(buf[511], b);
            }
        });
    }
    for (auto &r : readers)
        r.join();
    stop.store(true);
    completer.join();
    EXPECT_EQ(batcher.requestsCoalesced(), 8u * 500);
    EXPECT_LE(batcher.batchesSubmitted(), batcher.requestsCoalesced());
}

TEST_P(ReadBatcherTest, ReadPastCapacityFailsPromptly)
{
    // The device rejects the batch, so it produces no completions; the
    // reader must still get an error instead of waiting forever.
    auto ssd = std::make_shared<sim::SsdDevice>(
        1 << 20, sim::kSamsung980ProProfile, /*timing=*/false);
    auto batcher = std::make_shared<ReadBatcher>(*ssd, GetParam(), 16, 50);
    auto done = std::make_shared<std::promise<Status>>();
    std::future<Status> result = done->get_future();
    std::thread reader([ssd, batcher, done] {
        std::vector<uint8_t> buf(4096);
        done->set_value(batcher->read(1 << 20, buf.data(), 4096));
    });
    if (result.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
        // Blocked for good, so it cannot be joined; it holds shared
        // owners of everything it touches.
        reader.detach();
        FAIL() << "a read past capacity never returned";
    }
    reader.join();
    EXPECT_FALSE(result.get().isOk());
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReadBatcherTest,
                         ::testing::Values(
                             ReadBatchMode::kThreadCombining,
                             ReadBatchMode::kTimeoutAsync,
                             ReadBatchMode::kNone),
                         [](const auto &info) {
                             switch (info.param) {
                               case ReadBatchMode::kThreadCombining:
                                 return "ThreadCombining";
                               case ReadBatchMode::kTimeoutAsync:
                                 return "TimeoutAsync";
                               default:
                                 return "None";
                             }
                         });

}  // namespace
}  // namespace prism::core
