/**
 * @file
 * Packed value-location encoding used in HSIT forward pointers.
 *
 * The paper packs an HSIT entry into 16 bytes: the value lives in either
 * the PWB (NVM) or Value Storage (SSD), plus an optional SVC copy. We
 * encode the PWB-or-VS location in one 64-bit word:
 *
 *   bit 63       dirty bit (flush-on-read durable-CAS protocol, §5.4)
 *   bit 62       location: 0 = PWB (NVM), 1 = Value Storage (SSD)
 *   bits 61..52  record size in 64-byte units (1..1023 => max ~64 KB)
 *   bits 51..46  SSD id (Value Storage only; 0 for PWB)
 *   bits 45..0   byte offset (NVM region offset, or byte address on SSD)
 *
 * Carrying the record size in the pointer lets a Value Storage read issue
 * exactly one right-sized I/O without first fetching metadata. The whole
 * word is 0 when the entry holds no value.
 */
#pragma once

#include <cstdint>

#include "common/logging.h"

namespace prism::core {

/** Packed value location (see file comment). */
class ValueAddr {
  public:
    static constexpr uint64_t kDirtyBit = 1ull << 63;
    static constexpr uint64_t kVsBit = 1ull << 62;
    static constexpr int kSizeShift = 52;
    static constexpr uint64_t kSizeMask = 0x3FF;    // 10 bits
    static constexpr int kSsdShift = 46;
    static constexpr uint64_t kSsdMask = 0x3F;      // 6 bits
    static constexpr uint64_t kOffsetMask = (1ull << 46) - 1;

    /** Granularity of the size field. */
    static constexpr uint64_t kSizeUnit = 64;
    /** Largest encodable record (header + value + padding). */
    static constexpr uint64_t kMaxRecordBytes = kSizeMask * kSizeUnit;

    ValueAddr() : raw_(0) {}
    explicit ValueAddr(uint64_t raw) : raw_(raw) {}

    /** Encode a PWB (NVM) location. @p record_bytes includes the header. */
    static ValueAddr
    pwb(uint64_t nvm_offset, uint64_t record_bytes)
    {
        return ValueAddr(encode(false, 0, nvm_offset, record_bytes));
    }

    /** Encode a Value Storage (SSD) location. */
    static ValueAddr
    vs(uint32_t ssd_id, uint64_t ssd_offset, uint64_t record_bytes)
    {
        return ValueAddr(encode(true, ssd_id, ssd_offset, record_bytes));
    }

    uint64_t raw() const { return raw_; }
    bool isNull() const { return (raw_ & ~kDirtyBit) == 0; }
    bool isDirty() const { return raw_ & kDirtyBit; }
    bool isVs() const { return raw_ & kVsBit; }
    bool isPwb() const { return !isNull() && !isVs(); }

    uint32_t ssdId() const {
        return static_cast<uint32_t>((raw_ >> kSsdShift) & kSsdMask);
    }
    uint64_t offset() const { return raw_ & kOffsetMask; }
    uint64_t recordBytes() const {
        return ((raw_ >> kSizeShift) & kSizeMask) * kSizeUnit;
    }

    ValueAddr withDirty() const { return ValueAddr(raw_ | kDirtyBit); }
    ValueAddr withoutDirty() const { return ValueAddr(raw_ & ~kDirtyBit); }

    bool operator==(const ValueAddr &o) const { return raw_ == o.raw_; }

  private:
    static uint64_t
    encode(bool is_vs, uint32_t ssd, uint64_t offset, uint64_t record_bytes)
    {
        PRISM_DCHECK(offset <= kOffsetMask);
        PRISM_DCHECK(ssd <= kSsdMask);
        PRISM_DCHECK(record_bytes % kSizeUnit == 0);
        PRISM_DCHECK(record_bytes > 0 && record_bytes <= kMaxRecordBytes);
        return (is_vs ? kVsBit : 0) |
               ((record_bytes / kSizeUnit) << kSizeShift) |
               (static_cast<uint64_t>(ssd) << kSsdShift) | offset;
    }

    uint64_t raw_;
};

/**
 * Value Storage records that one scan fetches with a single read: all on
 * one SSD, each starting where the previous one ends, and together no
 * longer than a chunk. PrismDb::scan merges its SSD reads with this rule
 * and the SVC's scan-aware reorganisation leaves such runs in place, so
 * the two always agree on what is already contiguous.
 */
struct ScanExtent {
    uint32_t ssd;
    uint64_t start;
    uint64_t end;

    explicit ScanExtent(ValueAddr a)
        : ssd(a.ssdId()), start(a.offset()),
          end(a.offset() + a.recordBytes())
    {}

    /**
     * Grow the extent by the record at @p a when one read still covers
     * it (callers visit records sorted by SSD and offset).
     * @return true if @p a joined the extent.
     */
    bool
    extend(ValueAddr a, uint64_t chunk_bytes)
    {
        const uint64_t a_end = a.offset() + a.recordBytes();
        if (a.ssdId() != ssd || a.offset() != end ||
            a_end - start > chunk_bytes)
            return false;
        end = a_end;
        return true;
    }
};

/**
 * On-media record header preceding every value in the PWB and in Value
 * Storage chunks (§5.1: backward pointer + size). The key is carried
 * for scan-aware reorganisation; the CRC32C protects identity + payload
 * against torn or misdirected SSD reads.
 */
struct ValueRecordHeader {
    /** HSIT entry index this value belongs to (the backward pointer). */
    uint64_t backward;
    uint64_t key;
    uint32_t value_size;
    uint32_t flags;
    uint32_t crc;       ///< CRC32C over (backward, key, value_size, payload)
    uint32_t reserved;

    static constexpr uint32_t kFlagPad = 1;  ///< padding record, skip it
};

/** Compute the record checksum for @p hdr with @p payload bytes. */
uint32_t recordCrc(const ValueRecordHeader &hdr, const void *payload);

/** @return true when the stored checksum matches the record contents. */
inline bool
recordCrcOk(const ValueRecordHeader &hdr, const void *payload)
{
    return hdr.crc == recordCrc(hdr, payload);
}

/** Total on-media footprint of a record, 64-byte aligned. */
inline uint64_t
recordBytes(uint32_t value_size)
{
    const uint64_t raw = sizeof(ValueRecordHeader) + value_size;
    return (raw + ValueAddr::kSizeUnit - 1) & ~(ValueAddr::kSizeUnit - 1);
}

}  // namespace prism::core
