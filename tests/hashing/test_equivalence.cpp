/**
 * @file
 * Equivalence proofs for every hot-path hashing shortcut.
 *
 * The optimized pipeline takes these liberties with the naive
 * definitions: slicing-by-8 CRC instead of the byte-at-a-time recurrence,
 * a hoisted address-prefix CRC inside Crc64LocationHasher::hashSpan, one
 * batched hashSpan call per store instead of a per-byte virtual hashByte
 * fold, one fused hashDelta pass per store instead of two value hashes,
 * a fused store delta in the basic MHM, and one span call per window of
 * a typed region instead of one value hash per scalar. Every checkpoint
 * hash in the repo flows through these shortcuts, so this suite pins them
 * against independent naive references (kept alive here, not in the
 * library) plus golden vectors frozen from the canonical definition — any
 * silent change to the hash function fails loudly.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "check/region.hpp"
#include "hashing/crc64.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/state_hash.hpp"
#include "hashing/truncated_hash.hpp"
#include "mem/memory.hpp"
#include "mem/type_desc.hpp"
#include "mhm/mhm.hpp"
#include "support/rng.hpp"

namespace icheck::hashing
{
namespace
{

/** Tableless bitwise CRC-64/ECMA-182: the definition, one bit at a time. */
std::uint64_t
bitwiseCrc64(const std::uint8_t *data, std::size_t len,
             std::uint64_t seed = 0)
{
    std::uint64_t crc = seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= static_cast<std::uint64_t>(data[i]) << 56;
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & (1ULL << 63))
                crc = (crc << 1) ^ detail::crc64Polynomial;
            else
                crc <<= 1;
        }
    }
    return crc;
}

/**
 * Naive h(a, v) for the CRC instantiation: the CRC of the 9-byte record
 * (8-byte little-endian address, then the value byte), identity for zero.
 */
ModHash
referenceCrcHashByte(Addr addr, std::uint8_t value)
{
    if (value == 0)
        return ModHash{};
    std::uint8_t record[9];
    for (int i = 0; i < 8; ++i)
        record[i] = static_cast<std::uint8_t>(addr >> (8 * i));
    record[8] = value;
    return ModHash(bitwiseCrc64(record, 9));
}

/** The per-byte fold every hashSpan override must stay bit-identical to. */
ModHash
referenceFold(const LocationHasher &hasher, Addr addr,
              const std::uint8_t *bytes, std::size_t len)
{
    ModHash sum;
    for (std::size_t i = 0; i < len; ++i)
        sum += hasher.hashByte(addr + i, bytes[i]);
    return sum;
}

/** Deterministic test bytes with zeros sprinkled in (the skip path). */
std::vector<std::uint8_t>
patternBytes(std::size_t len, std::uint64_t seed)
{
    SplitMix64 gen(seed);
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t word = gen.next();
        bytes[i] = (word % 5 == 0)
                       ? 0
                       : static_cast<std::uint8_t>(word >> 32);
    }
    return bytes;
}

TEST(CrcEquivalence, SlicedComputeMatchesBitwise)
{
    SplitMix64 gen(0xc0ffee);
    for (std::size_t len = 0; len <= 64; ++len) {
        std::vector<std::uint8_t> data(len);
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(gen.next());
        const std::uint64_t seed = gen.next();
        EXPECT_EQ(Crc64::compute(data.data(), len, seed),
                  bitwiseCrc64(data.data(), len, seed))
            << "len " << len;
    }
}

TEST(CrcEquivalence, SlicedComputeKnownVector)
{
    const char *msg = "123456789";
    EXPECT_EQ(Crc64::compute(msg, std::strlen(msg)),
              0x6C40DF5F0B497347ULL);
}

TEST(CrcEquivalence, FeedWordLeMatchesEightFeeds)
{
    SplitMix64 gen(0x5eed);
    for (int round = 0; round < 256; ++round) {
        const std::uint64_t seed = gen.next();
        const std::uint64_t word = gen.next();
        std::uint64_t crc = seed;
        for (int i = 0; i < 8; ++i)
            crc = Crc64::feed(crc,
                              static_cast<std::uint8_t>(word >> (8 * i)));
        EXPECT_EQ(Crc64::feedWordLe(seed, word), crc);
    }
}

TEST(CrcEquivalence, HashByteIsNineByteRecordCrc)
{
    const Crc64LocationHasher hasher;
    const Addr addrs[] = {0x0, 0x1, 0xff, 0x100, mem::staticBase,
                          mem::heapBase - 1, mem::heapBase,
                          mem::scratchBase + 0xff,
                          0xfedcba9876543210ULL, ~Addr{0}};
    for (const Addr addr : addrs) {
        for (unsigned value = 0; value < 256; ++value) {
            EXPECT_EQ(
                hasher.hashByte(addr, static_cast<std::uint8_t>(value)),
                referenceCrcHashByte(addr,
                                     static_cast<std::uint8_t>(value)))
                << "addr " << addr << " value " << value;
        }
    }
}

TEST(CrcEquivalence, ZeroByteIsIdentityEverywhere)
{
    const Crc64LocationHasher crc;
    const Mix64LocationHasher mix;
    SplitMix64 gen(0xabcdef);
    for (int round = 0; round < 1000; ++round) {
        const Addr addr = gen.next();
        EXPECT_EQ(crc.hashByte(addr, 0), ModHash{});
        EXPECT_EQ(mix.hashByte(addr, 0), ModHash{});
    }
}

/** Exercise one hasher's hashSpan against the fold over tricky spans. */
void
checkSpans(const LocationHasher &hasher)
{
    // Every width and alignment a store can have, at benign addresses.
    for (Addr base : {Addr{0}, mem::staticBase, mem::heapBase}) {
        for (unsigned align = 0; align < 8; ++align) {
            for (std::size_t len = 1; len <= 8; ++len) {
                const Addr addr = base + align;
                const auto bytes =
                    patternBytes(len, base + align * 16 + len);
                EXPECT_EQ(hasher.hashSpan(addr, bytes.data(), len),
                          referenceFold(hasher, addr, bytes.data(), len))
                    << hasher.name() << " addr " << addr << " len " << len;
            }
        }
    }
    // Spans that straddle the 0x100 suffix-hoisting boundary, the 4096
    // page boundary, and address-space wraparound, at every offset.
    const Addr boundaries[] = {mem::heapBase + 0x100,
                               mem::heapBase + mem::pageSize,
                               mem::scratchBase + 3 * mem::pageSize,
                               Addr{0}};
    for (const Addr boundary : boundaries) {
        for (std::size_t len : {std::size_t{2}, std::size_t{8},
                                std::size_t{64}, std::size_t{300}}) {
            for (std::size_t before = 1; before < len; ++before) {
                const Addr addr = boundary - before;
                const auto bytes = patternBytes(len, boundary + before);
                EXPECT_EQ(hasher.hashSpan(addr, bytes.data(), len),
                          referenceFold(hasher, addr, bytes.data(), len))
                    << hasher.name() << " boundary " << boundary
                    << " before " << before << " len " << len;
            }
        }
    }
    // All-zero spans hash to the identity.
    const std::vector<std::uint8_t> zeros(512, 0);
    EXPECT_EQ(hasher.hashSpan(mem::heapBase - 7, zeros.data(),
                              zeros.size()),
              ModHash{});
}

TEST(SpanEquivalence, Crc64HashSpanMatchesByteFold)
{
    checkSpans(Crc64LocationHasher{});
}

TEST(SpanEquivalence, Mix64HashSpanMatchesByteFold)
{
    checkSpans(Mix64LocationHasher{});
}

TEST(SpanEquivalence, TruncatedHasherKeepsPerByteSemantics)
{
    // TruncatedLocationHasher masks each per-byte hash before summing; it
    // must inherit the generic fold, not a batched override that would
    // mask only the total.
    const TruncatedLocationHasher hasher(
        std::make_unique<Crc64LocationHasher>(), 16);
    const auto bytes = patternBytes(40, 0x7e57);
    const Addr addr = mem::heapBase + 0x100 - 13;
    EXPECT_EQ(hasher.hashSpan(addr, bytes.data(), bytes.size()),
              referenceFold(hasher, addr, bytes.data(), bytes.size()));
}

TEST(ValueHashEquivalence, AllWidthsAndClassesMatchByteFold)
{
    const Crc64LocationHasher locHasher;
    SplitMix64 gen(0xfeed);
    for (const auto &mode : {FpRoundMode::none(),
                             FpRoundMode::paperDefault(),
                             FpRoundMode::mask(12)}) {
        const StateHasher pipeline(locHasher, mode);
        for (unsigned width = 1; width <= 8; ++width) {
            const Addr addr = mem::heapBase + 0x100 - width / 2;
            const std::uint64_t raw =
                width == 8 ? gen.next()
                           : gen.next() & ((1ULL << (8 * width)) - 1);
            const ModHash got =
                pipeline.valueHash(addr, raw, width, ValueClass::Integer);
            std::uint8_t bytes[8];
            for (unsigned i = 0; i < width; ++i)
                bytes[i] = static_cast<std::uint8_t>(raw >> (8 * i));
            EXPECT_EQ(got, referenceFold(locHasher, addr, bytes, width))
                << "width " << width;
        }
        // FP classes round first, then fold the rounded bytes.
        const struct
        {
            ValueClass cls;
            unsigned width;
            std::uint64_t raw;
        } fpCases[] = {
            {ValueClass::Float, 4, 0x402df854},          // 2.71828f
            {ValueClass::Float, 4, 0xc0490fdb},          // -3.14159f
            {ValueClass::Double, 8, 0x400921fb54442d18}, // pi
            {ValueClass::Double, 8, 0xbfe0000000000000}, // -0.5
        };
        for (const auto &fp : fpCases) {
            const Addr addr = mem::staticBase + 64;
            const std::uint64_t rounded =
                roundFpBits(fp.raw, fp.width, mode);
            std::uint8_t bytes[8];
            for (unsigned i = 0; i < fp.width; ++i)
                bytes[i] = static_cast<std::uint8_t>(rounded >> (8 * i));
            EXPECT_EQ(pipeline.valueHash(addr, fp.raw, fp.width, fp.cls),
                      referenceFold(locHasher, addr, bytes, fp.width));
        }
    }
}

/** A copy of @p bytes with about half its bytes changed, some to zero
 *  and some from zero. */
std::vector<std::uint8_t>
mutated(const std::vector<std::uint8_t> &bytes, std::uint64_t seed)
{
    SplitMix64 gen(seed);
    std::vector<std::uint8_t> out = bytes;
    for (auto &byte : out) {
        const std::uint64_t word = gen.next();
        if (word % 2 == 0)
            continue; // unchanged: must cancel
        byte = word % 3 == 0 ? 0 : static_cast<std::uint8_t>(word >> 40);
    }
    return out;
}

/** Exercise one hasher's hashDelta against the two-fold difference. */
void
checkDeltas(const LocationHasher &hasher)
{
    const auto reference = [&hasher](Addr addr,
                                     const std::vector<std::uint8_t> &before,
                                     const std::vector<std::uint8_t> &after) {
        return referenceFold(hasher, addr, after.data(), after.size()) -
               referenceFold(hasher, addr, before.data(), before.size());
    };
    // Every store width at every alignment.
    for (Addr base : {Addr{0}, mem::staticBase, mem::heapBase}) {
        for (unsigned align = 0; align < 8; ++align) {
            for (std::size_t len = 1; len <= 8; ++len) {
                const Addr addr = base + 0x100 - 4 + align;
                const auto before = patternBytes(len, addr + len);
                const auto after = mutated(before, addr * 3 + len);
                EXPECT_EQ(hasher.hashDelta(addr, before.data(),
                                           after.data(), len),
                          reference(addr, before, after))
                    << hasher.name() << " addr " << addr << " len " << len;
                // Equal spans cancel to the identity.
                EXPECT_EQ(hasher.hashDelta(addr, before.data(),
                                           before.data(), len),
                          ModHash{});
            }
        }
    }
    // Spans that cross the 0x100 suffix boundary (one or two of them)
    // and a page boundary, at many offsets.
    for (const Addr boundary :
         {mem::heapBase + 0x200, mem::scratchBase + mem::pageSize}) {
        for (std::size_t len : {std::size_t{9}, std::size_t{64},
                                std::size_t{300}, std::size_t{600}}) {
            for (std::size_t before_len = 1; before_len < len;
                 before_len += 7) {
                const Addr addr = boundary - before_len;
                const auto before = patternBytes(len, addr);
                const auto after = mutated(before, addr + len);
                EXPECT_EQ(hasher.hashDelta(addr, before.data(),
                                           after.data(), len),
                          reference(addr, before, after))
                    << hasher.name() << " addr " << addr << " len " << len;
            }
        }
    }
    // All-zero to all-zero, zero to nonzero, nonzero to zero.
    const std::vector<std::uint8_t> zeros(300, 0);
    const auto filled = patternBytes(300, 0x2e40);
    const Addr addr = mem::heapBase + 0x100 - 9;
    EXPECT_EQ(hasher.hashDelta(addr, zeros.data(), zeros.data(), 300),
              ModHash{});
    EXPECT_EQ(hasher.hashDelta(addr, zeros.data(), filled.data(), 300),
              reference(addr, zeros, filled));
    EXPECT_EQ(hasher.hashDelta(addr, filled.data(), zeros.data(), 300),
              reference(addr, filled, zeros));
}

TEST(DeltaEquivalence, Crc64HashDeltaMatchesFoldDifference)
{
    checkDeltas(Crc64LocationHasher{});
}

TEST(DeltaEquivalence, Mix64HashDeltaMatchesFoldDifference)
{
    checkDeltas(Mix64LocationHasher{});
}

TEST(DeltaEquivalence, TruncatedHashDeltaMatchesFoldDifference)
{
    checkDeltas(TruncatedLocationHasher(
        std::make_unique<Crc64LocationHasher>(), 16));
}

/** Every rounding mode the store-delta test runs under. */
std::vector<FpRoundMode>
storeDeltaModes()
{
    std::vector<FpRoundMode> modes = {FpRoundMode::none(),
                                      FpRoundMode::mask(12),
                                      FpRoundMode::mask(40)};
    for (int digits = -1; digits <= 23; ++digits)
        modes.push_back(FpRoundMode::floorDigits(digits));
    return modes;
}

/** Raw bits of @p value as a @p cls store carries them. */
std::uint64_t
fpBits(double value, ValueClass cls)
{
    if (cls == ValueClass::Float) {
        const float narrow = static_cast<float>(value);
        std::uint32_t bits;
        std::memcpy(&bits, &narrow, sizeof(bits));
        return bits;
    }
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

TEST(StoreDeltaEquivalence, FusedDeltaMatchesTwoValueHashes)
{
    const Crc64LocationHasher locHasher;
    SplitMix64 gen(0xde17a);
    for (const FpRoundMode &mode : storeDeltaModes()) {
        const StateHasher pipeline(locHasher, mode);
        const auto check = [&](Addr addr, std::uint64_t old_bits,
                               std::uint64_t new_bits, unsigned width,
                               ValueClass cls) {
            EXPECT_EQ(pipeline.storeDelta(addr, old_bits, new_bits, width,
                                          cls),
                      pipeline.valueHash(addr, new_bits, width, cls) -
                          pipeline.valueHash(addr, old_bits, width, cls))
                << "digits " << mode.decimalDigits << " kind "
                << static_cast<int>(mode.kind) << " width " << width
                << " old " << old_bits << " new " << new_bits;
        };
        // Integer stores of every width, including equal and zero values
        // and stores that straddle the 0x100 suffix boundary.
        for (unsigned width = 1; width <= 8; ++width) {
            const std::uint64_t mask =
                width == 8 ? ~0ULL : (1ULL << (8 * width)) - 1;
            const Addr addr = mem::heapBase + 0x100 - width / 2;
            for (int round = 0; round < 16; ++round) {
                const std::uint64_t a = gen.next() & mask;
                const std::uint64_t b =
                    round % 4 == 0 ? a : (a ^ (gen.next() & mask));
                check(addr, a, b, width, ValueClass::Integer);
                check(addr, 0, b, width, ValueClass::Integer);
                check(addr, a, 0, width, ValueClass::Integer);
            }
        }
        // FP stores: noise below the rounding grain, changes above it,
        // signed zeros, and non-finite values.
        const double specials[] = {0.0,      -0.0,    1.2341, 1.2342,
                                   -1.2341,  1e-310,  1e300,  -7.5e20,
                                   INFINITY, -INFINITY, NAN};
        for (const ValueClass cls : {ValueClass::Float, ValueClass::Double}) {
            const unsigned width = cls == ValueClass::Float ? 4 : 8;
            const Addr addr = mem::staticBase + 0x100 - 3;
            for (const double a : specials) {
                for (const double b : specials)
                    check(addr, fpBits(a, cls), fpBits(b, cls), width, cls);
            }
            for (int round = 0; round < 64; ++round) {
                const double scale =
                    std::ldexp(1.0, static_cast<int>(gen.next() % 80) - 40);
                const double a =
                    (static_cast<double>(gen.next() >> 11) * 0x1.0p-53 -
                     0.5) * scale;
                const double noise = a * 1e-12 * (round % 3);
                check(addr, fpBits(a, cls), fpBits(a + noise, cls), width,
                      cls);
                check(addr, fpBits(a, cls), gen.next() & (width == 8
                                                   ? ~0ULL
                                                   : 0xffffffffULL),
                      width, cls);
            }
        }
    }
}

/** The per-scalar typed-region walk: one value hash per scalar, Pad
 *  leaves hashed raw. The batched hashTypedRegion must match it. */
ModHash
referenceTypedRegion(const StateHasher &hasher,
                     const mem::SparseMemory &image, Addr addr,
                     const mem::TypeRef &type)
{
    ModHash sum;
    type->forEachScalar([&](std::size_t offset, mem::ScalarKind kind,
                            unsigned width) {
        const Addr at = addr + offset;
        if (kind == mem::ScalarKind::Pad) {
            std::vector<std::uint8_t> bytes(width);
            image.readBytes(at, bytes.data(), width);
            sum += hasher.spanHash(at, bytes.data(), width);
            return;
        }
        sum += hasher.valueHash(at, image.readValue(at, width), width,
                                mem::scalarClass(kind));
    });
    return sum;
}

/** Random bytes at [addr, addr + len), with doubles and floats that
 *  round non-trivially at every FP leaf of @p type. */
void
fillRegion(mem::SparseMemory &image, Addr addr, const mem::TypeRef &type,
           std::uint64_t seed)
{
    SplitMix64 gen(seed);
    std::vector<std::uint8_t> bytes(type->size());
    for (auto &byte : bytes) {
        const std::uint64_t word = gen.next();
        byte = word % 4 == 0 ? 0 : static_cast<std::uint8_t>(word >> 32);
    }
    image.writeBytes(addr, bytes.data(), bytes.size());
    type->forEachFpScalar([&](std::size_t offset, mem::ScalarKind kind) {
        const double value =
            (static_cast<double>(gen.next() >> 11) * 0x1.0p-53 - 0.5) *
            std::ldexp(1.0, static_cast<int>(gen.next() % 40) - 10);
        const ValueClass cls = mem::scalarClass(kind);
        image.writeValue(addr + offset, cls == ValueClass::Float ? 4 : 8,
                         fpBits(value, cls));
    });
}

TEST(RegionEquivalence, BatchedTypedRegionMatchesPerScalarWalk)
{
    using namespace mem;
    const TypeRef particle = tStruct({tDouble(), tInt32(), tFloat(),
                                      tPad(3), tPointer(), tInt8(),
                                      tArray(tDouble(), 3), tInt16()});
    const TypeRef types[] = {
        tDouble(),
        tArray(tDouble(), 700), // several windows of doubles
        tArray(tFloat(), 301),
        tArray(tInt64(), 400),  // integer-only: raw path
        tArray(particle, 97),
        // Leaves that straddle a window end (the window starts at a
        // leaf, and 1024 is not a multiple of these strides).
        tArray(tStruct({tPad(3), tDouble()}), 300),
        tArray(tStruct({tInt16(), tFloat(), tPad(1)}), 500),
        tStruct({tPad(2000), tFloat(), tArray(tInt32(), 700),
                 tArray(tStruct({tPad(5), tDouble()}), 250), tPad(1)}),
        tStruct({tArray(tStruct({tInt8(), tArray(tFloat(), 2)}), 3),
                 tBytes(13)}),
    };
    const Crc64LocationHasher locHasher;
    const FpRoundMode modes[] = {FpRoundMode::paperDefault(),
                                 FpRoundMode::none(), FpRoundMode::mask(30),
                                 FpRoundMode::floorDigits(0),
                                 FpRoundMode::floorDigits(9)};
    // Bases at, just before and across page boundaries; the last region
    // runs into unmapped (zero) memory.
    const Addr bases[] = {mem::heapBase, mem::heapBase + mem::pageSize - 5,
                          mem::staticBase + 3 * mem::pageSize - 1001};
    std::uint64_t seed = 1;
    for (const TypeRef &type : types) {
        for (const Addr base : bases) {
            SparseMemory image;
            fillRegion(image, base, type, ++seed);
            for (const FpRoundMode &mode : modes) {
                const StateHasher hasher(locHasher, mode);
                EXPECT_EQ(check::hashTypedRegion(hasher, image, base, type,
                                                 type->size()),
                          referenceTypedRegion(hasher, image, base, type))
                    << type->describe() << " at " << base;
            }
        }
        // Half-mapped: only the first page of the region holds data.
        SparseMemory sparse;
        const Addr base = mem::heapBase + 0x10;
        const std::vector<std::uint8_t> head(64, 0x3f);
        sparse.writeBytes(base, head.data(), head.size());
        const StateHasher hasher(locHasher, FpRoundMode::paperDefault());
        EXPECT_EQ(check::hashTypedRegion(hasher, sparse, base, type,
                                         type->size()),
                  referenceTypedRegion(hasher, sparse, base, type))
            << type->describe() << " half-mapped";
    }
}

TEST(MhmEquivalence, FusedBasicMatchesClusteredHalves)
{
    // One store stream with FP stores, rounding toggles, equal-value
    // stores and start/stop gates: the basic MHM's fused delta and the
    // clustered MHM's separate halves must end at the same TH.
    const Crc64LocationHasher locHasher;
    mhm::BasicMhm basic(locHasher, FpRoundMode::paperDefault());
    mhm::ClusteredMhm clustered(locHasher, FpRoundMode::paperDefault(), 4,
                                mhm::DispatchPolicy::Random, 99);
    std::vector<mhm::Mhm *> units = {&basic, &clustered};
    for (mhm::Mhm *unit : units)
        unit->startHashing();
    SplitMix64 gen(0x3e3);
    for (int i = 0; i < 4000; ++i) {
        if (i % 500 == 250) {
            for (mhm::Mhm *unit : units) {
                if (unit->fpRoundingEnabled())
                    unit->stopFpRounding();
                else
                    unit->startFpRounding();
            }
        }
        const Addr addr = mem::heapBase + 0x100 - 24 + 4 * (gen.next() % 16);
        const std::uint64_t kind = gen.next() % 3;
        const ValueClass cls = kind == 0   ? ValueClass::Integer
                               : kind == 1 ? ValueClass::Float
                                           : ValueClass::Double;
        const unsigned width =
            cls == ValueClass::Integer ? 1 + gen.next() % 8
            : cls == ValueClass::Float ? 4
                                       : 8;
        const double value = static_cast<double>(gen.next() % 100000) / 7.0;
        const std::uint64_t old_bits =
            cls == ValueClass::Integer ? gen.next() : fpBits(value, cls);
        const std::uint64_t new_bits =
            i % 5 == 0 ? old_bits
            : cls == ValueClass::Integer
                ? gen.next()
                : fpBits(value + 1e-9 * (i % 4), cls);
        for (mhm::Mhm *unit : units)
            unit->observeStore(addr, old_bits, new_bits, width, cls);
    }
    EXPECT_EQ(basic.th(), clustered.th());
    EXPECT_EQ(basic.storesHashed(), clustered.storesHashed());
    EXPECT_EQ(basic.bytesHashed(), clustered.bytesHashed());
    EXPECT_NE(basic.th(), ModHash{});
}

TEST(GoldenVectors, PinnedHashesNeverDrift)
{
    // Frozen outputs of the canonical hash definitions. These must never
    // change: every stored determinism report and cross-run comparison
    // depends on the exact values.
    const Crc64LocationHasher crc;
    const Mix64LocationHasher mix;

    const struct
    {
        Addr addr;
        std::uint8_t value;
        std::uint64_t crcHash;
        std::uint64_t mixHash;
    } bytes[] = {
        {0x0, 0x01, 0x42f0e1eba9ea3693ULL, 0xc9ed992411bbb661ULL},
        {0x10000, 0xff, 0x5d3076bb3bd3f60bULL, 0x52cd0ccab30d354cULL},
        {0x1ffffffdULL, 0x80, 0xd12db12d8915f255ULL,
         0x6095950d16dcb922ULL},
        {0x20000000ULL, 0x5a, 0x123e97515f83c370ULL,
         0xdb35751bdac3149dULL},
        {0x600000ffULL, 0x01, 0x5d8106f22c46155fULL,
         0x8a7d4cce1ff69f02ULL},
        {0xfedcba9876543210ULL, 0xc3, 0xf8477baa1c0b4f28ULL,
         0x091d32f8171220baULL},
    };
    for (const auto &expected : bytes) {
        EXPECT_EQ(crc.hashByte(expected.addr, expected.value).raw(),
                  expected.crcHash);
        EXPECT_EQ(mix.hashByte(expected.addr, expected.value).raw(),
                  expected.mixHash);
    }

    std::uint8_t span[40];
    for (int i = 0; i < 40; ++i) {
        span[i] = static_cast<std::uint8_t>(i % 5 == 0 ? 0 : i * 37 + 1);
    }
    // Straddles a 0x100 address boundary.
    EXPECT_EQ(crc.hashSpan(0x200000f0ULL, span, 40).raw(),
              0x647770194d2ccdbfULL);
    EXPECT_EQ(mix.hashSpan(0x200000f0ULL, span, 40).raw(),
              0x17d519a782eee055ULL);
    // Straddles a simulated page boundary.
    const Addr pageStraddle = 0x20000000ULL + mem::pageSize - 20;
    EXPECT_EQ(crc.hashSpan(pageStraddle, span, 40).raw(),
              0x660038ccdfa03ad9ULL);
    EXPECT_EQ(mix.hashSpan(pageStraddle, span, 40).raw(),
              0x61d7228168ff81dbULL);

    const StateHasher rounded(crc, FpRoundMode::paperDefault());
    EXPECT_EQ(rounded
                  .valueHash(0x10040, 0x400921fb54442d11ULL, 8,
                             ValueClass::Double)
                  .raw(),
              0xff0f1a5d76e07899ULL);
    EXPECT_EQ(rounded
                  .valueHash(0x10044, 0x402df854ULL, 4, ValueClass::Float)
                  .raw(),
              0x18ebc41522fd7d92ULL);
    EXPECT_EQ(rounded
                  .valueHash(0x10048, 0x0123456789abcdefULL, 8,
                             ValueClass::Integer)
                  .raw(),
              0xffffdffffffffffcULL);
}

} // namespace
} // namespace icheck::hashing
