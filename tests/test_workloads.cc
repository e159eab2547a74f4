/**
 * @file
 * Workload generator tests: Table II fidelity (MPKI, footprint),
 * locality structure, phase drift, and determinism — including a
 * parameterized sweep over the whole suite.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <cstdio>

#include "workloads/profile.hh"
#include "workloads/trace_stream.hh"
#include "workloads/stream_gen.hh"

using namespace chameleon;

TEST(Profile, SuiteHasFourteenApps)
{
    EXPECT_EQ(tableTwoSuite().size(), 14u);
}

TEST(Profile, FindByName)
{
    const auto suite = tableTwoSuite();
    EXPECT_EQ(findProfile(suite, "mcf").llcMpki, 59.80);
    EXPECT_DEATH((void)findProfile(suite, "nonesuch"), "unknown");
}

TEST(Profile, ScalingDividesFootprintOnly)
{
    const auto full = tableTwoSuite(1);
    const auto scaled = tableTwoSuite(64);
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(scaled[i].footprintBytes,
                  full[i].footprintBytes / 64);
        EXPECT_EQ(scaled[i].llcMpki, full[i].llcMpki);
    }
}

TEST(Profile, TableTwoFootprints)
{
    const auto suite = tableTwoSuite(1);
    // Spot-check against Table II (GB values).
    EXPECT_NEAR(static_cast<double>(
                    findProfile(suite, "bwaves").footprintBytes) /
                    static_cast<double>(1_GiB),
                21.86, 0.01);
    EXPECT_NEAR(static_cast<double>(
                    findProfile(suite, "comd").footprintBytes) /
                    static_cast<double>(1_GiB),
                23.18, 0.01);
}

TEST(Profile, HighFootprintSubsetExists)
{
    const auto suite = tableTwoSuite();
    for (const auto &name : highFootprintNames())
        EXPECT_NO_FATAL_FAILURE((void)findProfile(suite, name));
}

TEST(StreamGen, Determinism)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "lbm");
    SyntheticStream a(p, 16_MiB, 42), b(p, 16_MiB, 42);
    for (int i = 0; i < 5000; ++i) {
        const MemOp x = a.next();
        const MemOp y = b.next();
        ASSERT_EQ(x.vaddr, y.vaddr);
        ASSERT_EQ(x.gap, y.gap);
        ASSERT_EQ(static_cast<int>(x.type), static_cast<int>(y.type));
    }
}

TEST(StreamGen, SeedsDiffer)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "lbm");
    SyntheticStream a(p, 16_MiB, 1), b(p, 16_MiB, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        if (a.next().vaddr == b.next().vaddr)
            ++same;
    EXPECT_LT(same, 100);
}

TEST(StreamGen, AddressesWithinFootprint)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "mcf");
    const std::uint64_t fp = 8_MiB;
    SyntheticStream s(p, fp, 7);
    for (int i = 0; i < 20000; ++i)
        ASSERT_LT(s.next().vaddr, fp);
}

TEST(StreamGen, NoImmediateExactRepeats)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "mcf");
    SyntheticStream s(p, 8_MiB, 7);
    Addr prev = invalidAddr;
    int repeats = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = s.next().vaddr;
        if (a == prev)
            ++repeats;
        prev = a;
    }
    // Post-LLC streams should essentially never re-miss the block
    // they just fetched.
    EXPECT_LT(repeats, 20);
}

TEST(StreamGen, HotSetConcentration)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = findProfile(suite, "cactusADM");
    const std::uint64_t fp = 16_MiB;
    SyntheticStream s(p, fp, 3);
    const std::uint64_t hot_bytes = static_cast<std::uint64_t>(
        p.hotFraction * static_cast<double>(fp));
    std::uint64_t hot_hits = 0;
    const int n = 50000;
    // Phase drift is small for cactusADM; measure over a short window
    // so the hot window stays near the origin.
    for (int i = 0; i < n; ++i)
        if (s.next().vaddr < hot_bytes + (1_MiB))
            ++hot_hits;
    EXPECT_GT(static_cast<double>(hot_hits) / n, 0.5);
}

TEST(StreamGen, PhaseRotationHappens)
{
    const auto suite = tableTwoSuite(64);
    AppProfile p = findProfile(suite, "cloverleaf");
    p.phaseInstructions = 10'000;
    SyntheticStream s(p, 8_MiB, 5);
    while (s.instructionsRetired() < 50'000)
        s.next();
    EXPECT_GE(s.phase(), 4u);
}

TEST(StreamGen, StationaryWithoutPhases)
{
    const auto suite = tableTwoSuite(64);
    AppProfile p = findProfile(suite, "lbm");
    p.phaseInstructions = 0;
    SyntheticStream s(p, 8_MiB, 5);
    while (s.instructionsRetired() < 100'000)
        s.next();
    EXPECT_EQ(s.phase(), 0u);
}

TEST(StreamGen, FractionsOutsideUnitIntervalAreFatal)
{
    // Hot picks and phase steps wrap the footprint with one
    // subtraction, which needs both fractions in [0, 1].
    AppProfile hot = findProfile(tableTwoSuite(64), "mcf");
    hot.hotFraction = 1.5;
    EXPECT_DEATH(SyntheticStream(hot, 8_MiB, 1), "must lie in");
    AppProfile shift = findProfile(tableTwoSuite(64), "mcf");
    shift.phaseShiftFraction = -0.1;
    EXPECT_DEATH(SyntheticStream(shift, 8_MiB, 1), "must lie in");
}

namespace
{

/** FNV-style fold of the first @p n MemOps and the final phase. */
std::uint64_t
streamHash(const AppProfile &p, std::uint64_t footprint,
           std::uint64_t seed, int n = 200'000)
{
    SyntheticStream s(p, footprint, seed);
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto fold = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ull;
    };
    for (int i = 0; i < n; ++i) {
        const MemOp op = s.next();
        fold(op.vaddr);
        fold(static_cast<std::uint64_t>(op.type));
        fold(op.gap);
    }
    fold(s.phase());
    return h;
}

} // namespace

/**
 * The generator's exact output, pinned. The constants were recorded
 * from the original per-draw generator (log1p/pow recomputed on every
 * sample, `%` on every reference), so any rewrite of the hot path
 * must reproduce it bit for bit. The edge profiles cover what the
 * golden-stats app does not: Zipf skew 1.0, runs of mean <= 1 and gap
 * means <= 1 (no RNG draw), a one-block hot set (no Zipf draw), a
 * footprint below the 64-block floor, and phase rotation on a
 * footprint small enough that both the hot window and hot picks wrap.
 */
TEST(Workloads, SyntheticStreamBitIdentical)
{
    const auto suite = tableTwoSuite(256);
    const std::uint64_t suiteHashes[] = {
        0xf1aa2ba97503d28aull, 0x69435a7ae73dea2eull,
        0x9303830ef8b46a96ull, 0x2940b578587d9f6bull,
        0x5bb9c010450f1f1full, 0x7ed3e232380b12e5ull,
        0xaddd25a04e75da15ull, 0xd58399f996db82d3ull,
        0xd56653b73066ebd5ull, 0x9816b412f0e24405ull,
        0x5fa97da12de609b3ull, 0x1c63650976e7b2ffull,
        0x093e6e248e4a8696ull, 0x4512b30b9d6a9de9ull,
    };
    ASSERT_EQ(suite.size(), std::size(suiteHashes));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::uint64_t h =
            streamHash(suite[i], suite[i].copyFootprint(), i + 1);
        EXPECT_EQ(h, suiteHashes[i])
            << suite[i].name << std::hex << " got 0x" << h;
    }

    struct Edge
    {
        const char *name;
        std::uint64_t footprint;
        void (*tune)(AppProfile &);
        std::uint64_t hash;
    };
    const Edge edges[] = {
        {"zipf-skew-1", 4_MiB, [](AppProfile &p) { p.zipfSkew = 1.0; },
         0x39545bf24eecb70eull},
        {"run-mean-1", 4_MiB, [](AppProfile &p) { p.seqRunBlocks = 1.0; },
         0x9534e20ccc15f99bull},
        {"run-mean-half", 4_MiB,
         [](AppProfile &p) { p.seqRunBlocks = 0.5; },
         0x79dc190d28edfc4bull},
        {"mpki-1000", 4_MiB, [](AppProfile &p) { p.llcMpki = 1000.0; },
         0x99f115d5619a12c3ull},
        {"mpki-4000", 4_MiB, [](AppProfile &p) { p.llcMpki = 4000.0; },
         0x32443967a36c0fabull},
        {"hot-one-block", 4_MiB,
         [](AppProfile &p) { p.hotFraction = 0.0; },
         0x8dbdc771ca4466c4ull},
        {"below-block-floor", 1_KiB, [](AppProfile &) {},
         0x26c686bb41fb4b3full},
        {"phase-wrap", 4_KiB,
         [](AppProfile &p) {
             p.hotFraction = 0.9;
             p.phaseInstructions = 500;
             p.phaseShiftFraction = 1.0;
         },
         0xf20466a50995c7c5ull},
        {"phase-whole-footprint", 1_MiB,
         [](AppProfile &p) {
             p.hotFraction = 1.0;
             p.zipfSkew = 1.0;
             p.phaseInstructions = 7'000;
             p.phaseShiftFraction = 0.3;
         },
         0x7bc7b8690a059f65ull},
    };
    for (std::size_t i = 0; i < std::size(edges); ++i) {
        AppProfile p = findProfile(suite, "mcf");
        p.name = edges[i].name;
        edges[i].tune(p);
        const std::uint64_t h =
            streamHash(p, edges[i].footprint, 100 + i);
        EXPECT_EQ(h, edges[i].hash)
            << edges[i].name << std::hex << " got 0x" << h;
    }
}

namespace
{

/** Whether @p a and @p b are the same reference. */
bool
sameOp(const MemOp &a, const MemOp &b)
{
    return a.vaddr == b.vaddr && a.type == b.type && a.gap == b.gap;
}

/**
 * Compare @p batched, read through AddressStream::fill in chunks of
 * the given sizes, with @p single, read one next() at a time.
 */
template <typename Stream>
void
expectFillMatchesNext(Stream &batched, Stream &single,
                      std::initializer_list<std::size_t> chunks)
{
    AddressStream &stream = batched;
    std::vector<MemOp> buf;
    std::size_t index = 0;
    for (std::size_t n : chunks) {
        buf.assign(n, MemOp{});
        stream.fill(buf);
        for (const MemOp &op : buf) {
            ASSERT_TRUE(sameOp(op, single.next())) << "reference " << index;
            ++index;
        }
    }
    EXPECT_TRUE(sameOp(batched.next(), single.next()));
}

} // namespace

TEST(Workloads, FillMatchesNext)
{
    // Batches of odd sizes, one of them empty, so batch boundaries
    // fall everywhere relative to runs, phases and the trace's end.
    const auto suite = tableTwoSuite(256);
    for (const char *name : {"mcf", "stream", "cloverleaf"}) {
        const AppProfile &p = findProfile(suite, name);
        SyntheticStream a(p, p.copyFootprint(), 5);
        SyntheticStream b(p, p.copyFootprint(), 5);
        expectFillMatchesNext(a, b, {1, 7, 0, 256, 1000, 4096, 33});
        EXPECT_EQ(a.instructionsRetired(), b.instructionsRetired())
            << name;
        EXPECT_EQ(a.refsEmitted(), b.refsEmitted()) << name;
        EXPECT_EQ(a.phase(), b.phase()) << name;
    }

    std::vector<MemOp> ops(5);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ops[i].vaddr = 4096 * (i + 1);
        ops[i].type = i % 2 ? AccessType::Write : AccessType::Read;
        ops[i].gap = static_cast<std::uint32_t>(3 * i + 1);
    }
    TraceStream a(ops);
    TraceStream b(ops);
    expectFillMatchesNext(a, b, {3, 7, 0, 2, 5, 11});
    EXPECT_EQ(a.loops(), b.loops());
    EXPECT_EQ(a.loops(), 5u);
}

/** Parameterized fidelity sweep over the full Table II suite. */
class SuiteFidelity : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteFidelity, MpkiMatchesTableII)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = suite[static_cast<std::size_t>(GetParam())];
    SyntheticStream s(p, p.copyFootprint(), 11);
    const std::uint64_t refs = 40'000;
    for (std::uint64_t i = 0; i < refs; ++i)
        s.next();
    const double mpki = static_cast<double>(s.refsEmitted()) /
                        static_cast<double>(s.instructionsRetired()) *
                        1000.0;
    EXPECT_NEAR(mpki, p.llcMpki, p.llcMpki * 0.1)
        << p.name << ": measured MPKI off by more than 10%";
}

TEST_P(SuiteFidelity, WriteFractionMatches)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = suite[static_cast<std::size_t>(GetParam())];
    SyntheticStream s(p, p.copyFootprint(), 13);
    std::uint64_t writes = 0;
    const std::uint64_t refs = 40'000;
    for (std::uint64_t i = 0; i < refs; ++i)
        if (s.next().type == AccessType::Write)
            ++writes;
    EXPECT_NEAR(static_cast<double>(writes) / refs, p.writeFraction,
                0.02)
        << p.name;
}

TEST_P(SuiteFidelity, SequentialRunsPresent)
{
    const auto suite = tableTwoSuite(64);
    const AppProfile &p = suite[static_cast<std::size_t>(GetParam())];
    SyntheticStream s(p, p.copyFootprint(), 17);
    Addr prev = invalidAddr;
    std::uint64_t seq = 0;
    const std::uint64_t refs = 20'000;
    for (std::uint64_t i = 0; i < refs; ++i) {
        const Addr a = s.next().vaddr;
        if (prev != invalidAddr && a == prev + 64)
            ++seq;
        prev = a;
    }
    const double measured_run =
        1.0 / (1.0 - static_cast<double>(seq) / refs);
    EXPECT_NEAR(measured_run, p.seqRunBlocks,
                p.seqRunBlocks * 0.35)
        << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllApps, SuiteFidelity,
                         ::testing::Range(0, 14));

TEST(TraceStream, ParsesAndReplays)
{
    const char *path = "/tmp/chameleon_test_trace.txt";
    std::FILE *f = std::fopen(path, "w");
    std::fputs("# demo trace\n"
               "R 0x1000 10\n"
               "W 4096 1\n"
               "r 0x20040\n",
               f);
    std::fclose(f);
    TraceStream t(path);
    EXPECT_EQ(t.size(), 3u);
    MemOp a = t.next();
    EXPECT_EQ(a.vaddr, 0x1000u);
    EXPECT_EQ(static_cast<int>(a.type),
              static_cast<int>(AccessType::Read));
    EXPECT_EQ(a.gap, 10u);
    MemOp b = t.next();
    EXPECT_EQ(b.vaddr, 4096u);
    EXPECT_EQ(static_cast<int>(b.type),
              static_cast<int>(AccessType::Write));
    MemOp c = t.next();
    EXPECT_EQ(c.vaddr, 0x20040u / 64 * 64);
    // Wraps around.
    EXPECT_EQ(t.next().vaddr, 0x1000u);
    EXPECT_EQ(t.loops(), 1u);
    // Footprint covers the highest page touched.
    EXPECT_GE(t.footprint(), 0x20040u);
    EXPECT_EQ(t.footprint() % 4096, 0u);
}

TEST(TraceStream, RejectsGarbage)
{
    const char *path = "/tmp/chameleon_bad_trace.txt";
    std::FILE *f = std::fopen(path, "w");
    std::fputs("X 0x1000\n", f);
    std::fclose(f);
    EXPECT_DEATH(TraceStream{path}, "expected R/W");
    EXPECT_DEATH(TraceStream{"/nonexistent/file"}, "cannot open");
}

TEST(TraceStream, InMemoryConstruction)
{
    std::vector<MemOp> ops(4);
    ops[0].vaddr = 0;
    ops[1].vaddr = 64;
    ops[2].vaddr = 128;
    ops[3].vaddr = 8_KiB;
    TraceStream t(std::move(ops));
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.footprint(), 12_KiB);
}
