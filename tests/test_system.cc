/**
 * @file
 * System-level integration tests: every design runs a rate-mode
 * workload end-to-end, determinism holds, warmup is excluded from
 * measurement, over-capacity footprints page-fault on cache designs
 * but not on PoM designs, and AutoNUMA improves on first-touch.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/chameleon.hh"
#include "memorg/alloy_cache.hh"
#include "memorg/pom.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

#include "fnv_digest.hh"

using namespace chameleon;

namespace
{

BenchOptions
tinyOpts()
{
    BenchOptions o;
    o.scale = 512; // 8MiB + 40MiB machine: fast
    o.instrPerCore = 30'000;
    o.minRefsPerCore = 3'000;
    o.warmupFrac = 0.5;
    return o;
}

AppProfile
testApp(double footprint_frac_of_24 = 0.8)
{
    AppProfile p;
    p.name = "testapp";
    p.llcMpki = 25.0;
    p.footprintBytes = static_cast<std::uint64_t>(
        footprint_frac_of_24 * 24.0 * static_cast<double>(1_GiB)) /
        512;
    p.hotFraction = 0.05;
    p.hotProbability = 0.9;
    p.seqRunBlocks = 16.0;
    p.writeFraction = 0.3;
    return p;
}

/**
 * Digest of everything System construction plus loadRateWorkload
 * leave behind: every PTE, the clock order, the OS and allocator
 * counters, and the organization's counters, Alloy tags and remap
 * state.
 */
std::string
bootStateDigest(System &sys)
{
    test::Fnv d;
    MiniOs &os = sys.os();
    for (ProcId pid = 0; pid < sys.config().numCores; ++pid) {
        const std::uint64_t pages = os.pageCount(pid);
        d.add(pages);
        for (std::uint64_t vpn = 0; vpn < pages; ++vpn) {
            const MiniOs::PteView v = os.pteView(pid, vpn);
            d.add(pid);
            d.add(vpn);
            d.add(v.pfn);
            d.add(std::uint64_t{v.resident});
            d.add(std::uint64_t{v.onDisk});
        }
    }
    os.forEachResident([&](ProcId pid, std::uint64_t vpn) {
        d.add(pid);
        d.add(vpn);
    });

    const OsStats &s = os.stats();
    for (std::uint64_t v :
         {s.minorFaults, s.majorFaults, s.swapOuts, s.swapIns,
          s.isaAllocs, s.isaFrees, s.migrations, s.migrationFailures,
          s.thpAllocs, s.thpFallbacks, s.isaRetires})
        d.add(v);
    const FrameAllocator &fa = os.allocator();
    const FrameAllocatorStats &f = fa.stats();
    for (std::uint64_t v :
         {f.pageAllocs, f.pageFrees, f.hugeAllocs, f.hugeFrees,
          f.compactions, f.failedAllocs, f.retiredFrames,
          fa.freeBytesInZone(MemNode::Stacked),
          fa.freeBytesInZone(MemNode::OffChip)})
        d.add(v);

    const MemOrganization &org = sys.organization();
    const MemOrgStats &m = org.stats();
    for (std::uint64_t v :
         {m.reads, m.writes, m.stackedServed, m.offchipServed, m.swaps,
          m.fills, m.writebacks, m.isaMoves, m.latencySum})
        d.add(v);
    if (const auto *alloy = dynamic_cast<const AlloyCache *>(&org)) {
        for (std::uint64_t i = 0; i < alloy->numLines(); ++i) {
            const AlloyCache::LineView v = alloy->lineView(i);
            d.add(v.tag);
            d.add(std::uint64_t{v.valid});
            d.add(std::uint64_t{v.dirty});
        }
    }
    if (const auto *pom = dynamic_cast<const PomMemory *>(&org)) {
        const std::uint32_t slots = pom->space().slotsPerGroup();
        for (std::uint64_t g = 0; g < pom->space().numGroups(); ++g) {
            const SrtEntry &e = pom->entry(g);
            for (std::uint32_t l = 0; l < slots; ++l)
                d.add(std::uint64_t{e.perm[l]});
            d.add(std::uint64_t{e.candidate});
            d.add(std::uint64_t{e.counter});
        }
    }
    if (const auto *cham = dynamic_cast<const ChameleonMemory *>(&org)) {
        const ChameleonStats &c = cham->chamStats();
        for (std::uint64_t v :
             {c.allocTransitions, c.freeTransitions, c.isaAllocsSeen,
              c.isaFreesSeen, c.cacheHits, c.cacheMisses,
              c.segmentClears})
            d.add(v);
        for (std::uint64_t g = 0; g < cham->space().numGroups(); ++g) {
            d.add(static_cast<std::uint64_t>(cham->groupMode(g)));
            d.add(std::uint64_t{cham->groupAbv(g)});
            d.add(std::uint64_t{cham->groupCachedSlot(g)});
            d.add(std::uint64_t{cham->groupDirty(g)});
        }
        d.addF64(cham->cacheModeFraction());
    }
    return d.hex();
}

} // namespace

class AllDesigns : public ::testing::TestWithParam<Design>
{
};

TEST_P(AllDesigns, RunsAndProducesSaneMetrics)
{
    const BenchOptions opts = tinyOpts();
    SystemConfig cfg = makeSystemConfig(GetParam(), opts);
    if (GetParam() == Design::NumaFlat)
        cfg.runAutoNuma = false;
    System sys(cfg);
    sys.loadRateWorkload(testApp());
    const RunResult r = sys.run(opts.instrPerCore,
                                opts.instrPerCore / 2);
    EXPECT_GT(r.ipcGeoMean, 0.0);
    EXPECT_LE(r.ipcGeoMean, 4.0);
    EXPECT_GE(r.stackedHitRate, 0.0);
    EXPECT_LE(r.stackedHitRate, 1.0);
    EXPECT_EQ(r.ipcPerCore.size(), 12u);
    EXPECT_GT(r.memRefs, 0u);
    if (GetParam() == Design::FlatDdr) {
        EXPECT_EQ(r.stackedHitRate, 0.0);
    }
}

TEST_P(AllDesigns, DeterministicAcrossRuns)
{
    const BenchOptions opts = tinyOpts();
    auto run_once = [&]() {
        System sys(makeSystemConfig(GetParam(), opts));
        sys.loadRateWorkload(testApp());
        return sys.run(opts.instrPerCore, opts.instrPerCore / 2);
    };
    const RunResult a = run_once();
    const RunResult b = run_once();
    EXPECT_EQ(a.ipcGeoMean, b.ipcGeoMean);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.memRefs, b.memRefs);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDesign, AllDesigns,
    ::testing::Values(Design::FlatDdr, Design::NumaFlat, Design::Alloy,
                      Design::Pom, Design::Chameleon,
                      Design::ChameleonOpt, Design::Polymorphic),
    [](const ::testing::TestParamInfo<Design> &info) {
        std::string s = designLabel(info.param);
        for (auto &c : s)
            if (c == '-')
                c = '_';
        return s;
    });

TEST(System, CapacityLossCausesFaultsOnCacheDesigns)
{
    const BenchOptions opts = tinyOpts();
    // Footprint 22/24: fits PoM's 24, overflows Alloy's 20.
    const AppProfile app = testApp(22.0 / 24.0);

    System alloy(makeSystemConfig(Design::Alloy, opts));
    alloy.loadRateWorkload(app);
    const RunResult ra = alloy.run(opts.instrPerCore,
                                   opts.instrPerCore / 2);

    System pom(makeSystemConfig(Design::Pom, opts));
    pom.loadRateWorkload(app);
    const RunResult rp = pom.run(opts.instrPerCore,
                                 opts.instrPerCore / 2);

    EXPECT_GT(ra.majorFaults, 0u)
        << "cache design must page-fault on a 22GB-equivalent load";
    EXPECT_EQ(rp.majorFaults, 0u)
        << "PoM exposes the full 24GB equivalent";
    EXPECT_GT(rp.ipcGeoMean, ra.ipcGeoMean * 1.5);
}

TEST(System, ChameleonModeFractionsOrdered)
{
    const BenchOptions opts = tinyOpts();
    const AppProfile app = testApp(0.85);
    System basic(makeSystemConfig(Design::Chameleon, opts));
    basic.loadRateWorkload(app);
    const RunResult rb = basic.run(opts.instrPerCore, 0);
    System optsys(makeSystemConfig(Design::ChameleonOpt, opts));
    optsys.loadRateWorkload(app);
    const RunResult ro = optsys.run(opts.instrPerCore, 0);
    ASSERT_GE(rb.cacheModeFraction, 0.0);
    ASSERT_GE(ro.cacheModeFraction, 0.0);
    // Basic can only exploit free stacked segments (~15%); Opt any
    // free segment.
    EXPECT_GT(ro.cacheModeFraction, rb.cacheModeFraction);
    EXPECT_NEAR(rb.cacheModeFraction, 0.15, 0.08);
}

TEST(System, WarmupExcludedFromMeasurement)
{
    const BenchOptions opts = tinyOpts();
    System sys(makeSystemConfig(Design::ChameleonOpt, opts));
    sys.loadRateWorkload(testApp());
    const RunResult r = sys.run(10'000, 20'000);
    // Measured instruction count covers only the measured phase.
    EXPECT_NEAR(static_cast<double>(r.instructions), 12.0 * 10'000,
                12.0 * 10'000 * 0.02);
}

TEST(System, AutoNumaBeatsFirstTouch)
{
    BenchOptions opts = tinyOpts();
    opts.instrPerCore = 60'000;
    const AppProfile app = testApp(0.6);

    SystemConfig ft = makeSystemConfig(Design::NumaFlat, opts);
    System sys_ft(ft);
    sys_ft.loadRateWorkload(app);
    const RunResult r_ft = sys_ft.run(opts.instrPerCore, 0);

    SystemConfig an = makeSystemConfig(Design::NumaFlat, opts);
    an.runAutoNuma = true;
    an.autonuma.epochCycles = 50'000;
    an.autonuma.threshold = 0.9;
    System sys_an(an);
    sys_an.loadRateWorkload(app);
    const RunResult r_an = sys_an.run(opts.instrPerCore, 0);

    // First-touch fills the small stacked zone with whatever pages
    // allocate first; AutoNUMA migrates the hot ones in, so its hit
    // rate must be clearly higher (Fig 2a vs 2b).
    EXPECT_GT(r_an.stackedHitRate, r_ft.stackedHitRate);
    EXPECT_GT(sys_an.autonumaDaemon()->totalMigrations(), 0u);
}

TEST(System, AutoNumaRequiresNumaFlat)
{
    BenchOptions opts = tinyOpts();
    SystemConfig cfg = makeSystemConfig(Design::Pom, opts);
    cfg.runAutoNuma = true;
    EXPECT_DEATH(System{cfg}, "numa-flat");
}

TEST(System, RatioSensitivityModeFractions)
{
    // Fig 21: the cache-mode share of Chameleon-Opt grows with the
    // stacked:off-chip ratio (1:3 -> 1:7).
    BenchOptions o13 = tinyOpts();
    o13.stackedFullGiB = 6;
    o13.offchipFullGiB = 18;
    BenchOptions o17 = tinyOpts();
    o17.stackedFullGiB = 3;
    o17.offchipFullGiB = 21;

    auto frac = [](const BenchOptions &o) {
        System sys(makeSystemConfig(Design::ChameleonOpt, o));
        AppProfile app = testApp(0.85);
        sys.loadRateWorkload(app);
        const RunResult r = sys.run(o.instrPerCore, 0);
        return r.cacheModeFraction;
    };
    EXPECT_GT(frac(o17), frac(o13));
}

TEST(System, NoWorkloadIsFatal)
{
    const BenchOptions opts = tinyOpts();
    System sys(makeSystemConfig(Design::Pom, opts));
    EXPECT_DEATH(sys.run(1000), "no workload");
}

TEST(System, TraceWorkloadRuns)
{
    const char *path = "/tmp/chameleon_sys_trace.txt";
    std::FILE *f = std::fopen(path, "w");
    for (int i = 0; i < 256; ++i)
        std::fprintf(f, "%c 0x%x 20\n", i % 3 == 0 ? 'W' : 'R',
                     (i * 4096) % (1 << 20));
    std::fclose(f);

    const BenchOptions opts = tinyOpts();
    System sys(makeSystemConfig(Design::ChameleonOpt, opts));
    sys.loadTraceWorkload({path});
    const RunResult r = sys.run(5'000);
    EXPECT_GT(r.ipcGeoMean, 0.0);
    EXPECT_GT(r.memRefs, 0u);
}

TEST(System, SrtCacheCostsLatencyOnMisses)
{
    const BenchOptions opts = tinyOpts();
    SystemConfig ideal = makeSystemConfig(Design::Pom, opts);
    SystemConfig cached = makeSystemConfig(Design::Pom, opts);
    cached.pom.srtCacheEntries = 64; // tiny: frequent misses

    System a(ideal), b(cached);
    const AppProfile app = testApp(0.7);
    a.loadRateWorkload(app);
    b.loadRateWorkload(app);
    const RunResult ra = a.run(20'000);
    const RunResult rb = b.run(20'000);
    // Metadata fetches from stacked DRAM add latency.
    EXPECT_GT(rb.amal, ra.amal);
    auto *pom = dynamic_cast<PomMemory *>(&b.organization());
    ASSERT_NE(pom, nullptr);
    EXPECT_GT(pom->srtCacheMisses(), 0u);
    EXPECT_GT(pom->srtCacheHits(), 0u);
}

TEST(System, BootStateBitIdentical)
{
    // Boot state is output: the frame hand-out order, the per-page
    // RNG draws and every ISA-Alloc side effect feed every RunResult.
    // The expected digests were recorded from the original boot code;
    // never regenerate them from changed code.
    struct Case
    {
        Design design;
        const char *app;
        const char *digest;
    };
    const Case cases[] = {
        {Design::FlatDdr, "mcf", "b256772b31172a62"},
        {Design::FlatDdr, "cloverleaf", "a3a9f40e83e09551"},
        {Design::NumaFlat, "mcf", "5aa4ef3ab71b75c2"},
        {Design::NumaFlat, "cloverleaf", "2d257615749af406"},
        {Design::Alloy, "mcf", "39f7d451efb378a2"},
        {Design::Alloy, "cloverleaf", "67c2c79aaeddf891"},
        {Design::Pom, "mcf", "f59e0beed021dc1a"},
        {Design::Pom, "cloverleaf", "07a07e2a1bdd3187"},
        {Design::Chameleon, "mcf", "aff4104b9e93532f"},
        {Design::Chameleon, "cloverleaf", "6a30cbb490170cc1"},
        {Design::ChameleonOpt, "mcf", "121c697f3d0c6d00"},
        {Design::ChameleonOpt, "cloverleaf", "0042f66f24787bf7"},
        {Design::Polymorphic, "mcf", "aff4104b9e93532f"},
        {Design::Polymorphic, "cloverleaf", "6a30cbb490170cc1"},
    };
    BenchOptions opts;
    opts.scale = 256;
    opts.seed = 1;
    const std::vector<AppProfile> suite = tableTwoSuite(opts.scale);
    for (const Case &c : cases) {
        System sys(makeSystemConfig(c.design, opts));
        sys.loadRateWorkload(findProfile(suite, c.app));
        EXPECT_EQ(bootStateDigest(sys), c.digest)
            << designLabel(c.design) << "/" << c.app;
    }
}
