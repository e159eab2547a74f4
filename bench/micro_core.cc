/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot structures: SRRT
 * lookups through the Chameleon access path, ISA transition handling,
 * raw DRAM-device access computation, the synthetic stream generator,
 * OS translation, and one whole System::run cell per reference.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "core/chameleon_opt.hh"
#include "dram/dram_device.hh"
#include "obs/trace_sink.hh"
#include "os/mini_os.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "workloads/profile.hh"
#include "workloads/stream_gen.hh"

using namespace chameleon;

namespace
{

struct Rig
{
    std::unique_ptr<DramDevice> stacked;
    std::unique_ptr<DramDevice> offchip;
    std::unique_ptr<ChameleonOptMemory> org;

    Rig()
    {
        DramTimings st = stackedDramConfig();
        st.capacity = 16_MiB;
        DramTimings ot = offchipDramConfig();
        ot.capacity = 80_MiB;
        stacked = std::make_unique<DramDevice>(st);
        offchip = std::make_unique<DramDevice>(ot);
        org = std::make_unique<ChameleonOptMemory>(stacked.get(),
                                                   offchip.get());
    }
};

} // namespace

static void
BM_DramAccess(benchmark::State &state)
{
    DramTimings t = offchipDramConfig();
    t.capacity = 64_MiB;
    DramDevice dev(t);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dev.access(rng.below(64_MiB / 64) * 64, AccessType::Read,
                       now += 4));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

static void
BM_ChameleonAccess(benchmark::State &state)
{
    Rig rig;
    Rng rng(2);
    Cycle now = 0;
    const std::uint64_t blocks = rig.org->osVisibleBytes() / 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rig.org->access(rng.below(blocks) * 64, AccessType::Read,
                            now += 4));
    }
    state.SetItemsProcessed(state.iterations());
    // The CSV reporter requires identical counter sets across every
    // benchmark in a report, so the untraced twin carries the counter
    // too (no sink attached, hence zero).
    state.counters["trace_events"] = 0;
}
BENCHMARK(BM_ChameleonAccess);

/**
 * BM_ChameleonAccess with a live TraceSink attached, running the
 * identical access mix. Uniform reads to OS-free segments reach no
 * emit site, so the recording load is synthesized: one event plus one
 * counter sample every 256 accesses, well above the per-access event
 * rate full figure sweeps show. The delta against the untraced twin
 * therefore upper-bounds what the disabled instrumentation (a
 * null-pointer branch per site) can cost, which is what
 * scripts/bench_smoke.sh's 2% overhead guard enforces.
 */
static void
BM_ChameleonAccessTraced(benchmark::State &state)
{
    Rig rig;
    TraceSink sink;
    rig.org->setTraceSink(&sink);
    Rng rng(2);
    Cycle now = 0;
    std::uint64_t n = 0;
    const std::uint64_t blocks = rig.org->osVisibleBytes() / 64;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            rig.org->access(rng.below(blocks) * 64, AccessType::Read,
                            now += 4));
        if ((++n & 255u) == 0) {
            sink.record(now, TraceKind::HotSwap, 0, 1, 2);
            sink.recordCounter(now, TraceKind::CounterHitRate, 0.5);
        }
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["trace_events"] = static_cast<double>(
        sink.stats().recorded);
}
BENCHMARK(BM_ChameleonAccessTraced);

/** Raw sink recording throughput (events/s on one thread). */
static void
BM_TraceSinkRecord(benchmark::State &state)
{
    TraceSink sink;
    Cycle now = 0;
    for (auto _ : state)
        sink.record(now += 4, TraceKind::HotSwap, 1, 2, 3);
    benchmark::DoNotOptimize(sink.stats().recorded);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSinkRecord);

static void
BM_IsaAllocFreeCycle(benchmark::State &state)
{
    Rig rig;
    const std::uint64_t segs = rig.org->osVisibleBytes() / 2048;
    std::uint64_t s = 0;
    Cycle now = 0;
    for (auto _ : state) {
        rig.org->isaAlloc(s * 2048, now += 2);
        rig.org->isaFree(s * 2048, now += 2);
        s = (s + 7919) % segs;
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_IsaAllocFreeCycle);

namespace
{

/** Block-store key mix matching the functional layer: 64B-aligned
 *  device locations, some offset into the off-chip range. */
std::vector<Addr>
blockStoreKeys(std::size_t n)
{
    Rng rng(7);
    std::vector<Addr> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Addr a = rng.below(n * 4) * 64;
        if (i % 3 == 0)
            a += 1ull << 48; // off-chip location encoding
        keys.push_back(a);
    }
    return keys;
}

} // namespace

/** Baseline: the sparse block store as std::unordered_map (what the
 *  functional layer used before FlatMap). */
static void
BM_BlockStoreUnorderedMap(benchmark::State &state)
{
    const auto keys = blockStoreKeys(1 << 18);
    std::unordered_map<Addr, std::uint64_t> map;
    map.reserve(keys.size());
    for (Addr k : keys)
        map[k] = k;
    Rng rng(11);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        auto it = map.find(keys[rng.below(keys.size())]);
        if (it != map.end())
            sum += it->second;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockStoreUnorderedMap);

/** The replacement: FlatMap lookups on the same key mix. */
static void
BM_BlockStoreFlatMap(benchmark::State &state)
{
    const auto keys = blockStoreKeys(1 << 18);
    FlatMap<Addr, std::uint64_t> map;
    map.reserve(keys.size());
    for (Addr k : keys)
        map[k] = k;
    Rng rng(11);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        auto it = map.find(keys[rng.below(keys.size())]);
        if (it != map.end())
            sum += it->second;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockStoreFlatMap);

/**
 * Fig 18-style miniature sweep (3 designs x 3 apps) through the
 * SweepRunner; Arg = --jobs. Comparing /1 against /N is the
 * wall-clock speedup the parallel engine buys on this machine.
 */
static void
BM_Fig18StyleSweep(benchmark::State &state)
{
    setQuiet(true); // sweep chatter would swamp the bench output
    BenchOptions opts;
    opts.scale = 512;
    opts.instrPerCore = 20'000;
    opts.minRefsPerCore = 2'000;
    opts.jobs = static_cast<unsigned>(state.range(0));

    const auto suite = tableTwoSuite(opts.scale);
    const Design designs[] = {Design::FlatDdr, Design::Pom,
                              Design::ChameleonOpt};
    const char *names[] = {"lbm", "mcf", "stream"};

    for (auto _ : state) {
        SweepRunner runner(opts);
        for (Design d : designs) {
            for (const char *n : names) {
                const AppProfile &app = findProfile(suite, n);
                SystemConfig cfg = makeSystemConfig(d, opts);
                runner.submit(designLabel(d), n, [cfg, app, opts] {
                    return runRateWorkload(cfg, app, opts);
                });
            }
        }
        const auto res = runner.collectResults();
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_Fig18StyleSweep)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(0) // 0 = auto: one worker per hardware thread
    ->Iterations(2);

static void
BM_StreamGen(benchmark::State &state)
{
    const auto suite = tableTwoSuite(64);
    SyntheticStream s(findProfile(suite, "lbm"), 16_MiB, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(s.next().vaddr);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamGen);

/**
 * BM_StreamGen through AddressStream::fill, the way System::runPhase
 * reads a core's stream; the argument is the batch size. Items are
 * references.
 */
static void
BM_StreamFill(benchmark::State &state)
{
    const auto suite = tableTwoSuite(64);
    SyntheticStream s(findProfile(suite, "lbm"), 16_MiB, 3);
    AddressStream &stream = s;
    std::vector<MemOp> batch(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        stream.fill(batch);
        benchmark::DoNotOptimize(batch.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamFill)->Arg(256)->Arg(4096);

/**
 * One geometric draw at lbm's gap mean: argument 0 is GeometricDist
 * (fast log with the exact fallback), 1 the literal
 * floor(log1p(-u) / logQ) + 1 it reproduces bit for bit.
 */
static void
BM_GeometricDist(benchmark::State &state)
{
    const double mean =
        1000.0 / findProfile(tableTwoSuite(), "lbm").llcMpki;
    const GeometricDist dist(mean);
    const double logQ = std::log1p(-(1.0 / mean));
    const bool literal = state.range(0) == 1;
    Rng rng(9);
    for (auto _ : state) {
        const double u = rng.uniform();
        benchmark::DoNotOptimize(
            literal ? static_cast<std::uint64_t>(
                          std::floor(std::log1p(-u) / logQ)) + 1
                    : dist.fromUniform(u));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeometricDist)->ArgName("literal")->Arg(0)->Arg(1);

/** MiniOs::translate on a fully mapped process: a page-table hit. */
static void
BM_Translate(benchmark::State &state)
{
    OsConfig cfg;
    cfg.frames.stackedBytes = 16_MiB;
    cfg.frames.offchipBytes = 80_MiB;
    MiniOs os(cfg);
    const std::uint64_t footprint = 8_MiB;
    const ProcId pid = os.createProcess("bench", footprint);
    os.preAllocate(pid);
    Rng rng(5);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            os.translate(pid, rng.below(footprint / 64) * 64,
                         AccessType::Read, now += 4)
                .phys);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Translate);

/**
 * System::run on one scale-256 cell (chameleon-opt x mcf, the sim
 * grid's --instr 200000 --refs 10000) divided by its memory
 * references: the whole kernel step, stream to DRAM. Building and
 * destroying the System are not timed. Warmup equals the measured
 * phase, so a run makes twice the measured references.
 */
static void
BM_SystemRunPerRef(benchmark::State &state)
{
    BenchOptions opts;
    opts.scale = 256;
    opts.instrPerCore = 200'000;
    opts.minRefsPerCore = 10'000;
    const auto suite = tableTwoSuite(opts.scale);
    const AppProfile &app = findProfile(suite, "mcf");
    const SystemConfig cfg = makeSystemConfig(Design::ChameleonOpt, opts);
    const std::uint64_t instr = effectiveInstructions(app, opts);
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(instr) * opts.warmupFrac);
    std::uint64_t refs = 0;
    std::optional<System> sys;
    for (auto _ : state) {
        state.PauseTiming();
        sys.emplace(cfg);
        sys->loadRateWorkload(app);
        state.ResumeTiming();
        refs += 2 * sys->run(instr, warmup).memRefs;
        state.PauseTiming();
        sys.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(refs));
}
BENCHMARK(BM_SystemRunPerRef)->Unit(benchmark::kMillisecond);

/**
 * One cell's boot: System construction plus loadRateWorkload (12 mcf
 * processes pre-mapped, one ISA-Alloc per segment) at scale 256, the
 * cost every sim cell and every cold chameleond job pays before its
 * first reference. Destruction is not timed.
 */
static void
BM_SystemSetup(benchmark::State &state, Design design)
{
    BenchOptions opts;
    opts.scale = 256;
    const auto suite = tableTwoSuite(opts.scale);
    const AppProfile &app = findProfile(suite, "mcf");
    const SystemConfig cfg = makeSystemConfig(design, opts);
    std::optional<System> sys;
    for (auto _ : state) {
        sys.emplace(cfg);
        sys->loadRateWorkload(app);
        state.PauseTiming();
        sys.reset();
        state.ResumeTiming();
    }
}
BENCHMARK_CAPTURE(BM_SystemSetup, flat_ddr, Design::FlatDdr)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSetup, numa_flat, Design::NumaFlat)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSetup, alloy_cache, Design::Alloy)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSetup, pom, Design::Pom)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSetup, chameleon, Design::Chameleon)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSetup, chameleon_opt, Design::ChameleonOpt)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSetup, polymorphic, Design::Polymorphic)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
