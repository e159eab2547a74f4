#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/stats.hh"
#include "core/chameleon.hh"
#include "core/chameleon_opt.hh"
#include "core/polymorphic.hh"
#include "memorg/alloy_cache.hh"
#include "memorg/flat_memory.hh"
#include "memorg/pom.hh"

namespace chameleon
{

namespace
{

/** The calling thread's stop flag (null = cannot be stopped). */
thread_local const std::atomic<bool> *threadStopFlag = nullptr;

} // namespace

StopScope::StopScope(const std::atomic<bool> *flag)
    : saved(threadStopFlag)
{
    threadStopFlag = flag;
}

StopScope::~StopScope()
{
    threadStopFlag = saved;
}

void
throwIfStopRequested()
{
    if (threadStopFlag && threadStopFlag->load())
        throw RunCancelled();
}

const char *
designLabel(Design d)
{
    switch (d) {
      case Design::FlatDdr:
        return "flat-ddr";
      case Design::NumaFlat:
        return "numa-flat";
      case Design::Alloy:
        return "alloy-cache";
      case Design::Pom:
        return "pom";
      case Design::Chameleon:
        return "chameleon";
      case Design::ChameleonOpt:
        return "chameleon-opt";
      case Design::Polymorphic:
        return "polymorphic";
    }
    return "?";
}

std::optional<Design>
designFromLabel(std::string_view label)
{
    static constexpr Design all[] = {
        Design::FlatDdr,   Design::NumaFlat,     Design::Alloy,
        Design::Pom,       Design::Chameleon,    Design::ChameleonOpt,
        Design::Polymorphic,
    };
    for (Design d : all)
        if (label == designLabel(d))
            return d;
    return std::nullopt;
}

System::System(const SystemConfig &config) : cfg(config)
{
    if (cfg.design == Design::FlatDdr)
        cfg.hasStacked = false;

    if (cfg.hasStacked) {
        DramTimings st = stackedDramConfig(cfg.scale);
        st.capacity = cfg.stackedBytes();
        stackedDev = std::make_unique<DramDevice>(st);
    }
    offchipDev = std::make_unique<DramDevice>(
        offchipDramConfig(cfg.scale, cfg.offchipFullBytes));

    buildOrganization();
    org->enableFunctional(cfg.functionalData || cfg.oracle);
    if (cfg.oracle) {
        oracle = std::make_unique<ShadowOracle>(org.get());
        isaShim =
            std::make_unique<OracleIsaShim>(org.get(), oracle.get());
    }

    if (cfg.faults.enabled) {
        injector = std::make_unique<FaultInjector>(
            cfg.faults, stackedDev ? stackedDev->capacity() : 0,
            cfg.pom.segmentBytes);
        if (stackedDev)
            stackedDev->setFaultInjector(injector.get(),
                                         MemNode::Stacked);
        offchipDev->setFaultInjector(injector.get(), MemNode::OffChip);
        org->setFaultInjector(injector.get());
    }

    // The OS address space must equal what the organization exposes:
    // cache designs hide the stacked capacity, PoM designs expose it.
    const bool stacked_visible =
        org->osVisibleBytes() > offchipDev->capacity();
    stackedOsVisible = stacked_visible;
    FrameAllocatorConfig fac;
    fac.stackedBytes = stacked_visible ? cfg.stackedBytes() : 0;
    fac.offchipBytes = offchipDev->capacity();
    fac.seed = cfg.seed;
    if (cfg.osPolicy) {
        fac.policy = *cfg.osPolicy;
    } else {
        // First-touch for the OS-managed NUMA baselines; a spread
        // free list for hardware-remapped designs.
        fac.policy = (cfg.design == Design::NumaFlat)
                         ? AllocPolicy::FastFirst
                         : AllocPolicy::Uniform;
    }
    if (cfg.design == Design::NumaFlat) {
        // Linux keeps free watermarks on each node; this is the
        // headroom AutoNUMA migrations consume in Fig 2c's ramp.
        fac.stackedWatermarkBytes = cfg.stackedBytes() / 8;
    }

    OsConfig osc;
    osc.frames = fac;
    osc.majorFaultLatency = cfg.majorFaultLatency;
    miniOs = std::make_unique<MiniOs>(
        osc, isaShim ? static_cast<IsaListener *>(isaShim.get())
                     : org.get());
    if (oracle)
        oracle->setOsView(&miniOs->allocator());

    if (cfg.runAutoNuma) {
        if (cfg.design != Design::NumaFlat)
            fatal("System: AutoNUMA requires the numa-flat design");
        autoNuma = std::make_unique<AutoNuma>(*miniOs, cfg.autonuma);
    }

    attachObservability();
}

System::~System() = default;

void
System::attachObservability()
{
    registry = std::make_unique<MetricsRegistry>();

    if (cfg.obs.traceEnabled()) {
        TraceSinkConfig tsc;
        tsc.ringEvents = cfg.obs.traceRingEvents;
        sink = std::make_unique<TraceSink>(tsc);
        org->setTraceSink(sink.get());
        miniOs->setTraceSink(sink.get()); // forwards to the allocator
        if (autoNuma)
            autoNuma->setTraceSink(sink.get());
        if (stackedDev)
            stackedDev->setTraceSink(sink.get());
        offchipDev->setTraceSink(sink.get());
        if (injector)
            injector->setTraceSink(sink.get());
        if (oracle)
            oracle->invariants().setTraceSink(sink.get());
    }

    registerMetrics();

    // With neither a sink nor a series file the periodic sampling in
    // runPhase() reduces to one always-false comparison per access.
    if (!sink && cfg.obs.metricsPath.empty())
        nextSnapshotCycle = ~static_cast<Cycle>(0);
}

void
System::registerMetrics()
{
    MetricsRegistry &r = *registry;

    // Memory organization: demand traffic and reconfiguration work.
    const MemOrgStats &ms = org->stats();
    r.registerCounter("reads", &ms.reads);
    r.registerCounter("writes", &ms.writes);
    r.registerCounter("stacked_served", &ms.stackedServed);
    r.registerCounter("offchip_served", &ms.offchipServed);
    r.registerCounter("swaps", &ms.swaps);
    r.registerCounter("fills", &ms.fills);
    r.registerCounter("writebacks", &ms.writebacks);
    r.registerCounter("isa_moves", &ms.isaMoves);
    r.registerMetric("hit_rate", MetricKind::Gauge,
                     [this] { return org->stats().stackedHitRate(); });
    r.registerMetric("amal", MetricKind::Gauge,
                     [this] { return org->stats().avgMemLatency(); });
    if (auto *cham = dynamic_cast<ChameleonMemory *>(org.get()))
        r.registerMetric("cache_mode_fraction", MetricKind::Gauge,
                         [cham] { return cham->cacheModeFraction(); });
    r.registerMetric("retired_segments", MetricKind::Gauge, [this] {
        return static_cast<double>(org->retiredSegmentCount());
    });

    // OS: faults, swap, ISA event handling and memory pressure.
    const OsStats &os = miniOs->stats();
    r.registerCounter("minor_faults", &os.minorFaults);
    r.registerCounter("major_faults", &os.majorFaults);
    r.registerCounter("swap_outs", &os.swapOuts);
    r.registerCounter("swap_ins", &os.swapIns);
    r.registerCounter("isa_allocs", &os.isaAllocs);
    r.registerCounter("isa_frees", &os.isaFrees);
    r.registerCounter("isa_retires", &os.isaRetires);
    r.registerCounter("migrations", &os.migrations);
    r.registerMetric("free_bytes", MetricKind::Gauge, [this] {
        return static_cast<double>(miniOs->allocator().freeBytes());
    });
    r.registerMetric("footprint_bytes", MetricKind::Gauge, [this] {
        const FrameAllocator &fa = miniOs->allocator();
        return static_cast<double>(fa.capacity() - fa.freeBytes());
    });

    // DRAM devices: ECC outcomes and spike delays live per device.
    r.registerMetric("ecc_corrected", MetricKind::Counter, [this] {
        std::uint64_t n = offchipDev->stats().eccCorrected;
        if (stackedDev)
            n += stackedDev->stats().eccCorrected;
        return static_cast<double>(n);
    });
    r.registerMetric("ecc_uncorrectable", MetricKind::Counter, [this] {
        std::uint64_t n = offchipDev->stats().eccUncorrectable;
        if (stackedDev)
            n += stackedDev->stats().eccUncorrectable;
        return static_cast<double>(n);
    });

    // Fault injector: raw injection counts.
    if (injector) {
        const FaultStats &fs = injector->stats();
        r.registerCounter("fault_flips_injected", &fs.flipsInjected);
        r.registerCounter("fault_stuck_hits", &fs.stuckHits);
        r.registerCounter("fault_srrt_corrected", &fs.srrtCorrected);
        r.registerCounter("fault_srrt_uncorrectable",
                          &fs.srrtUncorrectable);
        r.registerCounter("fault_spike_delays", &fs.spikeDelays);
        r.registerCounter("fault_timeouts", &fs.timeouts);
        r.registerCounter("fault_retirements_requested",
                          &fs.retirementsRequested);
    }
}

void
System::snapshotMetrics(Cycle now)
{
    registry->snapshot(now);
    if (!sink)
        return;
    // Mirror the headline gauges into Chrome counter tracks so the
    // trace viewer plots them alongside the event stream.
    sink->recordCounter(now, TraceKind::CounterHitRate,
                        registry->value("hit_rate"));
    sink->recordCounter(now, TraceKind::CounterFootprint,
                        registry->value("footprint_bytes"));
    if (registry->has("cache_mode_fraction"))
        sink->recordCounter(now, TraceKind::CounterModeMix,
                            registry->value("cache_mode_fraction"));
}

void
System::writeObsOutputs()
{
    if (sink && !cfg.obs.tracePath.empty())
        sink->writeChromeJson(cfg.obs.tracePath);
    if (!cfg.obs.metricsPath.empty())
        registry->writeSeries(cfg.obs.metricsPath);
}

void
System::buildOrganization()
{
    DramDevice *s = stackedDev.get();
    DramDevice *o = offchipDev.get();
    switch (cfg.design) {
      case Design::FlatDdr:
        org = std::make_unique<FlatMemory>(nullptr, o);
        return;
      case Design::NumaFlat:
        org = std::make_unique<FlatMemory>(s, o);
        return;
      case Design::Alloy:
        org = std::make_unique<AlloyCache>(s, o);
        return;
      case Design::Pom:
        org = std::make_unique<PomMemory>(s, o, cfg.pom);
        return;
      case Design::Chameleon:
        org = std::make_unique<ChameleonMemory>(s, o, cfg.pom);
        return;
      case Design::ChameleonOpt:
        org = std::make_unique<ChameleonOptMemory>(s, o, cfg.pom);
        return;
      case Design::Polymorphic:
        org = std::make_unique<PolymorphicMemory>(s, o, cfg.pom);
        return;
    }
    fatal("System: unknown design");
}

void
System::loadRateWorkload(const AppProfile &profile)
{
    std::vector<AppProfile> per_core(cfg.numCores, profile);
    for (auto &p : per_core)
        p.footprintBytes = profile.copyFootprint(cfg.numCores);
    loadPerCoreWorkloads(per_core);
}

void
System::resetBatches()
{
    batches.assign(std::size_t{cfg.numCores} * streamBatch, MemOp{});
    batchPos.assign(cfg.numCores, streamBatch);
}

void
System::loadTraceWorkload(const std::vector<std::string> &paths)
{
    if (paths.empty())
        fatal("System: no trace paths given");
    cores.assign(cfg.numCores, CoreModel(cfg.core));
    streams.clear();
    procs.clear();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        const std::string &path = paths[c % paths.size()];
        auto stream = std::make_unique<TraceStream>(path);
        const ProcId pid = miniOs->createProcess(
            "trace#" + std::to_string(c), stream->footprint());
        miniOs->preAllocate(pid);
        procs.push_back(pid);
        streams.push_back(std::move(stream));
    }
    resetBatches();
    std::uint64_t total = 0;
    for (const auto &s : streams)
        total += s->footprint();
    org->reserveFunctional(total);
    if (oracle)
        oracle->reserve(total);
}

void
System::loadPerCoreWorkloads(const std::vector<AppProfile> &profiles)
{
    if (profiles.size() != cfg.numCores)
        fatal("System: need one workload per core (%u)", cfg.numCores);
    cores.assign(cfg.numCores, CoreModel(cfg.core));
    streams.clear();
    procs.clear();
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        const AppProfile &p = profiles[c];
        const ProcId pid =
            miniOs->createProcess(p.name + "#" + std::to_string(c),
                                  p.footprintBytes);
        miniOs->preAllocate(pid);
        procs.push_back(pid);
        streams.push_back(std::make_unique<SyntheticStream>(
            p, p.footprintBytes, cfg.seed * 1000003 + c));
    }
    resetBatches();
    std::uint64_t total = 0;
    for (const AppProfile &p : profiles)
        total += p.footprintBytes;
    org->reserveFunctional(total);
    if (oracle)
        oracle->reserve(total);
}

void
System::runPhase(std::uint64_t retire_target)
{
    // Each live core's clock, mirrored so the earliest-clock scan reads
    // one flat array; a finished core holds the maximum and is never
    // picked.
    constexpr Cycle finished = ~static_cast<Cycle>(0);
    const std::uint32_t n = cfg.numCores;
    std::vector<Cycle> clocks(n);
    std::uint32_t active = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (cores[i].retired() >= retire_target) {
            clocks[i] = finished;
        } else {
            clocks[i] = cores[i].now();
            ++active;
        }
    }

    std::uint32_t until_poll = stopPollRefs;
    while (active > 0) {
        if (--until_poll == 0) [[unlikely]] {
            until_poll = stopPollRefs;
            throwIfStopRequested();
        }

        // Advance the core with the earliest local clock so memory
        // requests arrive in (approximately) global time order; ties
        // go to the lowest index.
        std::uint32_t c = 0;
        Cycle best = finished;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (clocks[i] < best) {
                best = clocks[i];
                c = i;
            }
        }

        CoreModel &core = cores[c];
        maybeSnapshot(core.now());
        MemOp *batch = &batches[std::size_t{c} * streamBatch];
        std::uint32_t &slot = batchPos[c];
        if (slot == streamBatch) [[unlikely]] {
            streams[c]->fill({batch, streamBatch});
            slot = 0;
        }
        const MemOp op = batch[slot++];
        if (op.gap > 1)
            core.retireCompute(op.gap - 1);

        const Translation tr =
            miniOs->translate(procs[c], op.vaddr, op.type, core.now());
        if (tr.stall)
            core.blockFor(tr.stall);

        if (oracle && (tr.majorFault || tr.minorFault)) {
            // The page was (re)built from zeroes or swap: its previous
            // contents are legitimately gone, so stop constraining it.
            oracle->invalidateRange(
                oracleKey(procs[c], op.vaddr & ~(pageBytes - 1)),
                pageBytes);
        }

        if (autoNuma)
            autoNuma->recordAccess(procs[c], op.vaddr,
                                   miniOs->allocator().nodeOf(tr.phys),
                                   core.now());

        if (op.type == AccessType::Read) {
            const Cycle issue = core.issueRead();
            const MemAccessResult r =
                org->access(tr.phys, AccessType::Read, issue);
            core.completeRead(r.done);
            if (oracle)
                oracle->checkLoad(oracleKey(procs[c], op.vaddr),
                                  org->functionalRead(tr.phys));
        } else {
            org->access(tr.phys, AccessType::Write, core.now());
            core.retireWrite();
            if (oracle) {
                const std::uint64_t v = oracle->nextValue();
                org->functionalWrite(tr.phys, v);
                oracle->recordStore(oracleKey(procs[c], op.vaddr), v);
            }
        }
        if (oracle) {
            oracle->onAccessDone(tr.phys);
            // Periodic quiescent-point sweep, OS free list included.
            if (++oracleOps % oracleSweepInterval == 0)
                oracle->fullCheck(true);
        }

        if (injector)
            drainRetirements(core.now());

        if (core.retired() >= retire_target) {
            core.drain();
            clocks[c] = finished;
            --active;
        } else {
            clocks[c] = core.now();
        }
    }
}

void
System::drainRetirements(Cycle when)
{
    const auto batch = injector->takeRetirements();
    for (Addr seg_base : batch) {
        // Retirement is frame-granular: the OS blacklists whole 4KiB
        // frames, so every stacked segment sharing the frame goes
        // with the one that failed.
        const Addr frame_base = seg_base & ~(pageBytes - 1);
        const std::uint64_t seg = cfg.pom.segmentBytes;
        for (Addr off = 0; off < pageBytes; off += seg) {
            injector->markRetired(frame_base + off);
            org->retireAt(frame_base + off, when);
        }
        // ISA-Retire: the OS evicts whatever is resident in the frame
        // and permanently blacklists it. Cache-style designs (Alloy)
        // keep the stacked range invisible to the OS; for them the
        // hardware-side retirement above is the whole story.
        if (stackedOsVisible)
            miniOs->isaRetire(frame_base, when);
        if (firstRetireCycle == noRetireCycle)
            firstRetireCycle = when;
    }
}

RunResult
System::run(std::uint64_t instr_per_core, std::uint64_t warmup_per_core)
{
    if (streams.empty())
        fatal("System: no workload loaded");

    if (warmup_per_core > 0)
        runPhase(warmup_per_core);

    // Snapshot post-warmup state so the report covers only the
    // measured region.
    org->resetStats();
    const double faults0 = registry->value("major_faults");
    const double minor0 = registry->value("minor_faults");
    struct Snap
    {
        Cycle clock;
        std::uint64_t retired;
        Cycle faultStall;
    };
    std::vector<Snap> snaps;
    for (auto &core : cores)
        snaps.push_back({core.now(), core.retired(),
                         core.faultStall()});

    runPhase(warmup_per_core + instr_per_core);

    RunResult res;
    std::vector<double> ipcs;
    std::uint64_t total_instr = 0;
    double util_sum = 0.0;
    for (std::uint32_t i = 0; i < cores.size(); ++i) {
        const Cycle cycles = cores[i].now() - snaps[i].clock;
        const std::uint64_t instr =
            cores[i].retired() - snaps[i].retired;
        const Cycle stall = cores[i].faultStall() - snaps[i].faultStall;
        ipcs.push_back(cycles ? static_cast<double>(instr) /
                                    static_cast<double>(cycles)
                              : 0.0);
        total_instr += instr;
        res.makespan = std::max(res.makespan, cycles);
        util_sum += cycles ? 1.0 - static_cast<double>(stall) /
                                       static_cast<double>(cycles)
                           : 1.0;
    }
    res.ipcPerCore = ipcs;
    res.ipcGeoMean = geoMean(ipcs);
    res.cpuUtilization = util_sum / static_cast<double>(cores.size());
    res.instructions = total_instr;

    // End-of-run aggregation reads the named registry — the same
    // declarations that feed --metrics snapshots and counter tracks.
    const MetricsRegistry &r = *registry;
    res.stackedHitRate = r.value("hit_rate");
    res.swaps = static_cast<std::uint64_t>(r.value("swaps"));
    res.fills = static_cast<std::uint64_t>(r.value("fills"));
    res.amal = r.value("amal");
    res.memRefs = static_cast<std::uint64_t>(r.value("reads") +
                                             r.value("writes"));
    res.majorFaults = static_cast<std::uint64_t>(
        r.value("major_faults") - faults0);
    res.minorFaults = static_cast<std::uint64_t>(
        r.value("minor_faults") - minor0);
    if (r.has("cache_mode_fraction"))
        res.cacheModeFraction = r.value("cache_mode_fraction");
    if (oracle) {
        oracle->finalCheck();
        const ShadowOracleStats &os = oracle->stats();
        res.oracleStores = os.stores;
        res.oracleLoadChecks = os.loadChecks;
        res.oracleInvariantChecks = oracle->invariantChecksRun();
        res.oracleViolations = os.violations;
    }
    if (injector) {
        res.eccCorrected =
            static_cast<std::uint64_t>(r.value("ecc_corrected"));
        res.eccUncorrectable =
            static_cast<std::uint64_t>(r.value("ecc_uncorrectable"));
        res.faultSpikes =
            static_cast<std::uint64_t>(r.value("fault_spike_delays"));
        res.faultTimeouts =
            static_cast<std::uint64_t>(r.value("fault_timeouts"));
        res.retiredSegments =
            static_cast<std::uint64_t>(r.value("retired_segments"));
        res.retiredBytes =
            res.retiredSegments * cfg.pom.segmentBytes;
        if (firstRetireCycle != noRetireCycle) {
            Cycle end = 0;
            for (const auto &core : cores)
                end = std::max(end, core.now());
            res.degradedCycles = end > firstRetireCycle
                                     ? end - firstRetireCycle
                                     : 0;
        }
    }

    // Final sample at the end of the measured region, then flush the
    // --trace / --metrics output files.
    Cycle end_cycle = 0;
    for (const auto &core : cores)
        end_cycle = std::max(end_cycle, core.now());
    snapshotMetrics(end_cycle);
    writeObsOutputs();
    return res;
}

} // namespace chameleon
