/**
 * @file
 * Simulator workloads: sim_grid (the Fig 15 grid, run inline) and
 * sim_pressure (AutoNUMA and under-provisioned flat DDR over the
 * high-footprint apps, fanned across SweepRunner workers), plus the
 * cell runner and the traced replay both share with the serve
 * workloads.
 */

#include <sys/sysinfo.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <map>

#include "common/stats.hh"
#include "core/chameleon.hh"
#include "sim/sweep_runner.hh"
#include "sim_cells.hh"

namespace perfbench
{

using namespace chameleon;

CellSpec
makeCell(std::string label, const SystemConfig &cfg,
         const AppProfile &profile, const BenchOptions &opts)
{
    CellSpec c;
    c.design = std::move(label);
    c.cfg = cfg;
    c.profile = profile;
    c.instr = effectiveInstructions(profile, opts);
    c.warmup = static_cast<std::uint64_t>(static_cast<double>(c.instr) *
                                          opts.warmupFrac);
    return c;
}

void
LayerTimes::merge(const LayerTimes &o)
{
    refs += o.refs;
    sampledRefs += o.sampledRefs;
    sampledAutonuma += o.sampledAutonuma;
    nextNs += o.nextNs;
    translateNs += o.translateNs;
    autonumaNs += o.autonumaNs;
    accessNs += o.accessNs;
    phaseNs += o.phaseNs;
}

namespace
{

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

void
captureStats(System &sys, CellOutcome &out)
{
    out.org = sys.organization().stats();
    out.os = sys.os().stats();
    if (DramDevice *s = sys.stackedDevice())
        out.stacked = s->stats();
    out.offchip = sys.offchipDevice().stats();
    if (AutoNuma *an = sys.autonumaDaemon()) {
        out.autonumaMigrations = an->totalMigrations();
        out.autonumaEpochs = an->epochs().size();
    }
}

/** The benchmark's copy of one System's cores and streams. */
struct ReplayState
{
    std::vector<CoreModel> cores;
    std::vector<SyntheticStream> streams;
    std::vector<ProcId> procs;
};

/**
 * System::runPhase, reference for reference, through public calls.
 * Oracle, fault injection and metric snapshots are off in every
 * benchmark cell, so their branches are absent here.
 */
void
replayPhase(System &sys, ReplayState &st, std::uint64_t retire_target,
            LayerTimes &t)
{
    MiniOs &os = sys.os();
    MemOrganization &org = sys.organization();
    AutoNuma *autonuma = sys.autonumaDaemon();
    const auto n = static_cast<std::uint32_t>(st.cores.size());
    std::vector<bool> done(n, false);
    std::uint32_t active = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (st.cores[i].retired() >= retire_target)
            done[i] = true;
        else
            ++active;
    }

    const auto phase0 = Clock::now();
    Clock::time_point a, b;
    while (active > 0) {
        std::uint32_t c = 0;
        Cycle best = ~static_cast<Cycle>(0);
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!done[i] && st.cores[i].now() < best) {
                best = st.cores[i].now();
                c = i;
            }
        }
        const bool timed = t.refs % LayerTimes::kLayerSampleEvery == 0;
        ++t.refs;
        t.sampledRefs += timed;

        CoreModel &core = st.cores[c];
        if (timed)
            a = Clock::now();
        const MemOp op = st.streams[c].next();
        if (timed) {
            b = Clock::now();
            t.nextNs += nsBetween(a, b);
        }
        if (op.gap > 1)
            core.retireCompute(op.gap - 1);

        if (timed)
            a = Clock::now();
        const Translation tr =
            os.translate(st.procs[c], op.vaddr, op.type, core.now());
        if (timed) {
            b = Clock::now();
            t.translateNs += nsBetween(a, b);
        }
        if (tr.stall)
            core.blockFor(tr.stall);

        if (autonuma) {
            if (timed)
                a = Clock::now();
            autonuma->recordAccess(st.procs[c], op.vaddr,
                                   os.allocator().nodeOf(tr.phys),
                                   core.now());
            if (timed) {
                b = Clock::now();
                t.autonumaNs += nsBetween(a, b);
                ++t.sampledAutonuma;
            }
        }

        if (op.type == AccessType::Read) {
            const Cycle issue = core.issueRead();
            if (timed)
                a = Clock::now();
            const MemAccessResult r =
                org.access(tr.phys, AccessType::Read, issue);
            if (timed) {
                b = Clock::now();
                t.accessNs += nsBetween(a, b);
            }
            core.completeRead(r.done);
        } else {
            if (timed)
                a = Clock::now();
            org.access(tr.phys, AccessType::Write, core.now());
            if (timed) {
                b = Clock::now();
                t.accessNs += nsBetween(a, b);
            }
            core.retireWrite();
        }

        if (core.retired() >= retire_target) {
            core.drain();
            done[c] = true;
            --active;
        }
    }
    t.phaseNs += nsBetween(phase0, Clock::now());
}

/** System::run's aggregation, from the replay's own cores. */
RunResult
aggregate(System &sys, const ReplayState &st,
          const std::vector<std::array<std::uint64_t, 3>> &snaps,
          std::uint64_t major0, std::uint64_t minor0)
{
    RunResult res;
    std::vector<double> ipcs;
    std::uint64_t total_instr = 0;
    double util_sum = 0.0;
    for (std::size_t i = 0; i < st.cores.size(); ++i) {
        const CoreModel &core = st.cores[i];
        const Cycle cycles = core.now() - snaps[i][0];
        const std::uint64_t instr = core.retired() - snaps[i][1];
        const Cycle stall = core.faultStall() - snaps[i][2];
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
    res.cpuUtilization = util_sum / static_cast<double>(st.cores.size());
    res.instructions = total_instr;

    const MemOrgStats &ms = sys.organization().stats();
    res.stackedHitRate = ms.stackedHitRate();
    res.swaps = ms.swaps;
    res.fills = ms.fills;
    res.amal = ms.avgMemLatency();
    res.memRefs = ms.reads + ms.writes;
    res.majorFaults = sys.os().stats().majorFaults - major0;
    res.minorFaults = sys.os().stats().minorFaults - minor0;
    if (auto *cham = dynamic_cast<ChameleonMemory *>(&sys.organization()))
        res.cacheModeFraction = cham->cacheModeFraction();
    return res;
}

bool
sameDram(const DramStats &a, const DramStats &b)
{
    return a.reads == b.reads && a.writes == b.writes &&
           a.rowHits == b.rowHits && a.rowMisses == b.rowMisses &&
           a.rowConflicts == b.rowConflicts &&
           a.refreshStalls == b.refreshStalls &&
           a.readLatencySum == b.readLatencySum &&
           a.bytesTransferred == b.bytesTransferred;
}

} // namespace

CellOutcome
runCell(const CellSpec &spec)
{
    CellOutcome out;
    out.start = Clock::now();
    {
        System sys(spec.cfg);
        sys.loadRateWorkload(spec.profile);
        const auto t1 = Clock::now();
        out.result = sys.run(spec.instr, spec.warmup);
        const auto t2 = Clock::now();
        out.setupS = std::chrono::duration<double>(t1 - out.start).count();
        out.runS = std::chrono::duration<double>(t2 - t1).count();
        captureStats(sys, out);
    }
    out.end = Clock::now();
    out.cellS = std::chrono::duration<double>(out.end - out.start).count();
    return out;
}

CellOutcome
replayCell(const CellSpec &spec, LayerTimes &times)
{
    CellOutcome out;
    out.start = Clock::now();
    {
        System sys(spec.cfg);
        sys.loadRateWorkload(spec.profile);
        const auto t1 = Clock::now();
        out.setupS = std::chrono::duration<double>(t1 - out.start).count();

        // Same cores, seeds and footprints as
        // System::loadPerCoreWorkloads; loadRateWorkload created the
        // processes first, so core c runs pid c.
        const std::uint32_t n = spec.cfg.numCores;
        AppProfile copy = spec.profile;
        copy.footprintBytes = spec.profile.copyFootprint(n);
        ReplayState st;
        st.cores.assign(n, CoreModel(spec.cfg.core));
        st.streams.reserve(n);
        for (std::uint32_t c = 0; c < n; ++c) {
            st.streams.emplace_back(copy, copy.footprintBytes,
                                    spec.cfg.seed * 1000003 + c);
            st.procs.push_back(c);
        }

        LayerTimes t;
        if (spec.warmup > 0)
            replayPhase(sys, st, spec.warmup, t);
        sys.organization().resetStats();
        const std::uint64_t major0 = sys.os().stats().majorFaults;
        const std::uint64_t minor0 = sys.os().stats().minorFaults;
        std::vector<std::array<std::uint64_t, 3>> snaps;
        for (const CoreModel &core : st.cores)
            snaps.push_back({core.now(), core.retired(), core.faultStall()});
        replayPhase(sys, st, spec.warmup + spec.instr, t);
        out.result = aggregate(sys, st, snaps, major0, minor0);
        out.runS = static_cast<double>(t.phaseNs) / 1e9;
        captureStats(sys, out);
        times.merge(t);
    }
    out.end = Clock::now();
    out.cellS = std::chrono::duration<double>(out.end - out.start).count();
    return out;
}

bool
sameOutcome(const CellOutcome &a, const CellOutcome &b)
{
    const RunResult &x = a.result;
    const RunResult &y = b.result;
    const bool run_same =
        x.ipcPerCore == y.ipcPerCore && x.ipcGeoMean == y.ipcGeoMean &&
        x.stackedHitRate == y.stackedHitRate && x.swaps == y.swaps &&
        x.fills == y.fills && x.amal == y.amal &&
        x.cacheModeFraction == y.cacheModeFraction &&
        x.majorFaults == y.majorFaults && x.minorFaults == y.minorFaults &&
        x.cpuUtilization == y.cpuUtilization &&
        x.instructions == y.instructions && x.memRefs == y.memRefs &&
        x.makespan == y.makespan;
    const MemOrgStats &p = a.org;
    const MemOrgStats &q = b.org;
    const bool org_same =
        p.reads == q.reads && p.writes == q.writes &&
        p.stackedServed == q.stackedServed &&
        p.offchipServed == q.offchipServed && p.swaps == q.swaps &&
        p.fills == q.fills && p.writebacks == q.writebacks &&
        p.isaMoves == q.isaMoves && p.latencySum == q.latencySum;
    const OsStats &o = a.os;
    const OsStats &r = b.os;
    const bool os_same =
        o.minorFaults == r.minorFaults && o.majorFaults == r.majorFaults &&
        o.swapOuts == r.swapOuts && o.swapIns == r.swapIns &&
        o.isaAllocs == r.isaAllocs && o.isaFrees == r.isaFrees &&
        o.migrations == r.migrations &&
        o.migrationFailures == r.migrationFailures &&
        o.thpAllocs == r.thpAllocs && o.thpFallbacks == r.thpFallbacks &&
        o.isaRetires == r.isaRetires;
    return run_same && org_same && os_same &&
           sameDram(a.stacked, b.stacked) &&
           sameDram(a.offchip, b.offchip) &&
           a.autonumaMigrations == b.autonumaMigrations &&
           a.autonumaEpochs == b.autonumaEpochs;
}


namespace
{

/**
 * Host time an empty steady-clock pair reads, ns: the part of every
 * timed interval that is the timer itself. Median of 31 batches.
 */
double
clockPairNs()
{
    constexpr int kPairs = 20'000;
    std::vector<double> batches;
    for (int b = 0; b < 31; ++b) {
        std::uint64_t sum = 0;
        for (int i = 0; i < kPairs; ++i) {
            const auto a = Clock::now();
            sum += nsBetween(a, Clock::now());
        }
        batches.push_back(static_cast<double>(sum) / kPairs);
    }
    return median(batches);
}

} // namespace

void
reportLayers(Report &report, const LayerTimes &t,
             const std::vector<CellOutcome> &outcomes)
{
    // Per-reference self time of a layer: its sampled intervals, less
    // the timer's own share of each, over the sampled references.
    const double pair_ns = clockPairNs();
    const double sampled =
        static_cast<double>(std::max<std::uint64_t>(t.sampledRefs, 1));
    const auto self = [&](std::uint64_t ns, std::uint64_t intervals) {
        return (static_cast<double>(ns) -
                pair_ns * static_cast<double>(intervals)) /
               sampled;
    };
    const double next_ns = self(t.nextNs, t.sampledRefs);
    const double translate_ns = self(t.translateNs, t.sampledRefs);
    const double autonuma_ns = self(t.autonumaNs, t.sampledAutonuma);
    const double access_ns = self(t.accessNs, t.sampledRefs);
    const double total_ns = static_cast<double>(t.phaseNs) /
                            static_cast<double>(std::max<std::uint64_t>(
                                t.refs, 1));
    const double loop_ns =
        total_ns - next_ns - translate_ns - autonuma_ns - access_ns;
    report.set("workloads.next_ns", next_ns);
    report.set("workloads.refs", static_cast<double>(t.refs));
    report.set("os.translate_ns", translate_ns);
    report.set("os.translate_calls", static_cast<double>(t.refs));
    report.set("os.autonuma_ns", autonuma_ns);
    report.set("memorg.access_ns", access_ns);
    report.set("sim.loop_ns", loop_ns);
    report.set("sim.traced_ns_per_ref", total_ns);
    note("timer pair %.1f ns subtracted from each timed interval",
         pair_ns);
    note("layers (traced ns/ref, one ref in %" PRIu64
         " timed): workloads %.1f + os %.1f + autonuma %.1f + memorg "
         "%.1f + loop residual %.1f = %.1f over %" PRIu64 " refs",
         LayerTimes::kLayerSampleEvery, next_ns, translate_ns,
         autonuma_ns, access_ns, loop_ns, total_ns, t.refs);

    OsStats os;
    MemOrgStats org;
    DramStats dev[2];
    double mode_sum = 0.0;
    std::size_t mode_cells = 0;
    for (const CellOutcome &c : outcomes) {
        os.minorFaults += c.os.minorFaults;
        os.majorFaults += c.os.majorFaults;
        os.swapOuts += c.os.swapOuts;
        os.migrations += c.os.migrations;
        os.isaAllocs += c.os.isaAllocs;
        os.isaFrees += c.os.isaFrees;
        org.reads += c.org.reads;
        org.writes += c.org.writes;
        org.stackedServed += c.org.stackedServed;
        org.offchipServed += c.org.offchipServed;
        org.swaps += c.org.swaps;
        org.fills += c.org.fills;
        org.writebacks += c.org.writebacks;
        org.isaMoves += c.org.isaMoves;
        if (c.result.cacheModeFraction >= 0.0) {
            mode_sum += c.result.cacheModeFraction;
            ++mode_cells;
        }
        const DramStats *src[2] = {&c.stacked, &c.offchip};
        for (int i = 0; i < 2; ++i) {
            dev[i].reads += src[i]->reads;
            dev[i].writes += src[i]->writes;
            dev[i].rowHits += src[i]->rowHits;
            dev[i].rowMisses += src[i]->rowMisses;
            dev[i].rowConflicts += src[i]->rowConflicts;
            dev[i].bytesTransferred += src[i]->bytesTransferred;
            dev[i].readLatencySum += src[i]->readLatencySum;
        }
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    report.set("os.minor_faults", d(os.minorFaults));
    report.set("os.major_faults", d(os.majorFaults));
    report.set("os.swap_outs", d(os.swapOuts));
    report.set("os.migrations", d(os.migrations));
    report.set("os.isa_allocs", d(os.isaAllocs));
    report.set("os.isa_frees", d(os.isaFrees));
    report.set("memorg.reads", d(org.reads));
    report.set("memorg.writes", d(org.writes));
    report.set("memorg.stacked_hit_rate", org.stackedHitRate());
    report.set("memorg.swaps", d(org.swaps));
    report.set("memorg.fills", d(org.fills));
    report.set("memorg.writebacks", d(org.writebacks));
    report.set("memorg.isa_moves", d(org.isaMoves));
    report.set("memorg.cache_mode_fraction",
               mode_cells ? mode_sum / static_cast<double>(mode_cells)
                          : 0.0);
    const char *names[2] = {"stacked", "offchip"};
    for (int i = 0; i < 2; ++i) {
        const DramStats &s = dev[i];
        const std::uint64_t row_total =
            s.rowHits + s.rowMisses + s.rowConflicts;
        const std::string p = std::string("dram.") + names[i] + ".";
        report.set(p + "reads", d(s.reads));
        report.set(p + "writes", d(s.writes));
        report.set(p + "row_hit_rate",
                   row_total ? d(s.rowHits) / d(row_total) : 0.0);
        report.set(p + "bytes", d(s.bytesTransferred));
        report.set(p + "avg_read_cycles", s.avgReadLatency());
    }
}

namespace
{

/** One pass over a grid, untraced or traced. */
struct GridPass
{
    std::vector<CellOutcome> cells;
    std::vector<LayerTimes> layers;
    std::vector<std::string> errors;
    double wallS = 0.0;
    Clock::time_point t0{};
    Clock::time_point t1{};
};

GridPass
runGrid(const std::vector<CellSpec> &specs, unsigned jobs, bool traced)
{
    GridPass p;
    p.cells.resize(specs.size());
    p.layers.resize(specs.size());
    BenchOptions ro;
    ro.jobs = jobs;
    p.t0 = Clock::now();
    SweepRunner runner(ro);
    for (std::size_t i = 0; i < specs.size(); ++i)
        runner.submit(specs[i].design, specs[i].profile.name, [&, i] {
            p.cells[i] = traced ? replayCell(specs[i], p.layers[i])
                                : runCell(specs[i]);
            return p.cells[i].result;
        });
    const std::vector<SweepRecord> recs = runner.collect();
    p.t1 = Clock::now();
    p.wallS = std::chrono::duration<double>(p.t1 - p.t0).count();
    for (const SweepRecord &r : recs)
        if (!r.ok())
            p.errors.push_back(r.design + "/" + r.app + ": " +
                               cellStatusLabel(r.status) + " " + r.error);
    return p;
}

/** Σ cell simulation time ÷ simulated references (warmup included:
 *  it retires as many instructions as the measured phase, so it is
 *  counted as the same number of references). */
double
nsPerRef(const GridPass &p)
{
    double run_s = 0.0;
    double refs = 0.0;
    for (const CellOutcome &c : p.cells) {
        run_s += c.runS;
        refs += 2.0 * static_cast<double>(c.result.memRefs);
    }
    return refs > 0.0 ? run_s * 1e9 / refs : 0.0;
}

double
setupSeconds(const GridPass &p)
{
    double s = 0.0;
    for (const CellOutcome &c : p.cells)
        s += c.setupS;
    return s;
}

/** Time in [t0, t1] during which fewer than @p jobs cells ran. */
double
tailSeconds(const GridPass &p, unsigned jobs)
{
    std::vector<std::pair<Clock::time_point, int>> ev;
    for (const CellOutcome &c : p.cells) {
        ev.emplace_back(c.start, +1);
        ev.emplace_back(c.end, -1);
    }
    std::sort(ev.begin(), ev.end());
    double tail = 0.0;
    int running = 0;
    Clock::time_point prev = p.t0;
    for (const auto &[t, delta] : ev) {
        if (running < static_cast<int>(jobs))
            tail += std::chrono::duration<double>(t - prev).count();
        running += delta;
        prev = t;
    }
    tail += std::chrono::duration<double>(p.t1 - prev).count();
    return tail;
}

/** Add one cell's RunResult to an output digest. */
void
digestResult(Digest &d, const CellSpec &spec, const RunResult &r)
{
    d.add(spec.design);
    d.add(spec.profile.name);
    d.addU64(r.ipcPerCore.size());
    for (const double ipc : r.ipcPerCore)
        d.addF64(ipc);
    for (const double v : {r.ipcGeoMean, r.stackedHitRate, r.amal,
                           r.cacheModeFraction, r.cpuUtilization})
        d.addF64(v);
    for (const std::uint64_t v :
         {r.swaps, r.fills, r.majorFaults, r.minorFaults, r.instructions,
          r.memRefs, static_cast<std::uint64_t>(r.makespan)})
        d.addU64(v);
}

std::string
gridDigest(const std::vector<CellSpec> &specs, const GridPass &p)
{
    Digest d;
    for (std::size_t i = 0; i < specs.size(); ++i)
        digestResult(d, specs[i], p.cells[i].result);
    return d.hex();
}

/** What a workload asserts its grid exercised. */
using SanityCheck = void (*)(const std::vector<CellOutcome> &, Report &);

void
runSimWorkload(const Args &args, Report &report,
               const std::vector<CellSpec> &specs, unsigned jobs,
               SanityCheck sanity)
{
    note("grid: %zu cells, %u worker%s", specs.size(), jobs,
         jobs == 1 ? " (inline)" : "s");
    // A traced run spends half its time on untraced passes (the
    // reference counters and the overhead baseline), half on replay.
    const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
    std::vector<GridPass> passes;
    const auto t0 = Clock::now();
    do {
        passes.push_back(runGrid(specs, jobs, false));
        const GridPass &p = passes.back();
        note("pass %zu: wall %.4f s, %.2f ns/ref, setup %.4f s, digest %s",
             passes.size(), p.wallS, nsPerRef(p), setupSeconds(p),
             gridDigest(specs, p).c_str());
    } while (secondsSince(t0) < budget);

    std::size_t errors = 0;
    std::vector<double> walls, ns, setups, goodput, cell_ms, busy, tails;
    double cell_max = 0.0;
    const std::string digest0 = gridDigest(specs, passes[0]);
    bool same_digest = true;
    for (const GridPass &p : passes) {
        report.attempted += specs.size();
        report.failed += p.errors.size();
        errors += p.errors.size();
        for (const std::string &e : p.errors)
            note("cell error: %s", e.c_str());
        walls.push_back(p.wallS);
        ns.push_back(nsPerRef(p));
        setups.push_back(setupSeconds(p));
        goodput.push_back(
            static_cast<double>(specs.size() - p.errors.size()) / p.wallS);
        double cell_sum = 0.0;
        for (const CellOutcome &c : p.cells) {
            cell_ms.push_back(c.cellS * 1000.0);
            cell_sum += c.cellS;
            cell_max = std::max(cell_max, c.cellS);
        }
        busy.push_back(cell_sum / (jobs * p.wallS));
        tails.push_back(tailSeconds(p, jobs));
        same_digest = same_digest && gridDigest(specs, p) == digest0;
    }
    report.check(errors == 0, "every sim cell ok");
    report.check(same_digest, "every pass reproduces digest " + digest0);
    note("digest %s %s seed %" PRIu64, args.workload.c_str(),
         digest0.c_str(), args.seed);
    sanity(passes[0].cells, report);

    // Per-design cost of the first pass, for the ROADMAP's table.
    std::map<std::string, std::pair<double, double>> by_design;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto &[run_s, refs] = by_design[specs[i].design];
        run_s += passes[0].cells[i].runS;
        refs += 2.0 * static_cast<double>(passes[0].cells[i].result.memRefs);
    }
    for (const auto &[design, v] : by_design)
        note("design %-16s %.2f ns/ref", design.c_str(),
             v.first * 1e9 / v.second);

    std::sort(cell_ms.begin(), cell_ms.end());
    const double untraced_ns = median(ns);
    note("end-to-end over %zu passes: cells n=%zu, cell p50 %.3f ms",
         passes.size(), cell_ms.size(), percentile(cell_ms, 0.5));
    if (!args.trace) {
        report.set("setup_s", median(setups));
        report.set("ns_per_ref", untraced_ns);
        report.set("wall_s", median(walls));
        report.set("cold_p50_ms", percentile(cell_ms, 0.5));
        report.set("goodput_jobs_per_s", median(goodput));
        report.set("peak_rss_mb", peakRssMb());
        return;
    }

    // Traced passes for the other half; every one must reproduce the
    // untraced counters cell for cell.
    std::vector<GridPass> traced;
    const auto t1 = Clock::now();
    do {
        traced.push_back(runGrid(specs, jobs, true));
    } while (secondsSince(t1) < budget);
    std::size_t mismatched = 0;
    std::size_t traced_errors = 0;
    LayerTimes total;
    std::uint64_t pass_refs = 0;
    std::uint64_t approx_refs = 0;
    for (const GridPass &tp : traced) {
        report.attempted += specs.size();
        report.failed += tp.errors.size();
        traced_errors += tp.errors.size();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            total.merge(tp.layers[i]);
            if (!sameOutcome(tp.cells[i], passes[0].cells[i])) {
                ++mismatched;
                note("replay mismatch: %s/%s", specs[i].design.c_str(),
                     specs[i].profile.name.c_str());
            }
        }
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
        pass_refs += traced[0].layers[i].refs;
        approx_refs += 2 * traced[0].cells[i].result.memRefs;
    }
    report.check(traced_errors == 0 && mismatched == 0,
                 "traced replay counters equal System::run on all " +
                     std::to_string(specs.size()) + " cells, " +
                     std::to_string(traced.size()) + " traced passes");
    reportLayers(report, total, traced[0].cells);
    // Counts are per grid pass; the times above pool every pass.
    report.set("workloads.refs", static_cast<double>(pass_refs));
    report.set("os.translate_calls", static_cast<double>(pass_refs));
    note("refs per pass: replay counted %" PRIu64
         ", 2 x measured = %" PRIu64,
         pass_refs, approx_refs);
    const double traced_ns = report.get("sim.traced_ns_per_ref");
    note("untraced ns/ref %.2f (median of %zu passes), traced %.2f",
         untraced_ns, passes.size(), traced_ns);
    report.set("trace.overhead_frac", traced_ns / untraced_ns - 1.0);
    report.set("sim.cell_wall_max_s", cell_max);
    report.set("sweep.busy_frac", median(busy));
    report.set("sweep.tail_s", median(tails));
}

BenchOptions
simOptions(const Args &args)
{
    BenchOptions o;
    o.scale = 256;
    o.instrPerCore = 200'000;
    o.minRefsPerCore = 10'000;
    o.warmupFrac = 1.0;
    o.seed = args.seed;
    return o;
}

void
gridSanity(const std::vector<CellOutcome> &cells, Report &report)
{
    std::uint64_t swaps = 0, fills = 0;
    for (const CellOutcome &c : cells) {
        swaps += c.result.swaps;
        fills += c.result.fills;
    }
    report.check(swaps > 0 && fills > 0,
                 "sim_grid exercises memorg (swaps " +
                     std::to_string(swaps) + ", fills " +
                     std::to_string(fills) + ")");
}

void
pressureSanity(const std::vector<CellOutcome> &cells, Report &report)
{
    std::uint64_t major = 0, migrations = 0;
    for (const CellOutcome &c : cells) {
        major += c.result.majorFaults;
        migrations += c.os.migrations;
    }
    report.check(major > 0 && migrations > 0,
                 "sim_pressure exercises the OS (major faults " +
                     std::to_string(major) + ", migrations " +
                     std::to_string(migrations) + ")");
}

} // namespace

void
runSimGrid(const Args &args, Report &report)
{
    const BenchOptions o = simOptions(args);
    std::vector<CellSpec> specs;
    for (const Design d : {Design::Alloy, Design::Pom, Design::Chameleon,
                           Design::ChameleonOpt})
        for (const AppProfile &app : tableTwoSuite(o.scale))
            specs.push_back(
                makeCell(designLabel(d), makeSystemConfig(d, o), app, o));
    runSimWorkload(args, report, specs, 1, gridSanity);
}

void
runSimPressure(const Args &args, Report &report)
{
    const BenchOptions o = simOptions(args);
    const std::vector<AppProfile> suite = tableTwoSuite(o.scale);
    std::vector<AppProfile> apps;
    for (const std::string &name : highFootprintNames())
        apps.push_back(findProfile(suite, name));

    std::vector<CellSpec> specs;
    for (const AppProfile &app : apps) {
        // Fig 2b's most eager AutoNUMA setting.
        SystemConfig cfg = makeSystemConfig(Design::NumaFlat, o);
        cfg.runAutoNuma = true;
        cfg.autonuma.threshold = 0.9;
        cfg.autonuma.epochCycles = 10'000'000 / o.scale * 8;
        specs.push_back(makeCell("autonuma-90", cfg, app, o));
    }
    // Fig 4's capacities below the footprint: page faults and clock
    // eviction.
    for (const std::uint64_t gib : {16, 18}) {
        BenchOptions og = o;
        og.offchipFullGiB = gib;
        for (const AppProfile &app : apps)
            specs.push_back(makeCell("flat-ddr-" + std::to_string(gib) +
                                         "GB",
                                     makeSystemConfig(Design::FlatDdr, og),
                                     app, og));
    }
    runSimWorkload(args, report, specs,
                   static_cast<unsigned>(std::max(1, get_nprocs())),
                   pressureSanity);
}

} // namespace perfbench
