/**
 * @file
 * Top-level simulated machine: DRAM devices + memory organization +
 * mini-OS + cores + workload streams, wired exactly like Table I and
 * driven as the paper's 12-copy rate-mode workloads.
 */

#ifndef CHAMELEON_SIM_SYSTEM_HH
#define CHAMELEON_SIM_SYSTEM_HH

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/core_model.hh"
#include "dram/dram_device.hh"
#include "fault/fault_injector.hh"
#include "memorg/mem_organization.hh"
#include "memorg/pom.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace_sink.hh"
#include "os/autonuma.hh"
#include "os/mini_os.hh"
#include "verify/shadow_oracle.hh"
#include "workloads/profile.hh"
#include "workloads/stream_gen.hh"
#include "workloads/trace_stream.hh"

namespace chameleon
{

/** Memory organization selector. */
enum class Design : std::uint8_t
{
    FlatDdr,       ///< off-chip only (Fig 18 baselines)
    NumaFlat,      ///< stacked+off-chip OS-visible, no HW remapping
    Alloy,         ///< latency-optimized DRAM cache
    Pom,           ///< Sim et al. [25] baseline
    Chameleon,     ///< basic co-design (§V-B)
    ChameleonOpt,  ///< optimized co-design (§V-C)
    Polymorphic,   ///< Chung patent [51]
};

/** Printable design label. */
const char *designLabel(Design d);

/**
 * Inverse of designLabel() ("chameleon-opt" -> ChameleonOpt);
 * std::nullopt for an unknown label. Used by the serving layer to
 * validate requests instead of trusting remote strings.
 */
std::optional<Design> designFromLabel(std::string_view label);

/** Observability outputs (src/obs): event tracing + metric series. */
struct ObsConfig
{
    /**
     * Chrome trace-event JSON output path. Non-empty attaches a
     * TraceSink to every instrumented component and writes the merged
     * trace at the end of run(). Empty = tracing compiled to a single
     * null-pointer branch per site.
     */
    std::string tracePath;
    /**
     * Metric time-series output path ("" = no series file; a ".json"
     * suffix selects JSON, anything else wide CSV).
     */
    std::string metricsPath;
    /** Cycles between periodic metric snapshots / counter samples. */
    Cycle metricsIntervalCycles = 1'000'000;
    /** Events retained per producing thread in the trace ring. */
    std::size_t traceRingEvents = 1u << 16;
    /**
     * Attach a TraceSink even without a tracePath, so tests (and the
     * invariant checker's violation dumps) can inspect events in
     * memory without touching the filesystem.
     */
    bool forceTrace = false;

    bool traceEnabled() const { return forceTrace || !tracePath.empty(); }
};

/** Full machine configuration. */
struct SystemConfig
{
    Design design = Design::ChameleonOpt;

    /**
     * Capacity divisor: all capacities and footprints shrink by this
     * factor so laptop-scale runs preserve every footprint:capacity
     * ratio of the paper (see DESIGN.md).
     */
    std::uint64_t scale = 64;

    /** Full-scale capacities (Table I: 4GB + 20GB). */
    std::uint64_t stackedFullBytes = 4_GiB;
    std::uint64_t offchipFullBytes = 20_GiB;
    /** Drop the stacked device entirely (FlatDdr baselines). */
    bool hasStacked = true;

    std::uint32_t numCores = 12;
    CoreConfig core;
    PomConfig pom;

    /** OS frame placement; defaulted per design when std::nullopt. */
    std::optional<AllocPolicy> osPolicy;

    /** Run the AutoNUMA daemon (NumaFlat only). */
    bool runAutoNuma = false;
    AutoNumaConfig autonuma;

    Cycle majorFaultLatency = 100'000;
    std::uint64_t seed = 1;
    /** Enable the functional data layer (tests). */
    bool functionalData = false;
    /**
     * Run under the shadow-memory differential oracle: every store is
     * mirrored in a per-(process, virtual address) shadow, every load
     * is checked against it, and the remap-metadata invariant checker
     * runs after every segment movement and ISA event. Implies
     * functionalData. Any violation aborts the run (verify/).
     */
    bool oracle = false;

    /**
     * Fault injection (src/fault). When enabled, a per-System
     * FaultInjector drives the devices' ECC/latency-spike models and
     * the SRRT metadata ECC, and uncorrectable or repeat-offender
     * stacked segments are retired end-to-end (hardware eviction +
     * ISA-Retire into the OS frame blacklist).
     */
    FaultConfig faults;

    /** Observability: --trace / --metrics outputs. */
    ObsConfig obs;

    std::uint64_t stackedBytes() const
    {
        return hasStacked ? stackedFullBytes / scale : 0;
    }

    std::uint64_t offchipBytes() const
    {
        return offchipFullBytes / scale;
    }
};

/** Aggregated outcome of one run. */
struct RunResult
{
    std::vector<double> ipcPerCore;
    double ipcGeoMean = 0.0;
    double stackedHitRate = 0.0;
    std::uint64_t swaps = 0;
    std::uint64_t fills = 0;
    /** Average memory access latency over reads, CPU cycles. */
    double amal = 0.0;
    /** Fraction of groups in cache mode at run end (-1 if N/A). */
    double cacheModeFraction = -1.0;
    std::uint64_t majorFaults = 0;
    std::uint64_t minorFaults = 0;
    /** Mean over cores of (1 - faultStall / cycles). */
    double cpuUtilization = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t memRefs = 0;
    /** Longest core-local completion time (execution time proxy). */
    Cycle makespan = 0;
    /** Oracle counters, all zero unless SystemConfig::oracle. */
    std::uint64_t oracleStores = 0;
    std::uint64_t oracleLoadChecks = 0;
    std::uint64_t oracleInvariantChecks = 0;
    std::uint64_t oracleViolations = 0;
    /**
     * Fault-injection counters, all zero unless SystemConfig::faults
     * is enabled. ECC counts cover the measured region; spike/timeout
     * and retirement counts cover the whole run (warmup included) —
     * retirement is permanent state, not a per-phase statistic.
     */
    std::uint64_t eccCorrected = 0;
    std::uint64_t eccUncorrectable = 0;
    std::uint64_t faultSpikes = 0;
    std::uint64_t faultTimeouts = 0;
    /** Stacked segments retired (capacity permanently lost). */
    std::uint64_t retiredSegments = 0;
    std::uint64_t retiredBytes = 0;
    /** Cycles spent past the first retirement (degradation mode). */
    Cycle degradedCycles = 0;
};

/**
 * Thrown out of System::run (and throwIfStopRequested) when the
 * calling thread's stop flag is set: the run was cancelled, its
 * partial state is meaningless, and the System must be discarded.
 */
class RunCancelled : public std::runtime_error
{
  public:
    RunCancelled() : std::runtime_error("run cancelled") {}
};

/**
 * Installs @p flag as the calling thread's stop flag for the scope's
 * lifetime and restores the previous one on exit. Worker threads
 * (SweepRunner, the chameleond pool) hold one for their whole life
 * and set the flag from another thread to stop the job they run; a
 * thread without a scope can never be stopped.
 */
class StopScope
{
  public:
    explicit StopScope(const std::atomic<bool> *flag);
    ~StopScope();

    StopScope(const StopScope &) = delete;
    StopScope &operator=(const StopScope &) = delete;

  private:
    const std::atomic<bool> *saved;
};

/**
 * Throw RunCancelled if the calling thread's stop flag is set. System
 * calls it every System::stopPollRefs references; job callables that
 * do not run a System (test stubs) call it to take the same exit.
 */
void throwIfStopRequested();

/**
 * The simulated machine.
 *
 * Thread-compatible, not thread-safe: a System and everything it owns
 * (devices, organization, OS, cores, streams) must stay on a single
 * thread. Parallel sweeps (sim/sweep_runner.hh) construct one System
 * per run; nothing is shared between runs except the log mutex.
 */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Load the paper's rate-mode workload: numCores copies of
     * @p profile, each owning footprint/numCores bytes, all
     * pre-allocated up front (§VI-B).
     */
    void loadRateWorkload(const AppProfile &profile);

    /** Load one (profile, footprint) pair per core. */
    void loadPerCoreWorkloads(const std::vector<AppProfile> &profiles);

    /**
     * Load recorded reference traces, one file per core (a single
     * path is replicated to every core with independent processes).
     * See workloads/trace_stream.hh for the format.
     */
    void loadTraceWorkload(const std::vector<std::string> &paths);

    /**
     * Run every core for @p instr_per_core measured instructions,
     * preceded by @p warmup_per_core instructions that warm caches,
     * remap tables and DRAM state but are excluded from the reported
     * statistics (the paper fast-forwards and warms before measuring,
     * §VI-A). Throws RunCancelled when the calling thread's stop flag
     * is set (see StopScope).
     */
    RunResult run(std::uint64_t instr_per_core,
                  std::uint64_t warmup_per_core = 0);

    /**
     * References between two polls of the stop flag in run(), about
     * 1 ms of host time.
     */
    static constexpr std::uint32_t stopPollRefs = 4096;

    MiniOs &os() { return *miniOs; }
    MemOrganization &organization() { return *org; }
    DramDevice *stackedDevice() { return stackedDev.get(); }
    DramDevice &offchipDevice() { return *offchipDev; }
    AutoNuma *autonumaDaemon() { return autoNuma.get(); }
    /** Null unless SystemConfig::oracle. */
    ShadowOracle *shadowOracle() { return oracle.get(); }
    /** Null unless SystemConfig::faults.enabled. */
    FaultInjector *faultInjector() { return injector.get(); }
    /** Null unless ObsConfig::traceEnabled(). */
    TraceSink *traceSink() { return sink.get(); }
    /** Always present; every component counter is named here. */
    MetricsRegistry &metricsRegistry() { return *registry; }
    const SystemConfig &config() const { return cfg; }

  private:
    void buildOrganization();
    /** Attach the trace sink and register every named metric. */
    void attachObservability();
    void registerMetrics();
    /**
     * Sample every metric into its Timeline and mirror the headline
     * gauges (hit rate, footprint, mode mix) into the sink's Chrome
     * counter tracks.
     */
    void snapshotMetrics(Cycle now);
    /** Periodic-snapshot gate driven from the runPhase loop. */
    void
    maybeSnapshot(Cycle now)
    {
        if (now >= nextSnapshotCycle) [[unlikely]] {
            snapshotMetrics(now);
            nextSnapshotCycle =
                now + cfg.obs.metricsIntervalCycles;
        }
    }
    /** Write --trace / --metrics output files (end of run()). */
    void writeObsOutputs();
    void runPhase(std::uint64_t retire_target);

    /**
     * Service pending segment-retirement requests from the injector:
     * the hardware evicts/relocates each group's data (retireAt), and
     * an ISA-Retire event tells the OS to evict and blacklist the
     * containing frame when the stacked range is OS-visible.
     */
    void drainRetirements(Cycle when);

    /** Empty every core's batch; called when streams are (re)loaded. */
    void resetBatches();

    SystemConfig cfg;
    std::unique_ptr<DramDevice> stackedDev;
    std::unique_ptr<DramDevice> offchipDev;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<MemOrganization> org;
    std::unique_ptr<ShadowOracle> oracle;
    std::unique_ptr<OracleIsaShim> isaShim;
    std::unique_ptr<MiniOs> miniOs;
    std::unique_ptr<AutoNuma> autoNuma;
    std::unique_ptr<TraceSink> sink;
    std::unique_ptr<MetricsRegistry> registry;
    /** Next cycle at which maybeSnapshot() fires. */
    Cycle nextSnapshotCycle = 0;

    /** Shadow key: (process, virtual address) packed into one Addr. */
    static Addr
    oracleKey(ProcId pid, Addr vaddr)
    {
        return ((static_cast<Addr>(pid) + 1) << 44) | vaddr;
    }

    std::vector<CoreModel> cores;
    std::vector<std::unique_ptr<AddressStream>> streams;
    std::vector<ProcId> procs;

    /**
     * References a core's stream produces per fill(). The batch
     * persists across phases, so the cores see the same references as
     * with one next() call each; a run's last batch is partly unused.
     * Chosen by measurement (BENCH_kernel.json, phase 2).
     */
    static constexpr std::uint32_t streamBatch = 256;
    /** Core c's batch is [c * streamBatch, (c + 1) * streamBatch). */
    std::vector<MemOp> batches;
    /** Next unread slot of each core's batch (streamBatch = empty). */
    std::vector<std::uint32_t> batchPos;

    /** Memory references between full oracle sweeps. */
    static constexpr std::uint64_t oracleSweepInterval = 1ull << 18;
    std::uint64_t oracleOps = 0;

    /** Whether the OS allocates frames in the stacked range. */
    bool stackedOsVisible = false;
    /** Cycle of the first segment retirement (noCycle = none). */
    static constexpr Cycle noRetireCycle = ~static_cast<Cycle>(0);
    Cycle firstRetireCycle = noRetireCycle;
};

} // namespace chameleon

#endif // CHAMELEON_SIM_SYSTEM_HH
