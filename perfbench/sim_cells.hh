/**
 * @file
 * One simulation cell as the benchmark runs it: untimed-by-the-program
 * System construction + workload load, then either System::run (the
 * untraced path users call) or a traced replay of System::runPhase's
 * per-reference sequence through the System's public accessors, with
 * steady-clock pairs around each layer call.
 *
 * The replay is the same program: for every cell its end counters must
 * equal those of the untraced run (sameOutcome), or the run fails.
 */

#ifndef PERFBENCH_SIM_CELLS_HH
#define PERFBENCH_SIM_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

namespace perfbench
{

/** One (configuration, application) rate-mode run. */
struct CellSpec
{
    std::string design; ///< row label (design, or design + variant)
    chameleon::SystemConfig cfg;
    chameleon::AppProfile profile;
    std::uint64_t instr = 0;
    std::uint64_t warmup = 0;
};

/** Build a cell exactly as runRateWorkload(cfg, profile, opts) would. */
CellSpec makeCell(std::string label, const chameleon::SystemConfig &cfg,
                  const chameleon::AppProfile &profile,
                  const chameleon::BenchOptions &opts);

/** Simulated end state of one cell plus the host time it took. */
struct CellOutcome
{
    chameleon::RunResult result;
    chameleon::MemOrgStats org;
    chameleon::OsStats os;
    chameleon::DramStats stacked;
    chameleon::DramStats offchip;
    std::uint64_t autonumaMigrations = 0;
    std::size_t autonumaEpochs = 0;

    /** System construction + loadRateWorkload. */
    double setupS = 0.0;
    /** The simulation itself (run(), or the replayed phases). */
    double runS = 0.0;
    /** Construction to destruction. */
    double cellS = 0.0;
    Clock::time_point start{};
    Clock::time_point end{};
};

/**
 * Host time the traced replay attributed to each layer. Layer calls
 * are timed on one reference in kLayerSampleEvery; phaseNs covers every
 * reference.
 */
struct LayerTimes
{
    static constexpr std::uint64_t kLayerSampleEvery = 8;

    std::uint64_t refs = 0;
    std::uint64_t sampledRefs = 0;
    /** Sampled references that also called the AutoNUMA daemon. */
    std::uint64_t sampledAutonuma = 0;
    std::uint64_t nextNs = 0;
    std::uint64_t translateNs = 0;
    std::uint64_t autonumaNs = 0;
    std::uint64_t accessNs = 0;
    std::uint64_t phaseNs = 0;

    void merge(const LayerTimes &o);
};

/** Untraced: System::run, the path every bench and the daemon take. */
CellOutcome runCell(const CellSpec &spec);

/** Traced replay of the same cell. */
CellOutcome replayCell(const CellSpec &spec, LayerTimes &times);

/** True when every simulated statistic of @p a equals @p b's. */
bool sameOutcome(const CellOutcome &a, const CellOutcome &b);

/**
 * Per-layer metrics of a traced replay: per-reference self times, the
 * loop residual, and the simulated OS / memorg / DRAM counters summed
 * over @p outcomes.
 */
void reportLayers(Report &report, const LayerTimes &times,
                  const std::vector<CellOutcome> &outcomes);

} // namespace perfbench

#endif // PERFBENCH_SIM_CELLS_HH
