/**
 * @file
 * Cycle-accounting DRAM device model.
 *
 * The model tracks per-bank row-buffer state (open row, ready time,
 * activation time for tRAS) and per-channel data-bus occupancy, and
 * computes each request's completion time from those resources. It is
 * a latency/bandwidth-faithful reduction of a full DDR state machine:
 * FAW/command-bus contention are not modeled, but row locality, bank
 * parallelism, bus serialization and refresh blackouts — the effects
 * the paper's results hinge on — are.
 */

#ifndef CHAMELEON_DRAM_DRAM_DEVICE_HH
#define CHAMELEON_DRAM_DRAM_DEVICE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/timings.hh"

namespace chameleon
{

class FaultInjector;
class TraceSink;

/** Aggregated counters exposed by a DramDevice. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t refreshStalls = 0;
    /** ECC single-bit errors corrected in-line (fault injection). */
    std::uint64_t eccCorrected = 0;
    /** ECC double-bit errors detected (fault injection). */
    std::uint64_t eccUncorrectable = 0;
    /** Accesses delayed by an injected channel latency spike. */
    std::uint64_t spikeDelays = 0;
    /** Sum of (completion - arrival) over reads, CPU cycles. */
    std::uint64_t readLatencySum = 0;
    /** Total bytes moved over the data bus. */
    std::uint64_t bytesTransferred = 0;

    double
    avgReadLatency() const
    {
        return reads ? static_cast<double>(readLatencySum) /
                           static_cast<double>(reads)
                     : 0.0;
    }
};

/**
 * One DRAM pool (all channels of the stacked or off-chip memory).
 * Thread-compatible, not thread-safe; the simulator is single-threaded.
 */
class DramDevice
{
  public:
    explicit DramDevice(const DramTimings &timings);

    /**
     * Perform one 64B access.
     *
     * @param addr   Device-local physical byte address.
     * @param type   Read or write. Writes are posted: the returned
     *               completion is the end of the data transfer, but
     *               callers normally do not stall on it.
     * @param when   CPU cycle at which the request reaches the device.
     * @return CPU cycle at which the critical word is available.
     */
    Cycle access(Addr addr, AccessType type, Cycle when);

    /**
     * Charge a bulk transfer of @p bytes starting at @p when without a
     * requester waiting on it (segment swap / cache-fill traffic). The
     * blocks stream through the normal bank/bus path so they consume
     * real bandwidth (in-flight demand accesses are served from the
     * fast-swap buffers, §V-D1, so no request waits on the result).
     *
     * The swap engine drains opportunistically, stealing idle bus
     * slots; only every demandImpactStride-th block contends with
     * demand traffic (collisions), matching the paper's observation
     * that fast swaps barely perturb demand latency (§V-D1, §VI-F).
     * All bytes are still accounted in the bandwidth statistics.
     * Returns the completion cycle of the last block.
     */
    Cycle bulkTransfer(Addr addr, std::uint64_t bytes, AccessType type,
                       Cycle when);

    /** One in this many bulk blocks collides with demand traffic. */
    static constexpr std::uint32_t demandImpactStride = 8;

    /** Timing configuration this device was built with. */
    const DramTimings &timings() const { return cfg; }

    /** Device capacity in bytes. */
    std::uint64_t capacity() const { return cfg.capacity; }

    const DramStats &stats() const { return statsData; }
    void resetStats() { statsData = DramStats(); }

    /**
     * Attach a fault injector: every demand access is then run
     * through the ECC model (detect-and-correct single-bit, detect
     * double-bit) and the per-channel latency-spike model. @p node
     * tells the injector which site this device is.
     */
    void
    setFaultInjector(FaultInjector *injector, MemNode node)
    {
        faults = injector;
        faultNode = node;
    }

    /** Attach a trace sink (ECC / latency-spike events). */
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /** Convert memory-clock cycles to CPU cycles (rounded up). */
    Cycle
    memToCpu(double mem_cycles) const
    {
        return static_cast<Cycle>(mem_cycles * cpuPerMemClock + 0.5);
    }

    /** Unloaded row-hit read latency in CPU cycles (for reports). */
    Cycle idleHitLatency() const;

    /**
     * Current backlog estimate: how far the data buses are booked
     * past @p when, averaged over channels. Controllers use this to
     * defer low-priority traffic under load.
     */
    Cycle estimatedQueueDelay(Cycle when) const;

    /** Number of (channel, rank, bank) tuples. */
    std::uint32_t totalBanks() const
    {
        return cfg.channels * cfg.ranksPerChannel * cfg.banksPerRank;
    }

  private:
    struct Bank
    {
        std::uint64_t openRow = noRow;
        /** Earliest CPU cycle the next column command may issue. */
        Cycle readyAt = 0;
        /** CPU cycle of the last ACT, for the tRAS precharge bound. */
        Cycle activatedAt = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        /** CPU cycle the data bus frees up. */
        Cycle busFreeAt = 0;
    };

    static constexpr std::uint64_t noRow = ~static_cast<std::uint64_t>(0);

    /** Decompose a device-local address into channel/bank/row. */
    void mapAddress(Addr addr, std::uint32_t &channel,
                    std::uint32_t &bank, std::uint64_t &row) const;

    /** Apply the refresh blackout window to a candidate start time. */
    Cycle refreshAdjust(Cycle start);

    DramTimings cfg;
    FaultInjector *faults = nullptr;
    TraceSink *trace = nullptr;
    MemNode faultNode = MemNode::OffChip;
    double cpuPerMemClock;
    Cycle tCasCpu, tRcdCpu, tRpCpu, tRasCpu, tBurstCpu;
    Cycle tRfcCpu, tRefiCpu;
    /** Start of the tREFI window the last refreshAdjust() fell in. */
    Cycle refWinStart = 0;
    /** Address decode: channel and bank masks, row-sequence and row
     *  shifts (see mapAddress()). */
    Addr chanMask, bankMask;
    unsigned rowSeqShift, rowShift;
    std::vector<Channel> channels;
    DramStats statsData;
};

} // namespace chameleon

#endif // CHAMELEON_DRAM_DRAM_DEVICE_HH
