/**
 * @file
 * Trace-driven core timing model.
 *
 * Each core retires compute instructions at CPI 1 and issues its
 * stream's memory references through a bounded outstanding-miss
 * window (MLP model): up to maxOutstanding read misses may overlap;
 * issuing past the window stalls the core until the oldest completes,
 * the way a full ROB/MSHR file would. Writes are posted (they consume
 * memory bandwidth but do not block retirement). Page faults block
 * the core outright, matching the uninterruptible "D" state the
 * paper's Fig 5 analysis describes.
 *
 * Thread-compatible, not thread-safe: cores belong to one System and
 * its thread.
 */

#ifndef CHAMELEON_CPU_CORE_MODEL_HH
#define CHAMELEON_CPU_CORE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace chameleon
{

/** Core tuning parameters. */
struct CoreConfig
{
    /** Maximum overlapped outstanding read misses (MLP). */
    std::uint32_t maxOutstanding = 2;
};

/** One hardware context. */
class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &config = CoreConfig())
        : cfg(config)
    {
        outstanding.reserve(cfg.maxOutstanding);
    }

    /** Core-local current cycle. */
    Cycle now() const { return clock; }

    /** Instructions retired so far. */
    std::uint64_t retired() const { return instrRetired; }

    /** Cycles spent blocked on page faults. */
    Cycle faultStall() const { return faultStallCycles; }

    /** Retire @p n compute instructions (CPI 1). */
    void
    retireCompute(std::uint64_t n)
    {
        clock += n;
        instrRetired += n;
    }

    /**
     * Reserve a window slot for a read miss; returns the cycle the
     * request can issue (stalls the core if the window is full).
     */
    Cycle
    issueRead()
    {
        // The window is a few entries wide: a linear scan for the
        // earliest completion beats a heap.
        while (outstanding.size() >= cfg.maxOutstanding) {
            const auto first = std::min_element(outstanding.begin(),
                                                outstanding.end());
            clock = std::max(clock, *first);
            *first = outstanding.back();
            outstanding.pop_back();
        }
        return clock;
    }

    /** Record the completion time of an issued read miss. */
    void
    completeRead(Cycle done)
    {
        outstanding.push_back(done);
        ++instrRetired;
        ++clock;
    }

    /** A posted write retires immediately. */
    void
    retireWrite()
    {
        ++instrRetired;
        ++clock;
    }

    /** Block the core for @p cycles (page fault). */
    void
    blockFor(Cycle cycles)
    {
        clock += cycles;
        faultStallCycles += cycles;
    }

    /** Wait for all outstanding misses (end of run). */
    void
    drain()
    {
        for (const Cycle done : outstanding)
            clock = std::max(clock, done);
        outstanding.clear();
    }

    /** Retired-instruction IPC at the current clock. */
    double
    ipc() const
    {
        return clock ? static_cast<double>(instrRetired) /
                           static_cast<double>(clock)
                     : 0.0;
    }

  private:
    CoreConfig cfg;
    Cycle clock = 0;
    std::uint64_t instrRetired = 0;
    Cycle faultStallCycles = 0;
    /** Completion cycles of the in-flight read misses, unordered. */
    std::vector<Cycle> outstanding;
};

} // namespace chameleon

#endif // CHAMELEON_CPU_CORE_MODEL_HH
