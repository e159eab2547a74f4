/**
 * @file
 * The mini-OS: processes, per-process page tables, demand paging to an
 * SSD model, and the ISA-Alloc/ISA-Free instrumentation points of
 * Algorithms 1 and 2.
 *
 * The OS is deliberately small but behaviourally faithful where the
 * paper depends on it: physical frames come from the two-zone
 * FrameAllocator; a page's physical placement never changes without an
 * explicit migration; when physical memory is exhausted a clock
 * second-chance scan evicts a resident page to swap and the faulting
 * access pays the Table I page-fault latency (100K cycles, SSD);
 * every frame allocation/free emits per-segment ISA notifications.
 *
 * Thread-compatible, not thread-safe: one MiniOs per System, never
 * shared across parallel sweep runs.
 */

#ifndef CHAMELEON_OS_MINI_OS_HH
#define CHAMELEON_OS_MINI_OS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "os/frame_allocator.hh"
#include "os/isa_hooks.hh"

namespace chameleon
{

class TraceSink;

/** Mini-OS construction parameters. */
struct OsConfig
{
    FrameAllocatorConfig frames;
    /** Major fault (swap-in from SSD) stall, CPU cycles (Table I). */
    Cycle majorFaultLatency = 100'000;
    /** Minor fault (demand-zero mapping) stall, CPU cycles. */
    Cycle minorFaultLatency = 3'000;
    /** Emit ISA-Alloc/ISA-Free notifications to the listener. */
    bool emitIsaHooks = true;
};

/** OS-level counters. */
struct OsStats
{
    std::uint64_t minorFaults = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t isaAllocs = 0;
    std::uint64_t isaFrees = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migrationFailures = 0;
    std::uint64_t thpAllocs = 0;
    std::uint64_t thpFallbacks = 0;
    /** ISA-Retire events handled (hardware segment retirement). */
    std::uint64_t isaRetires = 0;
};

/** Outcome of one address translation. */
struct Translation
{
    Addr phys = invalidAddr;
    /** Stall charged to the faulting access, CPU cycles. */
    Cycle stall = 0;
    bool majorFault = false;
    bool minorFault = false;
};

/**
 * The operating system model. One instance owns all physical memory
 * and all processes of a simulated machine.
 */
class MiniOs
{
  public:
    MiniOs(const OsConfig &config, IsaListener *listener = nullptr);

    /**
     * Create a process with @p footprint_bytes of virtual memory in
     * [0, footprint). Pages are mapped on first touch (minor fault)
     * unless preAllocate() is called.
     *
     * @param use_thp Allocate backing frames as 2MiB THPs where
     *                possible (Algorithm 1's GFP_TRANSHUGE path).
     */
    ProcId createProcess(std::string name, std::uint64_t footprint_bytes,
                         bool use_thp = false);

    /**
     * Eagerly map the whole footprint (the paper's workloads allocate
     * everything at startup, §VI-B). Pages beyond physical capacity
     * start swapped out.
     */
    void preAllocate(ProcId pid, Cycle when = 0);

    /** Tear down a process, freeing every frame (ISA-Free storm). */
    void destroyProcess(ProcId pid, Cycle when = 0);

    /**
     * Translate @p vaddr for @p pid, faulting pages in as needed.
     * Marks the page referenced (and dirty on writes).
     */
    Translation translate(ProcId pid, Addr vaddr, AccessType type,
                          Cycle when);

    /** Translate without side effects; nullopt if not resident. */
    std::optional<Addr> peekTranslate(ProcId pid, Addr vaddr) const;

    /**
     * Move one resident page to @p target zone (AutoNUMA migration).
     * Fails with false (-ENOMEM) if the target zone has no free frame.
     */
    bool migratePage(ProcId pid, std::uint64_t vpn, MemNode target,
                     Cycle when);

    /** Zone that currently backs @p pid's page, if resident. */
    std::optional<MemNode> pageNode(ProcId pid, std::uint64_t vpn) const;

    /**
     * ISA-Retire: the hardware reports the 4KiB frame at
     * @p frame_base as failed. Any page resident in it is evicted to
     * swap (it will major-fault back into a healthy frame on next
     * touch), then the frame is permanently blacklisted in the
     * allocator. Idempotent.
     */
    void isaRetire(Addr frame_base, Cycle when);

    /** Number of pages in @p pid's VA space. */
    std::uint64_t pageCount(ProcId pid) const;

    /** Read-only view of one page-table entry (tests, state digests). */
    struct PteView
    {
        Addr pfn;
        bool resident;
        bool onDisk;
    };

    PteView pteView(ProcId pid, std::uint64_t vpn) const;

    /** Call @p fn(pid, vpn) for each resident page in clock order. */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (const ClockEntry &e : residentList)
            if (e.valid)
                fn(e.pid, e.vpn);
    }

    FrameAllocator &allocator() { return frames; }
    const FrameAllocator &allocator() const { return frames; }

    std::uint64_t freeBytes() const { return frames.freeBytes(); }

    const OsStats &stats() const { return statsData; }
    const OsConfig &config() const { return cfg; }

    /**
     * Attach a trace sink; fault, reclaim, migration, retirement and
     * ISA events are recorded through it (also forwarded to the frame
     * allocator). Null detaches.
     */
    void setTraceSink(TraceSink *sink);

  private:
    /** One per virtual page; packed to 16 bytes. */
    struct Pte
    {
        Addr pfn = invalidAddr;
        /** Index into residentList, or ~0u. */
        std::uint32_t clockSlot = ~0u;
        bool resident : 1 = false;
        bool onDisk : 1 = false;
        bool dirty : 1 = false;
        bool referenced : 1 = false;
        /** Part of a THP mapping (frames freed chunk-wise). */
        bool huge : 1 = false;
    };
    static_assert(sizeof(Pte) == 16);

    struct Process
    {
        std::string name;
        std::uint64_t footprint = 0;
        bool useThp = false;
        bool alive = false;
        std::vector<Pte> ptes;
        /** Huge-page bases owned by this process (for teardown). */
        std::vector<Addr> hugeFrames;
    };

    /** One per resident page; vpn first so it packs to 16 bytes. */
    struct ClockEntry
    {
        std::uint64_t vpn = 0;
        ProcId pid = ~0u;
        bool valid = false;
    };
    static_assert(sizeof(ClockEntry) == 16);

    /** Allocate a frame, evicting a victim if memory is exhausted. */
    std::optional<Addr> obtainFrame(Cycle when, bool &evicted,
                                    std::optional<MemNode> zone =
                                        std::nullopt);

    /** Clock second-chance: evict one resident page, free its frame. */
    bool evictOnePage(Cycle when);

    void mapPage(Process &proc, ProcId pid, std::uint64_t vpn, Addr pfn,
                 bool huge);
    void unmapPage(Process &proc, std::uint64_t vpn);
    void addToClock(ProcId pid, std::uint64_t vpn, Pte &pte);
    void removeFromClock(Pte &pte);
    void compactClock();

    void emitAllocs(Addr page_base, std::uint64_t bytes, Cycle when);
    void emitFrees(Addr page_base, std::uint64_t bytes, Cycle when);

    Process &procRef(ProcId pid);
    const Process &procRef(ProcId pid) const;

    OsConfig cfg;
    FrameAllocator frames;
    IsaListener *isa;
    /** The listener's segment size, read once at boot. */
    std::uint64_t isaSegBytes;
    TraceSink *trace = nullptr;
    std::vector<Process> processes;
    std::vector<ClockEntry> residentList;
    std::size_t clockHand = 0;
    std::uint64_t invalidClockEntries = 0;
    OsStats statsData;
};

} // namespace chameleon

#endif // CHAMELEON_OS_MINI_OS_HH
