/**
 * @file
 * Physical-frame allocator for the mini-OS.
 *
 * Memory is split into two NUMA zones (stacked, off-chip) mirroring
 * the single-socket heterogeneous system of Fig 1b. A two-level
 * chunk/frame organization supports both 4KiB base pages and 2MiB
 * transparent huge pages (Algorithm 1's GFP_TRANSHUGE path): 2MiB
 * chunks are broken into 4KiB frames on demand and re-assembled by an
 * explicit compaction pass when a huge allocation would otherwise
 * fail, loosely following Linux's buddy + compaction behaviour.
 *
 * Placement policies:
 *  - Uniform:   chunks are handed out in a seeded-shuffled order over
 *               the whole physical space, modelling a long-running
 *               Linux free list with no NUMA preference. This is what
 *               PoM-visible organizations see and is what produces the
 *               paper's free-segment spread across segment groups.
 *  - FastFirst: "first-touch" NUMA policy — exhaust the stacked zone
 *               before spilling to off-chip (Fig 2a baseline).
 *  - SlowFirst: fill off-chip first (useful for adversarial tests).
 */

#ifndef CHAMELEON_OS_FRAME_ALLOCATOR_HH
#define CHAMELEON_OS_FRAME_ALLOCATOR_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace chameleon
{

class TraceSink;

/** Base page and huge page sizes (Linux x86-64 defaults). */
inline constexpr std::uint64_t pageBytes = 4_KiB;
inline constexpr std::uint64_t hugePageBytes = 2_MiB;
inline constexpr std::uint64_t framesPerChunk =
    hugePageBytes / pageBytes;

/** Frame placement policy. */
enum class AllocPolicy : std::uint8_t { Uniform, FastFirst, SlowFirst };

/** Allocator construction parameters. */
struct FrameAllocatorConfig
{
    std::uint64_t stackedBytes = 4_GiB;
    std::uint64_t offchipBytes = 20_GiB;
    AllocPolicy policy = AllocPolicy::Uniform;
    std::uint64_t seed = 42;
    /**
     * Free-space watermark on the stacked zone (Linux min_free
     * watermarks): policy-driven allocations spill to off-chip once
     * stacked free space drops to this level, but explicitly
     * zone-targeted requests (AutoNUMA migrations) may dip into it.
     */
    std::uint64_t stackedWatermarkBytes = 0;
};

/** Counters exposed by the allocator. */
struct FrameAllocatorStats
{
    std::uint64_t pageAllocs = 0;
    std::uint64_t pageFrees = 0;
    std::uint64_t hugeAllocs = 0;
    std::uint64_t hugeFrees = 0;
    std::uint64_t compactions = 0;
    std::uint64_t failedAllocs = 0;
    /** Frames permanently blacklisted after hardware retirement. */
    std::uint64_t retiredFrames = 0;
};

/** Two-zone physical memory allocator. */
class FrameAllocator
{
  public:
    explicit FrameAllocator(const FrameAllocatorConfig &config);

    /**
     * Allocate one 4KiB frame. @p zone restricts placement to one
     * NUMA zone (used by AutoNUMA migration); std::nullopt follows
     * the configured policy. Returns the frame base address, or
     * std::nullopt when the eligible zones are exhausted (-ENOMEM).
     */
    std::optional<Addr>
    allocPage(std::optional<MemNode> zone = std::nullopt)
    {
        // Inline so the optional is built in the caller's registers
        // (one per pre-mapped page at boot).
        const Addr frame = takePage(zone);
        if (frame == invalidAddr)
            return std::nullopt;
        return frame;
    }

    /** Allocate one 2MiB huge frame (compacting if needed). */
    std::optional<Addr> allocHuge(
        std::optional<MemNode> zone = std::nullopt);

    /** Release a 4KiB frame previously returned by allocPage. */
    void freePage(Addr base);

    /** Release a 2MiB frame previously returned by allocHuge. */
    void freeHuge(Addr base);

    /**
     * Split a live huge frame into 512 allocated 4KiB frames (Linux
     * THP split under reclaim). The frames stay allocated and become
     * individually freeable via freePage().
     */
    void splitHuge(Addr base);

    /** Total bytes currently free (both zones). */
    std::uint64_t freeBytes() const;

    /** Bytes currently free in @p zone. */
    std::uint64_t freeBytesInZone(MemNode zone) const;

    /** Total capacity in bytes. */
    std::uint64_t
    capacity() const
    {
        return cfg.stackedBytes + cfg.offchipBytes;
    }

    /** Zone a physical address belongs to. */
    MemNode
    nodeOf(Addr phys) const
    {
        return phys < cfg.stackedBytes ? MemNode::Stacked
                                       : MemNode::OffChip;
    }

    /** True if the 4KiB frame at @p base is currently allocated. */
    bool isAllocated(Addr base) const;

    /**
     * Permanently blacklist the free 4KiB frame at @p base (hardware
     * segment retirement): it leaves the free lists and is never
     * handed out again, and its chunk can never be re-assembled into
     * a huge page. The frame must not be in use — the OS evicts any
     * resident page before retiring. Idempotent. @p when timestamps
     * the trace event if a sink is attached.
     */
    void retireFrame(Addr base, Cycle when = 0);

    /** True if the frame at @p base has been retired. */
    bool isRetired(Addr base) const;

    const FrameAllocatorStats &stats() const { return statsData; }
    const FrameAllocatorConfig &config() const { return cfg; }

    /** Attach a trace sink (frame-retirement events). Null detaches. */
    void setTraceSink(TraceSink *sink) { trace = sink; }

  private:
    enum class ChunkState : std::uint8_t
    {
        Free,       ///< Wholly free, on the chunk free list.
        Broken,     ///< Split into 4KiB frames.
        HugeInUse,  ///< Allocated as one 2MiB huge page.
    };

    enum class FrameState : std::uint8_t { Free, InUse, Retired };

    struct Zone
    {
        /** Chunk ids (global) that are wholly free, pop from back. */
        std::vector<std::uint64_t> freeChunks;
        /** Frame base addresses free inside broken chunks. */
        std::vector<Addr> freeFrames;
        std::uint64_t freePageCount = 0;
    };

    std::uint64_t chunkOf(Addr addr) const { return addr / hugePageBytes; }
    std::uint64_t frameOf(Addr addr) const { return addr / pageBytes; }
    Zone &zoneRef(MemNode node);
    const Zone &zoneRef(MemNode node) const;
    MemNode chunkNode(std::uint64_t chunk) const;

    /** allocPage's body: the frame, or invalidAddr on -ENOMEM. */
    Addr takePage(std::optional<MemNode> zone);

    /** Break a wholly free chunk of @p zone into frames. */
    bool breakChunk(MemNode node);

    /** Re-assemble fully-free broken chunks in @p zone. */
    void compact(MemNode node);

    /** Zones one allocation probes, in order (no heap storage). */
    struct ZoneOrder
    {
        std::array<MemNode, 2> nodes;
        std::size_t count;

        const MemNode *begin() const { return nodes.data(); }
        const MemNode *end() const { return nodes.data() + count; }
    };

    /**
     * Probe order: @p zone alone when given, else the configured
     * policy's order (one policyRng draw per Uniform call).
     */
    ZoneOrder zoneOrder(std::optional<MemNode> zone);

    FrameAllocatorConfig cfg;
    TraceSink *trace = nullptr;
    Rng policyRng{1};
    Zone stackedZone;
    Zone offchipZone;
    std::vector<ChunkState> chunkStates;
    std::vector<std::uint16_t> chunkFreeFrames;
    std::vector<FrameState> frameStates;
    FrameAllocatorStats statsData;
};

} // namespace chameleon

#endif // CHAMELEON_OS_FRAME_ALLOCATOR_HH
