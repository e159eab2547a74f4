/**
 * @file
 * PoM — Transparent Hardware Management of Stacked DRAM as Part of
 * Memory (Sim et al., MICRO 2014) — the paper's baseline.
 *
 * Both memories are OS-visible. A Segment Remapping Table (one entry
 * per segment group) tracks which logical segment currently occupies
 * each physical slot; a per-group competing counter (an MEA-style
 * majority element sketch) elects the hottest off-chip segment, and
 * once it accumulates swapThreshold wins it is swapped with the
 * segment in the group's stacked slot via the fast-swap path (local
 * buffers: in-flight accesses are not stalled, but the segment-sized
 * transfers consume real bandwidth on both memories, §V-D1).
 */

#ifndef CHAMELEON_MEMORG_POM_HH
#define CHAMELEON_MEMORG_POM_HH

#include <array>
#include <vector>

#include "memorg/mem_organization.hh"
#include "memorg/segment_space.hh"

namespace chameleon
{

/** PoM (and derived designs) tuning. */
struct PomConfig
{
    /** Segment size; 2KiB in [25], 64B gives CAMEO-like behaviour. */
    std::uint64_t segmentBytes = 2_KiB;
    /** Competing-counter wins that elect a segment for a hot swap.
     *  The baseline PoM counts every access ([25]'s design), so a
     *  sequential pass over a 2KiB segment can reach the threshold by
     *  itself — this is precisely the "swaps interfere with demand"
     *  behaviour (§I) that Chameleon's cache mode escapes. With
     *  burstCounter set, the counter instead advances once per burst
     *  and the stacked resident defends its slot. */
    std::uint32_t swapThreshold = 8;
    /** Count once per burst instead of once per access, and let the
     *  stacked resident defend its slot (an ablation strengthening
     *  of [25]; see bench/ablation_counter). Chameleon's cache-mode
     *  fill machinery uses burst tracking regardless of this flag. */
    bool burstCounter = false;
    /** Remapping-table (SRT cache) lookup latency, CPU cycles. */
    Cycle srtLatency = 6;
    /**
     * Entries in the on-chip SRT cache. 0 models an ideal SRAM table
     * (every lookup costs srtLatency). Non-zero models [25]'s real
     * design: SRT entries live in stacked DRAM and only cached
     * entries cost srtLatency — a miss pays a stacked DRAM access to
     * fetch the entry before the data access can issue.
     */
    std::uint32_t srtCacheEntries = 0;
    /** Enable PoM-mode hot swapping (off for Polymorphic memory). */
    bool enableHotSwaps = true;
    /**
     * Cache-mode fill reuse filter: require one prior (non-adjacent)
     * reuse burst on a segment before paying its 2KiB fill, so
     * zero-reuse access patterns do not amplify traffic 32x. This is
     * the cache-mode analogue of the fast-swap buffers' thrash
     * protection; Chameleon still adapts a whole swap-threshold
     * faster than PoM (see DESIGN.md, deviations).
     */
    bool cacheFillReuseFilter = true;
};

/**
 * One SRT entry: the logical->physical slot permutation plus the
 * competing counter. Chameleon augments this with the Fig 7 fields
 * (ABV / mode / dirty) in core/srrt.hh.
 */
struct SrtEntry
{
    /** perm[logical] = physical slot currently holding it. */
    std::array<std::uint8_t, maxSlotsPerGroup> perm;
    /** inv[physical] = logical slot stored there (inverse of perm). */
    std::array<std::uint8_t, maxSlotsPerGroup> inv;
    /** Competing-counter candidate (logical slot) and count. */
    std::uint8_t candidate = 0;
    std::uint16_t counter = 0;
    /** Last off-chip-served 64B block (sequential-burst detection). */
    std::uint64_t lastBlock = ~0ull;

    SrtEntry()
    {
        for (std::uint32_t i = 0; i < maxSlotsPerGroup; ++i)
            perm[i] = inv[i] = static_cast<std::uint8_t>(i);
    }

    /** Exchange the physical locations of logical slots a and b. */
    void
    swapLogical(std::uint32_t a, std::uint32_t b)
    {
        const std::uint8_t pa = perm[a];
        const std::uint8_t pb = perm[b];
        perm[a] = pb;
        perm[b] = pa;
        inv[pa] = static_cast<std::uint8_t>(b);
        inv[pb] = static_cast<std::uint8_t>(a);
    }
};

/** The PoM baseline organization. */
class PomMemory : public MemOrganization
{
  public:
    PomMemory(DramDevice *stacked, DramDevice *offchip,
              const PomConfig &config = PomConfig());

    std::uint64_t osVisibleBytes() const override;
    MemAccessResult access(Addr phys, AccessType type,
                           Cycle when) override;
    const char *name() const override;
    std::uint64_t isaSegmentBytes() const override;

    const SegmentSpace &space() const { return segSpace; }
    const PomConfig &pomConfig() const { return cfg; }

    /**
     * Retire a group's stacked segment: make sure logical 0 occupies
     * the dead stacked slot (its home frame is what the OS
     * blacklists), then pin the group — no further hot swaps. All
     * slots keep resolving, so any straggler access still completes.
     */
    bool retireAt(Addr phys, Cycle when) override;
    std::uint64_t retiredSegmentCount() const override
    {
        return retiredCount;
    }

    /** True once @p group's stacked segment has been retired. */
    bool
    groupRetired(std::uint64_t group) const
    {
        return retiredG[group] != 0;
    }

    /** SRT entry inspection (tests/benches). */
    const SrtEntry &entry(std::uint64_t group) const
    {
        return table[group];
    }

  protected:
    Addr resolveLocation(Addr phys) const override;

    /** Device location of (group, physical slot). */
    Addr slotLocation(std::uint64_t group, std::uint32_t phys_slot) const;

    /**
     * Functionally clear one physical slot's segment. With the layer
     * off (timing runs) this skips even the slot-location math, which
     * the ISA-Alloc/ISA-Free storm of every boot would otherwise pay.
     */
    void
    clearSlotData(std::uint64_t group, std::uint32_t phys_slot)
    {
        if (functionalEnabled())
            funcClear(slotLocation(group, phys_slot), cfg.segmentBytes);
    }

    /** Timed 64B access to a physical slot's storage. */
    Cycle slotAccess(std::uint64_t group, std::uint32_t phys_slot,
                     Addr seg_offset, AccessType type, Cycle when);

    /**
     * Fast-swap the physical contents of logical slots @p a and @p b
     * of @p group, charging segment-sized traffic to both devices and
     * updating the SRT. Counted in stats.swaps.
     */
    void hotSwap(std::uint64_t group, std::uint32_t a, std::uint32_t b,
                 Cycle when);

    /**
     * One-directional segment move of logical @p l to the physical
     * slot currently assigned to logical @p dst (whose data is dead).
     * Used by Chameleon's ISA-triggered proactive remaps.
     */
    void moveSegment(std::uint64_t group, std::uint32_t l,
                     std::uint32_t dst, Cycle when);

    /** Competing-counter update after an off-chip service. */
    void counterUpdate(std::uint64_t group, std::uint32_t logical,
                       Addr phys, Cycle when);

    /**
     * Charge the SRT lookup for @p group: srtLatency on an SRT-cache
     * hit, plus a stacked-DRAM metadata access on a miss. Returns the
     * cycle at which the data access may issue.
     */
    Cycle srtLookup(std::uint64_t group, Cycle when);

    /**
     * Stacked-resident defense: a (new-burst) hit on the stacked
     * resident decrements the challenger's counter, so a swap only
     * happens when the challenger genuinely out-references the
     * segment it would displace (the "competing counter" of [25]).
     */
    void counterDefend(std::uint64_t group, Addr phys);

    /** Relation of an access to the previous one in its group. */
    enum class BurstRel : std::uint8_t
    {
        Repeat,     ///< same 64B block again (temporal re-reference)
        SeqAdvance, ///< next sequential block (spatial streaming)
        Fresh,      ///< discontinuous: a new burst begins
    };

    /** Shared burst detector for the competing counter. */
    BurstRel burstRelation(SrtEntry &e, Addr phys) const;

    /** True when the access starts a new burst (not a continuation). */
    bool
    newBurst(SrtEntry &e, Addr phys) const
    {
        return burstRelation(e, phys) == BurstRel::Fresh;
    }

    PomConfig cfg;
    SegmentSpace segSpace;
    std::vector<SrtEntry> table;

    /** Per-group retired flag (the stacked slot's storage is dead). */
    std::vector<std::uint8_t> retiredG;
    std::uint64_t retiredCount = 0;

    /** Direct-mapped SRT cache: group id per entry (or ~0). */
    std::vector<std::uint64_t> srtCache;
    std::uint64_t srtHits = 0;
    std::uint64_t srtMisses = 0;

  public:
    std::uint64_t srtCacheHits() const { return srtHits; }
    std::uint64_t srtCacheMisses() const { return srtMisses; }
};

} // namespace chameleon

#endif // CHAMELEON_MEMORG_POM_HH
