#include "memorg/pom.hh"

#include "common/log.hh"
#include "fault/fault_injector.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

PomMemory::PomMemory(DramDevice *stacked_dev, DramDevice *offchip_dev,
                     const PomConfig &config)
    : MemOrganization(stacked_dev, offchip_dev), cfg(config),
      segSpace(stacked_dev ? stacked_dev->capacity() : 0,
               offchip_dev->capacity(), config.segmentBytes),
      table(segSpace.numGroups()), retiredG(segSpace.numGroups(), 0)
{
    if (!stacked)
        fatal("PomMemory: needs a stacked device");
    if (cfg.srtCacheEntries > 0)
        srtCache.assign(cfg.srtCacheEntries,
                        ~static_cast<std::uint64_t>(0));
}

Cycle
PomMemory::srtLookup(std::uint64_t group, Cycle when)
{
    Cycle ready = when + cfg.srtLatency;
    if (faults) {
        // The remapping metadata is ECC-protected like data. A
        // correctable hit re-fetches the entry from its stored copy
        // in stacked DRAM; an uncorrectable one loses the entry and
        // the group's stacked segment is queued for retirement (the
        // slot assignment is rebuilt from the segments' self-identity
        // during the retirement readout).
        switch (faults->srtSample(group, when)) {
          case MetaOutcome::Corrected:
            TraceSink::emit(trace, when, TraceKind::SrrtCorrected,
                            group);
            ready = stacked->access((group * 64) % stacked->capacity(),
                                    AccessType::Read, ready);
            break;
          case MetaOutcome::Uncorrectable:
            TraceSink::emit(trace, when, TraceKind::SrrtUncorrectable,
                            group);
            ready += faults->correctionLatency();
            break;
          case MetaOutcome::None:
            break;
        }
    }
    if (srtCache.empty())
        return ready; // ideal SRAM table
    const std::size_t idx = group % srtCache.size();
    if (srtCache[idx] == group) {
        ++srtHits;
        return ready;
    }
    ++srtMisses;
    srtCache[idx] = group;
    // Fetch the SRT entry from the stacked DRAM metadata region
    // before the data access can be routed ([25] stores the SRT in
    // stacked DRAM). The metadata row is derived from the group id.
    const Addr meta = (group * 64) % stacked->capacity();
    return stacked->access(meta, AccessType::Read, ready);
}

bool
PomMemory::retireAt(Addr phys, Cycle when)
{
    const std::uint64_t group = segSpace.groupOf(phys);
    if (retiredG[group])
        return false;
    SrtEntry &e = table[group];
    // Put logical 0 into the stacked slot: its OS-visible home frame
    // is the one the OS blacklists, so the dead storage ends up
    // holding the segment nothing will reference again. inv[0] != 0
    // implies perm[0] != 0, so the swap is never degenerate.
    if (e.inv[0] != 0)
        hotSwap(group, 0, e.inv[0], when);
    e.counter = 0;
    e.candidate = 0;
    retiredG[group] = 1;
    ++retiredCount;
    TraceSink::emit(trace, when, TraceKind::SegmentRetired, group);
    return true;
}

std::uint64_t
PomMemory::osVisibleBytes() const
{
    return segSpace.osVisibleBytes();
}

const char *
PomMemory::name() const
{
    return "pom";
}

std::uint64_t
PomMemory::isaSegmentBytes() const
{
    return cfg.segmentBytes;
}

Addr
PomMemory::slotLocation(std::uint64_t group,
                        std::uint32_t phys_slot) const
{
    const Addr dev = segSpace.deviceAddr(group, phys_slot);
    return SegmentSpace::slotIsStacked(phys_slot) ? stackedLoc(dev)
                                                  : offchipLoc(dev);
}

Addr
PomMemory::resolveLocation(Addr phys) const
{
    const std::uint64_t group = segSpace.groupOf(phys);
    const std::uint32_t logical = segSpace.slotOf(phys);
    const std::uint32_t slot = table[group].perm[logical];
    const Addr seg_off = segSpace.offsetOf(phys);
    return slotLocation(group, slot) + seg_off;
}

Cycle
PomMemory::slotAccess(std::uint64_t group, std::uint32_t phys_slot,
                      Addr seg_offset, AccessType type, Cycle when)
{
    const Addr dev = segSpace.deviceAddr(group, phys_slot) + seg_offset;
    return SegmentSpace::slotIsStacked(phys_slot)
               ? stackedAccess(dev, type, when)
               : offchipAccess(dev, type, when);
}

void
PomMemory::hotSwap(std::uint64_t group, std::uint32_t a,
                   std::uint32_t b, Cycle when)
{
    SrtEntry &e = table[group];
    const std::uint32_t pa = e.perm[a];
    const std::uint32_t pb = e.perm[b];
    if (pa == pb)
        panic("pom: degenerate swap in group %llu",
              static_cast<unsigned long long>(group));

    // Fast-swap traffic: each side is read out and the other side's
    // data written in. In-flight demand accesses are served from the
    // swap buffers (§V-D1), so only bandwidth is charged.
    const Addr dev_a = segSpace.deviceAddr(group, pa);
    const Addr dev_b = segSpace.deviceAddr(group, pb);
    auto charge = [&](std::uint32_t slot, Addr dev) {
        DramDevice *d = SegmentSpace::slotIsStacked(slot) ? stacked
                                                          : offchip;
        d->bulkTransfer(dev, cfg.segmentBytes, AccessType::Read, when);
        d->bulkTransfer(dev, cfg.segmentBytes, AccessType::Write, when);
    };
    charge(pa, dev_a);
    charge(pb, dev_b);

    funcSwap(slotLocation(group, pa), slotLocation(group, pb),
             cfg.segmentBytes);
    e.swapLogical(a, b);
    ++statsData.swaps;
    TraceSink::emit(trace, when, TraceKind::HotSwap, group, a, b);
}

void
PomMemory::moveSegment(std::uint64_t group, std::uint32_t l,
                       std::uint32_t dst, Cycle when)
{
    SrtEntry &e = table[group];
    const std::uint32_t src_slot = e.perm[l];
    const std::uint32_t dst_slot = e.perm[dst];
    if (src_slot == dst_slot)
        return;

    // One-directional move: read the live segment, write it to the
    // destination slot (whose contents are dead).
    DramDevice *src_dev = SegmentSpace::slotIsStacked(src_slot)
                              ? stacked
                              : offchip;
    DramDevice *dst_dev = SegmentSpace::slotIsStacked(dst_slot)
                              ? stacked
                              : offchip;
    src_dev->bulkTransfer(segSpace.deviceAddr(group, src_slot),
                          cfg.segmentBytes, AccessType::Read, when);
    dst_dev->bulkTransfer(segSpace.deviceAddr(group, dst_slot),
                          cfg.segmentBytes, AccessType::Write, when);

    funcMove(slotLocation(group, src_slot),
             slotLocation(group, dst_slot), cfg.segmentBytes);
    e.swapLogical(l, dst);
    ++statsData.isaMoves;
    TraceSink::emit(trace, when, TraceKind::SegmentMove, group, l, dst);
}

PomMemory::BurstRel
PomMemory::burstRelation(SrtEntry &e, Addr phys) const
{
    // Burst granularity: a sequential walk through a segment counts
    // once (streaming), while non-contiguous re-references (temporal
    // reuse) each count.
    const std::uint64_t block = phys / 64;
    BurstRel rel;
    if (block == e.lastBlock)
        rel = BurstRel::Repeat;
    else if (block == e.lastBlock + 1)
        rel = BurstRel::SeqAdvance;
    else
        rel = BurstRel::Fresh;
    e.lastBlock = block;
    return rel;
}

void
PomMemory::counterDefend(std::uint64_t group, Addr phys)
{
    if (!cfg.enableHotSwaps || !cfg.burstCounter)
        return;
    SrtEntry &e = table[group];
    // Sequential advances are one streaming event; both fresh bursts
    // and temporal repeats are separate re-reference evidence.
    if (burstRelation(e, phys) == BurstRel::SeqAdvance)
        return;
    if (e.counter > 0)
        --e.counter;
}

void
PomMemory::counterUpdate(std::uint64_t group, std::uint32_t logical,
                         Addr phys, Cycle when)
{
    if (!cfg.enableHotSwaps || retiredG[group])
        return;
    SrtEntry &e = table[group];
    if (cfg.burstCounter &&
        burstRelation(e, phys) == BurstRel::SeqAdvance)
        return;
    if (e.counter == 0) {
        e.candidate = static_cast<std::uint8_t>(logical);
        e.counter = 1;
        return;
    }
    if (e.candidate == logical) {
        if (++e.counter >= cfg.swapThreshold) {
            // Swap the elected segment with the current stacked
            // resident.
            hotSwap(group, logical, e.inv[0], when);
            e.counter = 0;
            e.candidate = 0;
        }
    } else {
        --e.counter;
    }
}

MemAccessResult
PomMemory::access(Addr phys, AccessType type, Cycle when)
{
    if (phys >= osVisibleBytes())
        panic("%s: access %#llx beyond OS-visible space", name(),
              static_cast<unsigned long long>(phys));

    const std::uint64_t group = segSpace.groupOf(phys);
    const std::uint32_t logical = segSpace.slotOf(phys);
    const Addr seg_off = segSpace.offsetOf(phys);
    const std::uint32_t slot = table[group].perm[logical];

    MemAccessResult result;
    // Every access first consults the remapping table.
    const Cycle issue = srtLookup(group, when);
    result.done = slotAccess(group, slot, seg_off, type, issue);
    result.stackedHit = SegmentSpace::slotIsStacked(slot);
    recordDemand(type, when, result.done, result.stackedHit);

    if (result.stackedHit)
        counterDefend(group, phys);
    else
        counterUpdate(group, logical, phys, result.done);
    return result;
}

} // namespace chameleon
