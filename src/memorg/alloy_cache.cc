#include "memorg/alloy_cache.hh"

#include "common/log.hh"

namespace chameleon
{

AlloyCache::AlloyCache(DramDevice *stacked_dev, DramDevice *offchip_dev,
                       const AlloyConfig &config)
    : MemOrganization(stacked_dev, offchip_dev), cfg(config)
{
    if (!stacked)
        fatal("AlloyCache: needs a stacked device");
    if (cfg.lineBytes != 64)
        fatal("AlloyCache: only 64B lines are supported");
    const auto usable = static_cast<std::uint64_t>(
        static_cast<double>(stacked->capacity()) * cfg.tadEfficiency);
    lines.resize(usable / cfg.lineBytes);
    if (lines.empty())
        fatal("AlloyCache: stacked capacity too small");
    if (cfg.predictorEntries != 0 && !isPowerOf2(cfg.predictorEntries))
        fatal("AlloyCache: predictorEntries %u must be 0 or a power of "
              "two",
              cfg.predictorEntries);
    predictorMask = cfg.predictorEntries ? cfg.predictorEntries - 1 : 0;
    // Start weakly predicting hit (2 on the 0..3 scale).
    predictor.assign(cfg.predictorEntries ? cfg.predictorEntries : 1,
                     2);
}

bool
AlloyCache::predictHit(Addr phys) const
{
    if (cfg.predictorEntries == 0)
        return true; // always-serial fallback
    return predictor[(phys >> 12) & predictorMask] >= 2;
}

void
AlloyCache::trainPredictor(Addr phys, bool hit)
{
    if (cfg.predictorEntries == 0)
        return;
    std::uint8_t &ctr = predictor[(phys >> 12) & predictorMask];
    if (hit && ctr < 3)
        ++ctr;
    else if (!hit && ctr > 0)
        --ctr;
}

std::uint64_t
AlloyCache::osVisibleBytes() const
{
    // Caches duplicate data: only the off-chip pool is OS-visible.
    return offchip->capacity();
}

const char *
AlloyCache::name() const
{
    return "alloy-cache";
}

Addr
AlloyCache::resolveLocation(Addr phys) const
{
    const Slot slot = slotOf(phys);
    if (lines[slot.index].holds(slot.tag))
        return stackedLoc(slot.index << lineShift);
    return offchipLoc(phys);
}

MemAccessResult
AlloyCache::access(Addr phys, AccessType type, Cycle when)
{
    if (phys >= osVisibleBytes())
        panic("alloy-cache: access %#llx beyond OS-visible space",
              static_cast<unsigned long long>(phys));

    const Slot slot = slotOf(phys);
    const Addr line_home = phys & ~(cfg.lineBytes - 1);
    const Addr slot_addr = slot.index << lineShift;
    Line &line = lines[slot.index];

    MemAccessResult result;
    const bool predicted_hit = predictHit(phys);
    // The TAD probe streams tag+data in one stacked access.
    const Cycle probe_done = stackedAccess(slot_addr, type, when);

    if (line.holds(slot.tag)) {
        if (!predicted_hit) {
            // MAP mispredicted miss: the speculative off-chip read
            // was issued in parallel and its bandwidth is wasted.
            offchipAccess(line_home, AccessType::Read, when);
        }
        trainPredictor(phys, true);
        result.stackedHit = true;
        result.done = probe_done;
        if (type == AccessType::Write)
            line.word |= Line::dirtyBit;
        recordDemand(type, when, result.done, true);
        return result;
    }

    // Miss: a predicted miss overlapped the off-chip access with the
    // TAD probe; a predicted hit pays the serial probe-then-fetch.
    trainPredictor(phys, false);
    result.stackedHit = false;
    const Cycle offchip_issue = predicted_hit ? probe_done : when;
    result.done =
        offchipAccess(line_home, AccessType::Read, offchip_issue);

    // Victim writeback (posted).
    if (line.valid() && line.dirty()) {
        const Addr victim_home = lineHomeAddr(slot.index);
        offchipAccess(victim_home, AccessType::Write, result.done);
        funcCopy(stackedLoc(slot_addr), offchipLoc(victim_home),
                 cfg.lineBytes);
        ++statsData.writebacks;
    }

    // Fill the TAD (posted).
    stackedAccess(slot_addr, AccessType::Write, result.done);
    funcCopy(offchipLoc(line_home), stackedLoc(slot_addr),
             cfg.lineBytes);
    line.word = Line::validBit | slot.tag |
                (type == AccessType::Write ? Line::dirtyBit : 0);
    ++statsData.fills;

    recordDemand(type, when, result.done, false);
    return result;
}

} // namespace chameleon
