#include "workloads/stream_gen.hh"

#include <algorithm>

#include "common/log.hh"

namespace chameleon
{

namespace
{

/** @p p, once the knobs the generator relies on are checked. */
const AppProfile &
validated(const AppProfile &p)
{
    if (p.llcMpki <= 0.0)
        fatal("SyntheticStream(%s): MPKI must be positive",
              p.name.c_str());
    // With both fractions in [0, 1], the hot window, one hot pick and
    // one phase step each fit in the footprint, so a single
    // conditional subtraction wraps their sums.
    if (!(p.hotFraction >= 0.0 && p.hotFraction <= 1.0) ||
        !(p.phaseShiftFraction >= 0.0 && p.phaseShiftFraction <= 1.0))
        fatal("SyntheticStream(%s): hotFraction and phaseShiftFraction "
              "must lie in [0, 1]",
              p.name.c_str());
    return p;
}

} // namespace

SyntheticStream::SyntheticStream(const AppProfile &profile,
                                 std::uint64_t footprint_bytes,
                                 std::uint64_t seed)
    : prof(validated(profile)), rng(seed),
      blocks(std::max<std::uint64_t>(footprint_bytes / 64, 64)),
      hotBlocks(std::max<std::uint64_t>(
          static_cast<std::uint64_t>(prof.hotFraction *
                                     static_cast<double>(blocks)),
          1)),
      phaseStep(std::max<std::uint64_t>(
          static_cast<std::uint64_t>(prof.phaseShiftFraction *
                                     static_cast<double>(hotBlocks)),
          1)),
      gapDist(std::max(1.0, 1000.0 / prof.llcMpki)),
      runDist(prof.seqRunBlocks), hotDist(hotBlocks, prof.zipfSkew),
      nextPhaseAt(prof.phaseInstructions ? prof.phaseInstructions
                                         : ~0ull)
{
}

void
SyntheticStream::rotatePhase()
{
    while (instrRetired >= nextPhaseAt) {
        ++phaseIdx;
        nextPhaseAt += prof.phaseInstructions;
        // Advance the hot window by the configured turnover so part
        // of the working set goes cold and fresh blocks heat up.
        hotBase = wrap(hotBase + phaseStep);
    }
}

void
SyntheticStream::startNewRun()
{
    // The emitted stream is post-LLC: an immediately repeated block
    // would have been absorbed by the SRAM hierarchy, so redraw when
    // the new run starts exactly where the last one did.
    std::uint64_t base = lastRunBase;
    for (int attempt = 0; attempt < 4 && base == lastRunBase;
         ++attempt) {
        if (rng.chance(prof.hotProbability))
            base = wrap(hotBase + hotDist(rng));
        else
            base = rng.below(blocks);
    }
    if (base == lastRunBase)
        base = wrap(base + 1);
    lastRunBase = base;
    pos = base;
    runRemaining = std::max<std::uint64_t>(runDist(rng), 1);
}

inline MemOp
SyntheticStream::step()
{
    if (runRemaining == 0)
        startNewRun();

    MemOp op;
    op.vaddr = pos * 64;
    op.type = rng.chance(prof.writeFraction) ? AccessType::Write
                                             : AccessType::Read;
    const std::uint64_t gap = std::max<std::uint64_t>(gapDist(rng), 1);
    op.gap = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(gap, 1u << 20));

    pos = wrap(pos + 1);
    --runRemaining;
    instrRetired += op.gap;
    ++refs;
    if (instrRetired >= nextPhaseAt)
        rotatePhase();
    return op;
}

MemOp
SyntheticStream::next()
{
    return step();
}

void
SyntheticStream::fill(std::span<MemOp> out)
{
    for (MemOp &op : out)
        op = step();
}

} // namespace chameleon
