#include "fault/fault_injector.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

namespace
{

/** One SplitMix64 step from @p x: deterministic hash to 64 bits. */
std::uint64_t
mix64(std::uint64_t x)
{
    return splitMix64(x);
}

/** Deterministic hash of up to three keys to a double in [0, 1). */
double
hashUnit(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    const std::uint64_t h = mix64(mix64(mix64(a) ^ b) ^ c);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

FaultInjector::FaultInjector(const FaultConfig &config,
                             std::uint64_t stacked_bytes,
                             std::uint64_t segment_bytes)
    : cfg(config), segBytes(segment_bytes),
      numSegs(segment_bytes ? stacked_bytes / segment_bytes : 0),
      rng(mix64(config.seed ^ 0xfa017ull))
{
    if (segBytes == 0)
        fatal("FaultInjector: segment size must be non-zero");
    if (cfg.spikeWindowCycles == 0)
        fatal("FaultInjector: spike window must be non-zero");
    for (double r : {cfg.transientFlipRate, cfg.doubleFlipFraction,
                     cfg.stuckSegmentFraction, cfg.srrtCorruptionRate,
                     cfg.srrtUncorrectableFraction, cfg.spikeRate})
        if (r < 0.0 || r > 1.0)
            fatal("FaultInjector: rates must lie in [0, 1]");

    segFlags.assign(numSegs, 0);
    correctedCount.assign(numSegs, 0);
    // The stuck set derives from the seed alone (not the shared RNG
    // stream), so it is stable against other rate knobs.
    if (cfg.stuckSegmentFraction > 0.0) {
        for (std::uint64_t s = 0; s < numSegs; ++s) {
            if (hashUnit(cfg.seed, 0x57ac, s) <
                cfg.stuckSegmentFraction) {
                segFlags[s] |= flagStuck;
                ++stuckCount;
            }
        }
    }
}

void
FaultInjector::repeatOffense(std::uint64_t seg, Cycle when)
{
    if (seg >= numSegs)
        return;
    if (++correctedCount[seg] >= cfg.retireThreshold)
        requestRetirement(seg * segBytes, when);
}

void
FaultInjector::requestRetirement(Addr seg_base, Cycle when)
{
    const std::uint64_t seg = segOf(seg_base);
    if (seg >= numSegs)
        return;
    if (segFlags[seg] & (flagRetired | flagPending))
        return;
    segFlags[seg] |= flagPending;
    pending.push_back(seg * segBytes);
    ++statsData.retirementsRequested;
    TraceSink::emit(trace, when, TraceKind::RetireRequest,
                    seg * segBytes);
}

std::vector<Addr>
FaultInjector::takeRetirements()
{
    return std::move(pending);
}

void
FaultInjector::markRetired(Addr seg_base)
{
    const std::uint64_t seg = segOf(seg_base);
    if (seg >= numSegs)
        return;
    segFlags[seg] |= flagRetired;
    segFlags[seg] &= static_cast<std::uint8_t>(~flagPending);
}

bool
FaultInjector::isStuck(Addr seg_base) const
{
    const std::uint64_t seg = segOf(seg_base);
    return seg < numSegs && (segFlags[seg] & flagStuck);
}

bool
FaultInjector::isRetired(Addr seg_base) const
{
    const std::uint64_t seg = segOf(seg_base);
    return seg < numSegs && (segFlags[seg] & flagRetired);
}

EccOutcome
FaultInjector::eccSample(MemNode node, Addr addr, Cycle when)
{
    if (!active(when) || !siteEnabled(node))
        return EccOutcome::None;

    if (node == MemNode::Stacked) {
        const std::uint64_t seg = segOf(addr);
        if (seg < numSegs) {
            if (segFlags[seg] & flagRetired)
                return EccOutcome::None;
            if (segFlags[seg] & flagStuck) {
                // Degraded cells: every access trips the corrector
                // until the repeat-offender threshold retires the
                // segment.
                ++statsData.stuckHits;
                repeatOffense(seg, when);
                return EccOutcome::Corrected;
            }
        }
    }

    if (cfg.transientFlipRate <= 0.0 ||
        !rng.chance(cfg.transientFlipRate))
        return EccOutcome::None;

    ++statsData.flipsInjected;
    if (cfg.doubleFlipFraction > 0.0 &&
        rng.chance(cfg.doubleFlipFraction)) {
        ++statsData.doubleFlips;
        if (node == MemNode::Stacked)
            requestRetirement((addr / segBytes) * segBytes, when);
        return EccOutcome::Uncorrectable;
    }
    if (node == MemNode::Stacked)
        repeatOffense(segOf(addr), when);
    return EccOutcome::Corrected;
}

MetaOutcome
FaultInjector::srtSample(std::uint64_t group, Cycle when)
{
    if (!active(when) || cfg.srrtCorruptionRate <= 0.0)
        return MetaOutcome::None;
    if (!rng.chance(cfg.srrtCorruptionRate))
        return MetaOutcome::None;
    if (cfg.srrtUncorrectableFraction > 0.0 &&
        rng.chance(cfg.srrtUncorrectableFraction)) {
        ++statsData.srrtUncorrectable;
        requestRetirement(group * segBytes, when);
        return MetaOutcome::Uncorrectable;
    }
    ++statsData.srrtCorrected;
    return MetaOutcome::Corrected;
}

Cycle
FaultInjector::latencyPenalty(MemNode node, std::uint32_t channel,
                              Cycle when)
{
    if (!active(when) || cfg.spikeRate <= 0.0 || !siteEnabled(node))
        return 0;
    const std::uint64_t window = when / cfg.spikeWindowCycles;
    const std::uint64_t site =
        (node == MemNode::Stacked ? 0x100000ull : 0x200000ull) +
        channel;
    const double h = hashUnit(cfg.seed ^ 0x5b1fe, site, window);
    if (h >= cfg.spikeRate)
        return 0;
    // Spike severity varies deterministically with the window hash:
    // penalties span [1x, 4x) of the base spike latency, so some
    // spikes cross the timeout threshold and some do not.
    const double severity = 1.0 + 3.0 * (h / cfg.spikeRate);
    const auto penalty = static_cast<Cycle>(
        static_cast<double>(cfg.spikeCycles) * severity);
    ++statsData.spikeDelays;
    if (penalty >= cfg.timeoutCycles)
        ++statsData.timeouts;
    return penalty;
}

} // namespace chameleon
