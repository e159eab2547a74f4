#include "os/frame_allocator.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/trace_sink.hh"

namespace chameleon
{

namespace
{

/** Seeded Fisher-Yates shuffle (std::shuffle needs a std engine). */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace

FrameAllocator::FrameAllocator(const FrameAllocatorConfig &config)
    : cfg(config), policyRng(config.seed * 7919 + 13)
{
    if (cfg.stackedBytes % hugePageBytes != 0 ||
        cfg.offchipBytes % hugePageBytes != 0)
        fatal("FrameAllocator: zone sizes must be 2MiB multiples");
    if (capacity() == 0)
        fatal("FrameAllocator: no memory configured");

    const std::uint64_t total_chunks = capacity() / hugePageBytes;
    const std::uint64_t stacked_chunks =
        cfg.stackedBytes / hugePageBytes;
    chunkStates.assign(total_chunks, ChunkState::Free);
    chunkFreeFrames.assign(total_chunks,
                           static_cast<std::uint16_t>(framesPerChunk));
    frameStates.assign(capacity() / pageBytes, FrameState::Free);

    Rng rng(cfg.seed);
    for (std::uint64_t c = 0; c < total_chunks; ++c) {
        Zone &z = (c < stacked_chunks) ? stackedZone : offchipZone;
        z.freeChunks.push_back(c);
        z.freePageCount += framesPerChunk;
    }
    // Randomize hand-out order so long-lived free-list churn is
    // modeled even on a fresh boot.
    shuffle(stackedZone.freeChunks, rng);
    shuffle(offchipZone.freeChunks, rng);
}

FrameAllocator::Zone &
FrameAllocator::zoneRef(MemNode node)
{
    return node == MemNode::Stacked ? stackedZone : offchipZone;
}

const FrameAllocator::Zone &
FrameAllocator::zoneRef(MemNode node) const
{
    return node == MemNode::Stacked ? stackedZone : offchipZone;
}

MemNode
FrameAllocator::chunkNode(std::uint64_t chunk) const
{
    return chunk * hugePageBytes < cfg.stackedBytes ? MemNode::Stacked
                                                    : MemNode::OffChip;
}

FrameAllocator::ZoneOrder
FrameAllocator::zoneOrder(std::optional<MemNode> zone)
{
    constexpr ZoneOrder fast_first{{MemNode::Stacked, MemNode::OffChip}, 2};
    constexpr ZoneOrder slow_first{{MemNode::OffChip, MemNode::Stacked}, 2};
    if (zone)
        return {{*zone, *zone}, 1};
    switch (cfg.policy) {
      case AllocPolicy::FastFirst:
        return fast_first;
      case AllocPolicy::SlowFirst:
        return slow_first;
      case AllocPolicy::Uniform: {
        // Weight the first probe by current free-page population so
        // allocations land uniformly over the whole physical space.
        const std::uint64_t sf = stackedZone.freePageCount;
        const std::uint64_t of = offchipZone.freePageCount;
        if (sf + of == 0)
            return fast_first;
        return policyRng.below(sf + of) < sf ? fast_first : slow_first;
      }
    }
    panic("FrameAllocator: unknown policy");
}

bool
FrameAllocator::breakChunk(MemNode node)
{
    Zone &z = zoneRef(node);
    if (z.freeChunks.empty())
        return false;
    const std::uint64_t chunk = z.freeChunks.back();
    z.freeChunks.pop_back();
    chunkStates[chunk] = ChunkState::Broken;
    const Addr base = chunk * hugePageBytes;
    for (std::uint64_t f = 0; f < framesPerChunk; ++f)
        z.freeFrames.push_back(base + f * pageBytes);
    return true;
}

Addr
FrameAllocator::takePage(std::optional<MemNode> zone)
{
    const ZoneOrder order = zoneOrder(zone);
    for (MemNode node : order) {
        Zone &z = zoneRef(node);
        // Policy-driven allocations respect the stacked watermark;
        // zone-targeted ones (migrations) may consume the reserve.
        if (!zone && node == MemNode::Stacked &&
            z.freePageCount * pageBytes <= cfg.stackedWatermarkBytes &&
            offchipZone.freePageCount > 0)
            continue;
        if (z.freeFrames.empty() && !breakChunk(node))
            continue;
        const Addr frame = z.freeFrames.back();
        z.freeFrames.pop_back();
        --z.freePageCount;
        frameStates[frameOf(frame)] = FrameState::InUse;
        --chunkFreeFrames[chunkOf(frame)];
        ++statsData.pageAllocs;
        return frame;
    }
    ++statsData.failedAllocs;
    return invalidAddr;
}

std::optional<Addr>
FrameAllocator::allocHuge(std::optional<MemNode> zone)
{
    const ZoneOrder order = zoneOrder(zone);
    for (int attempt = 0; attempt < 2; ++attempt) {
        for (MemNode node : order) {
            Zone &z = zoneRef(node);
            if (z.freeChunks.empty())
                continue;
            const std::uint64_t chunk = z.freeChunks.back();
            z.freeChunks.pop_back();
            chunkStates[chunk] = ChunkState::HugeInUse;
            chunkFreeFrames[chunk] = 0;
            z.freePageCount -= framesPerChunk;
            const Addr base = chunk * hugePageBytes;
            for (std::uint64_t f = 0; f < framesPerChunk; ++f)
                frameStates[frameOf(base) + f] = FrameState::InUse;
            ++statsData.hugeAllocs;
            return base;
        }
        // No wholly free chunk anywhere eligible: compact once
        // (Linux: direct compaction on THP allocation failure).
        if (attempt == 0)
            for (MemNode node : order)
                compact(node);
    }
    ++statsData.failedAllocs;
    return std::nullopt;
}

void
FrameAllocator::freePage(Addr base)
{
    if (base % pageBytes != 0 || base >= capacity())
        panic("FrameAllocator: bad page free %#llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t frame = frameOf(base);
    if (frameStates[frame] != FrameState::InUse)
        panic("FrameAllocator: double free of frame %#llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t chunk = chunkOf(base);
    if (chunkStates[chunk] != ChunkState::Broken)
        panic("FrameAllocator: page free inside non-broken chunk");
    frameStates[frame] = FrameState::Free;
    ++chunkFreeFrames[chunk];
    Zone &z = zoneRef(nodeOf(base));
    z.freeFrames.push_back(base);
    ++z.freePageCount;
    ++statsData.pageFrees;
}

void
FrameAllocator::freeHuge(Addr base)
{
    if (base % hugePageBytes != 0 || base >= capacity())
        panic("FrameAllocator: bad huge free %#llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t chunk = chunkOf(base);
    if (chunkStates[chunk] != ChunkState::HugeInUse)
        panic("FrameAllocator: huge free of non-huge chunk");
    chunkStates[chunk] = ChunkState::Free;
    chunkFreeFrames[chunk] =
        static_cast<std::uint16_t>(framesPerChunk);
    for (std::uint64_t f = 0; f < framesPerChunk; ++f)
        frameStates[frameOf(base) + f] = FrameState::Free;
    Zone &z = zoneRef(nodeOf(base));
    z.freeChunks.push_back(chunk);
    z.freePageCount += framesPerChunk;
    ++statsData.hugeFrees;
}

void
FrameAllocator::splitHuge(Addr base)
{
    if (base % hugePageBytes != 0 || base >= capacity())
        panic("FrameAllocator: bad huge split %#llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t chunk = chunkOf(base);
    if (chunkStates[chunk] != ChunkState::HugeInUse)
        panic("FrameAllocator: split of non-huge chunk");
    chunkStates[chunk] = ChunkState::Broken;
    chunkFreeFrames[chunk] = 0;
    // Frames remain InUse; they can now be freed one at a time.
}

void
FrameAllocator::compact(MemNode node)
{
    Zone &z = zoneRef(node);
    ++statsData.compactions;
    std::vector<Addr> still_free;
    still_free.reserve(z.freeFrames.size());
    // First pass: identify wholly-free broken chunks.
    for (Addr frame : z.freeFrames) {
        const std::uint64_t chunk = chunkOf(frame);
        if (chunkStates[chunk] == ChunkState::Broken &&
            chunkFreeFrames[chunk] == framesPerChunk) {
            continue; // will be re-assembled below
        }
        still_free.push_back(frame);
    }
    // Second pass: re-assemble them exactly once each.
    for (Addr frame : z.freeFrames) {
        const std::uint64_t chunk = chunkOf(frame);
        if (chunkStates[chunk] == ChunkState::Broken &&
            chunkFreeFrames[chunk] == framesPerChunk) {
            chunkStates[chunk] = ChunkState::Free;
            z.freeChunks.push_back(chunk);
        }
    }
    z.freeFrames = std::move(still_free);
}

std::uint64_t
FrameAllocator::freeBytes() const
{
    return (stackedZone.freePageCount + offchipZone.freePageCount) *
           pageBytes;
}

std::uint64_t
FrameAllocator::freeBytesInZone(MemNode zone) const
{
    return zoneRef(zone).freePageCount * pageBytes;
}

bool
FrameAllocator::isAllocated(Addr base) const
{
    return frameStates[base / pageBytes] == FrameState::InUse;
}

void
FrameAllocator::retireFrame(Addr base, Cycle when)
{
    if (base % pageBytes != 0 || base >= capacity())
        panic("FrameAllocator: bad frame retire %#llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t frame = frameOf(base);
    if (frameStates[frame] == FrameState::Retired)
        return;
    if (frameStates[frame] == FrameState::InUse)
        panic("FrameAllocator: retiring in-use frame %#llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t chunk = chunkOf(base);
    Zone &z = zoneRef(nodeOf(base));
    if (chunkStates[chunk] == ChunkState::HugeInUse)
        panic("FrameAllocator: retiring frame of a live huge page");
    if (chunkStates[chunk] == ChunkState::Free) {
        // Break the containing chunk so the other 511 frames stay
        // usable as base pages.
        std::erase(z.freeChunks, chunk);
        chunkStates[chunk] = ChunkState::Broken;
        const Addr chunk_base = chunk * hugePageBytes;
        for (std::uint64_t f = 0; f < framesPerChunk; ++f) {
            const Addr fb = chunk_base + f * pageBytes;
            if (fb != base)
                z.freeFrames.push_back(fb);
        }
    } else {
        std::erase(z.freeFrames, base);
    }
    frameStates[frame] = FrameState::Retired;
    // The chunk's free-frame count excludes the retired frame, so it
    // can never reach framesPerChunk again: compact() will never
    // re-assemble this chunk into a huge page.
    --chunkFreeFrames[chunk];
    --z.freePageCount;
    ++statsData.retiredFrames;
    TraceSink::emit(trace, when, TraceKind::FrameRetired, base);
}

bool
FrameAllocator::isRetired(Addr base) const
{
    return frameStates[base / pageBytes] == FrameState::Retired;
}

} // namespace chameleon
