/**
 * @file
 * Abstract memory-reference source consumed by the cores: the
 * synthetic Table II generators and file-based trace replay both
 * implement it, so a System can be driven by either.
 */

#ifndef CHAMELEON_WORKLOADS_ADDRESS_STREAM_HH
#define CHAMELEON_WORKLOADS_ADDRESS_STREAM_HH

#include <cstdint>
#include <span>

#include "common/types.hh"

namespace chameleon
{

/** One emitted memory reference plus its preceding compute gap. */
struct MemOp
{
    /** Process-virtual byte address (64B aligned). */
    Addr vaddr = 0;
    AccessType type = AccessType::Read;
    /**
     * Number of instructions this op accounts for, including itself:
     * the core retires (gap - 1) compute instructions, then the
     * memory reference.
     */
    std::uint32_t gap = 1;
};

/**
 * Producer of one core's post-LLC reference stream. The simulator
 * takes references a batch at a time, so the virtual call is paid
 * once per batch rather than once per reference.
 */
class AddressStream
{
  public:
    virtual ~AddressStream() = default;

    /** Overwrite @p out with the next out.size() references. */
    virtual void fill(std::span<MemOp> out) = 0;

    /** VA-space size this stream covers, in bytes. */
    virtual std::uint64_t footprint() const = 0;
};

} // namespace chameleon

#endif // CHAMELEON_WORKLOADS_ADDRESS_STREAM_HH
