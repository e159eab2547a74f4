#include "workloads/trace_stream.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/log.hh"
#include "os/frame_allocator.hh"

namespace chameleon
{

TraceStream::TraceStream(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("TraceStream: cannot open '%s'", path.c_str());
    char line[256];
    std::size_t lineno = 0;
    while (std::fgets(line, sizeof(line), f)) {
        ++lineno;
        char *p = line;
        while (*p == ' ' || *p == '\t')
            ++p;
        if (*p == '#' || *p == '\n' || *p == '\0')
            continue;
        const char op = *p;
        if (op != 'R' && op != 'W' && op != 'r' && op != 'w') {
            std::fclose(f);
            fatal("TraceStream: %s:%zu: expected R/W, got '%c'",
                  path.c_str(), lineno, op);
        }
        ++p;
        char *end = nullptr;
        const unsigned long long addr = std::strtoull(p, &end, 0);
        if (end == p) {
            std::fclose(f);
            fatal("TraceStream: %s:%zu: missing address",
                  path.c_str(), lineno);
        }
        unsigned long long gap = 1;
        p = end;
        if (*p != '\n' && *p != '\0') {
            gap = std::strtoull(p, &end, 0);
            if (end == p || gap == 0)
                gap = 1;
        }
        MemOp mo;
        mo.vaddr = static_cast<Addr>(addr) / 64 * 64;
        mo.type = (op == 'W' || op == 'w') ? AccessType::Write
                                           : AccessType::Read;
        mo.gap = static_cast<std::uint32_t>(
            std::min<unsigned long long>(gap, 1u << 20));
        ops.push_back(mo);
    }
    std::fclose(f);
    if (ops.empty())
        fatal("TraceStream: '%s' contains no references",
              path.c_str());
    computeFootprint();
}

TraceStream::TraceStream(std::vector<MemOp> records)
    : ops(std::move(records))
{
    if (ops.empty())
        fatal("TraceStream: empty trace");
    computeFootprint();
}

void
TraceStream::computeFootprint()
{
    Addr max_addr = 0;
    for (const MemOp &op : ops)
        max_addr = std::max(max_addr, op.vaddr);
    footprintBytes = (max_addr / pageBytes + 1) * pageBytes;
}

inline MemOp
TraceStream::step()
{
    const MemOp op = ops[pos];
    if (++pos == ops.size()) {
        pos = 0;
        ++wraps;
    }
    return op;
}

MemOp
TraceStream::next()
{
    return step();
}

void
TraceStream::fill(std::span<MemOp> out)
{
    for (MemOp &op : out)
        op = step();
}

} // namespace chameleon
