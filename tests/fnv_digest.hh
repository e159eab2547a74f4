/**
 * @file
 * FNV-1a digest of a sequence of 64-bit words, for tests that pin a
 * large simulated state (boot state, allocation sequences) to one
 * recorded hex string.
 */

#ifndef CHAMELEON_TESTS_FNV_DIGEST_HH
#define CHAMELEON_TESTS_FNV_DIGEST_HH

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

namespace chameleon::test
{

/** FNV-1a over 64-bit words, each fed little-endian byte by byte. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void addF64(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

} // namespace chameleon::test

#endif // CHAMELEON_TESTS_FNV_DIGEST_HH
