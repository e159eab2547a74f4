/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All stochastic behaviour in the simulator flows through Rng so that a
 * given seed reproduces a bit-identical run. The core generator is
 * xoshiro256** (public domain, Blackman & Vigna), which is fast, has a
 * 256-bit state and passes BigCrush.
 */

#ifndef CHAMELEON_COMMON_RNG_HH
#define CHAMELEON_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/fast_log.hh"

namespace chameleon
{

/** The SplitMix64 output mixer: a strong 64-bit finalizer. */
inline std::uint64_t
splitMix64Mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One SplitMix64 step (Steele, Lea & Flood): advance @p state by
 *  the golden gamma and return its mixed value. */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    return splitMix64Mix(state);
}

/** Deterministic xoshiro256** generator with distribution helpers. */
class Rng
{
  public:
    /** Seed via SplitMix64 so that small seeds still fill the state. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state)
            word = splitMix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Geometric run length with mean @p mean (>= 1). Used for
     * sequential-run spatial locality in address streams.
     */
    std::uint64_t geometric(double mean);

    /**
     * Bounded Zipf-like rank sample in [0, n) with exponent @p s,
     * computed by inverse-CDF approximation. Used to skew hot-page
     * popularity inside a working set.
     */
    std::uint64_t zipf(std::uint64_t n, double s);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/**
 * Geometric distribution with a fixed mean: the per-draw constants
 * log1p(-1/mean) and its reciprocal are computed once. A mean <= 1
 * always yields 1 and draws nothing from the generator.
 *
 * A draw is floor(log1p(-u) / logQ) + 1 bit for bit. Since 1 - u is
 * exact for u on the 2^-53 grid, the fast path computes the quotient
 * y = fastLog(1 - u) / logQ instead; it is within 1e-13 relative of
 * the literal one, so when it lies more than exactBand * max(1, y)
 * (about 1e-9 relative) from an integer both land on the same side of
 * it and share their floor. Inside that band (about 2^-29 * mean of
 * the draws, 1e-5 at most at the Table II means) the literal formula
 * decides.
 */
class GeometricDist
{
  public:
    explicit GeometricDist(double mean)
        : degenerate(mean <= 1.0),
          logQ(degenerate ? 0.0 : std::log1p(-(1.0 / mean))),
          invLogQ(1.0 / logQ)
    {
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (degenerate)
            return 1;
        return fromUniform(rng.uniform());
    }

    /** The draw for uniform variate @p u in [0, 1) (non-degenerate
     *  means only). */
    std::uint64_t
    fromUniform(double u) const
    {
        // Guard against log(0).
        if (u >= 1.0)
            u = 0.999999999999;
        const double y = fastLog(1.0 - u) * invLogQ;
        if (y < 0x1p52) { // y >= 0; false for NaN
            const auto n = static_cast<std::int64_t>(y);
            const double frac = y - static_cast<double>(n);
            const double band = exactBand * (y > 1.0 ? y : 1.0);
            if (frac > band && frac < 1.0 - band)
                return static_cast<std::uint64_t>(n) + 1;
        }
        return static_cast<std::uint64_t>(
                   std::floor(std::log1p(-u) / logQ)) + 1;
    }

  private:
    /** Half-width of the band around each integer, relative to
     *  max(1, y), in which the literal formula decides. */
    static constexpr double exactBand = 0x1p-30;

    bool degenerate;
    double logQ;
    double invLogQ;
};

/**
 * Bounded Zipf-like distribution over [0, n) with exponent @p s, by
 * inverse-CDF approximation of the continuous analogue; pow(n, 1-s)
 * and the other per-(n, s) constants are computed once. n <= 1 always
 * yields 0 and draws nothing from the generator.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double s)
        : size(n), harmonic(s == 1.0)
    {
        if (size <= 1)
            return;
        const double dn = static_cast<double>(size);
        if (harmonic) {
            logN = std::log(dn);
        } else {
            const double e = 1.0 - s;
            span = std::pow(dn, e) - 1.0;
            invE = 1.0 / e;
        }
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (size <= 1)
            return 0;
        const double u = rng.uniform();
        const auto r = harmonic
            ? static_cast<std::uint64_t>(std::exp(u * logN)) - 1
            : static_cast<std::uint64_t>(
                  std::pow(u * span + 1.0, invE)) - 1;
        return r < size ? r : size - 1;
    }

  private:
    std::uint64_t size;
    bool harmonic;
    double logN = 0.0;
    double span = 0.0;
    double invE = 0.0;
};

inline std::uint64_t
Rng::geometric(double mean)
{
    return GeometricDist(mean)(*this);
}

inline std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    return ZipfDist(n, s)(*this);
}

} // namespace chameleon

#endif // CHAMELEON_COMMON_RNG_HH
