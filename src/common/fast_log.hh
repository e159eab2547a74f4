/**
 * @file
 * A natural logarithm without a libm call, for the geometric draws of
 * the workload generators (common/rng.hh), where glibc's log1p was the
 * single largest cost of a simulated reference.
 *
 * x = 2^k * z with z in [0.6875, 1.375); bits 45-51 of
 * bits(x) - bits(0.6875) pick one of 128 subintervals of z, each with
 * a centre c (1/c and log(c) tabulated), and
 * log(x) = k ln2 + log(c) + log1p(r)
 * with r = z/c - 1, |r| < 2^-7, from a degree-7 polynomial. The two
 * subintervals around 1 use c = 1, so r = z - 1 is exact there and the
 * result keeps its relative accuracy as x approaches 1. Over
 * [2^-53, 1] the relative error is below 1e-13.
 */

#ifndef CHAMELEON_COMMON_FAST_LOG_HH
#define CHAMELEON_COMMON_FAST_LOG_HH

#include <bit>
#include <cstdint>

namespace chameleon
{

namespace fast_log_detail
{

struct Entry
{
    /** 1 / c, rounded to double. */
    double invC;
    /** -log(invC), rounded to double. */
    double logC;
};

/**
 * Subinterval i covers the z whose bits are 0.6875's plus i << 45,
 * plus up to 2^45 - 1. c is its midpoint (1 for the subintervals
 * [1 - 2^-8, 1) and [1, 1 + 2^-7)), invC is 1/c rounded to double and
 * logC is -log(invC) evaluated in long double, then rounded.
 */
alignas(64) inline constexpr Entry table[128] = {
    {0x1.734f0c541fe8dp+0, -0x1.7cc7f7db46a0ep-2},
    {0x1.713786d9c7c09p+0, -0x1.76feecb947176p-2},
    {0x1.6f26016f26017p+0, -0x1.713e33a46a17cp-2},
    {0x1.6d1a62681c861p+0, -0x1.6b85b4cffa3fdp-2},
    {0x1.6b1490aa31a3dp+0, -0x1.65d558d4ce00bp-2},
    {0x1.691473a88d0cp+0, -0x1.602d08af091ecp-2},
    {0x1.6719f3601671ap+0, -0x1.5a8cadbbedfa1p-2},
    {0x1.6524f853b4aa4p+0, -0x1.54f431b7be1abp-2},
    {0x1.63356b88ac0dep+0, -0x1.4f637ebba981p-2},
    {0x1.614b36831ae94p+0, -0x1.49da7f3bcc42p-2},
    {0x1.5f66434292dfcp+0, -0x1.44591e0539f49p-2},
    {0x1.5d867c3ece2a6p+0, -0x1.3edf463c16841p-2},
    {0x1.5babcc647fa92p+0, -0x1.396ce359bbf56p-2},
    {0x1.59d61f123ccabp+0, -0x1.3401e12aecba3p-2},
    {0x1.5805601580561p+0, -0x1.2e9e2bce12289p-2},
    {0x1.56397ba7c52e2p+0, -0x1.2941afb186b7cp-2},
    {0x1.54725e6bb82fep+0, -0x1.23ec5991eba49p-2},
    {0x1.52aff56a8054bp+0, -0x1.1e9e1678899f5p-2},
    {0x1.50f22e111c4c6p+0, -0x1.1956d3b9bc2fcp-2},
    {0x1.4f38f62dd4c9bp+0, -0x1.14167ef367784p-2},
    {0x1.4d843bedc2c4cp+0, -0x1.0edd060b78082p-2},
    {0x1.4bd3edda68fe1p+0, -0x1.09aa572e6c6d4p-2},
    {0x1.4a27fad76014bp+0, -0x1.047e60cde83bap-2},
    {0x1.4880522014881p+0, -0x1.feb2233ea07d1p-3},
    {0x1.46dce34596067p+0, -0x1.f474b134df22ep-3},
    {0x1.453d9e2c776cap+0, -0x1.ea4449f04aaf5p-3},
    {0x1.43a2730abee4ep+0, -0x1.e020cc6235abbp-3},
    {0x1.420b5265e5952p+0, -0x1.d60a17f90351ap-3},
    {0x1.40782d10e6566p+0, -0x1.cc000c9db3c52p-3},
    {0x1.3ee8f42a5af07p+0, -0x1.c2028ab17f9b5p-3},
    {0x1.3d5d991aa75c6p+0, -0x1.b811730b823d4p-3},
    {0x1.3bd60d9232955p+0, -0x1.ae2ca6f672bd8p-3},
    {0x1.3a524387ac823p+0, -0x1.a454082e6ab09p-3},
    {0x1.38d22d366088ep+0, -0x1.9a8778debaa3ap-3},
    {0x1.3755bd1c945eep+0, -0x1.90c6db9fcbcdbp-3},
    {0x1.35dce5f9f2af8p+0, -0x1.871213750e994p-3},
    {0x1.34679ace01347p+0, -0x1.7d6903caf5ad3p-3},
    {0x1.32f5ced6a1dfap+0, -0x1.73cb9074fd14dp-3},
    {0x1.3187758e9ebb6p+0, -0x1.6a399dabbd383p-3},
    {0x1.301c82ac40261p+0, -0x1.60b3100b0947bp-3},
    {0x1.2eb4ea1fed14bp+0, -0x1.5737cc9018cddp-3},
    {0x1.2d50a012d50ap+0, -0x1.4dc7b897bc1c7p-3},
    {0x1.2bef98e5a3711p+0, -0x1.4462b9dc9b3dcp-3},
    {0x1.2a91c92f3c106p+0, -0x1.3b08b6757f2aep-3},
    {0x1.293725bb804a5p+0, -0x1.31b994d3a4f86p-3},
    {0x1.27dfa38a1ce4ep+0, -0x1.28753bc11aba9p-3},
    {0x1.268b37cd60127p+0, -0x1.1f3b925f25d44p-3},
    {0x1.2539d7e9177b2p+0, -0x1.160c8024b27bp-3},
    {0x1.23eb79717605cp+0, -0x1.0ce7ecdccc292p-3},
    {0x1.22a0122a0122ap+0, -0x1.03cdc0a51ec0dp-3},
    {0x1.21579804855e6p+0, -0x1.f57bc7d9005dbp-4},
    {0x1.2012012012012p+0, -0x1.e3707ee30487bp-4},
    {0x1.1ecf43c7fb84cp+0, -0x1.d179788219362p-4},
    {0x1.1d8f5672e4abdp+0, -0x1.bf968769fca18p-4},
    {0x1.1c522fc1ce059p+0, -0x1.adc77ee5aea8ep-4},
    {0x1.1b17c67f2bae3p+0, -0x1.9c0c32d4d254dp-4},
    {0x1.19e0119e0119ep+0, -0x1.8a6477a91dc29p-4},
    {0x1.18ab083902bdbp+0, -0x1.78d02263d82d7p-4},
    {0x1.1778a191bd684p+0, -0x1.674f089365a78p-4},
    {0x1.1648d50fc3201p+0, -0x1.55e10050e0382p-4},
    {0x1.151b9a3fdd5c9p+0, -0x1.4485e03dbdfbp-4},
    {0x1.13f0e8d344724p+0, -0x1.333d7f8183f4ap-4},
    {0x1.12c8b89edc0acp+0, -0x1.2207b5c7854a1p-4},
    {0x1.11a3019a74827p+0, -0x1.10e45b3cae838p-4},
    {0x1.107fbbe01108p+0, -0x1.ffa6911ab9309p-5},
    {0x1.0f5edfab325a2p+0, -0x1.dda8adc67ee59p-5},
    {0x1.0e40655826011p+0, -0x1.bbcebfc68f424p-5},
    {0x1.0d24456359e3ap+0, -0x1.9a187b573de81p-5},
    {0x1.0c0a7868b4171p+0, -0x1.788595a3577c8p-5},
    {0x1.0af2f722eecb6p+0, -0x1.5715c4c03cfp-5},
    {0x1.09ddba6af836p+0, -0x1.35c8bfaa13069p-5},
    {0x1.08cabb37565e2p+0, -0x1.149e3e4005a8dp-5},
    {0x1.07b9f29b8eae2p+0, -0x1.e72bf2813ce6ap-6},
    {0x1.06ab59c7912fcp+0, -0x1.a55f548c5c466p-6},
    {0x1.059eea0727587p+0, -0x1.63d6178690bfcp-6},
    {0x1.04949cc1664c6p+0, -0x1.228fb1fea2e49p-6},
    {0x1.038c6b78247fcp+0, -0x1.c317384c75f0dp-7},
    {0x1.02864fc7729e9p+0, -0x1.41929f968330cp-7},
    {0x1.0182436517a38p+0, -0x1.8121214586cp-8},
    {0x1p+0, 0x0p+0},
    {0x1p+0, 0x0p+0},
    {0x1.fa11caa01fa13p-1, 0x1.7dc475f810a29p-7},
    {0x1.f6310aca0dbb6p-1, 0x1.3cea44346a563p-6},
    {0x1.f25f644230ab6p-1, 0x1.b9fc027af9179p-6},
    {0x1.ee9c7f8458e03p-1, 0x1.1b0d98923d96ep-5},
    {0x1.eae807aba01ecp-1, 0x1.58a5bafc8e4c2p-5},
    {0x1.e741aa59750e5p-1, 0x1.95c830ec8e3e1p-5},
    {0x1.e3a9179dc1a74p-1, 0x1.d276b8adb0b45p-5},
    {0x1.e01e01e01e01fp-1, 0x1.075983598e469p-4},
    {0x1.dca01dca01dcbp-1, 0x1.253f62f0a140ep-4},
    {0x1.d92f2231e7f8bp-1, 0x1.42edcbea646e5p-4},
    {0x1.d5cac807572b3p-1, 0x1.60658a93750bbp-4},
    {0x1.d272ca3fc5b1bp-1, 0x1.7da766d7b12c7p-4},
    {0x1.cf26e5c44bfc7p-1, 0x1.9ab42462033a5p-4},
    {0x1.cbe6d9601cbe8p-1, 0x1.b78c82bb0ed97p-4},
    {0x1.c8b265afb8a43p-1, 0x1.d4313d66cb354p-4},
    {0x1.c5894d10d4987p-1, 0x1.f0a30c011629bp-4},
    {0x1.c26b5392ea01dp-1, 0x1.0671512ca596ap-3},
    {0x1.bf583ee868d8cp-1, 0x1.14785846742a7p-3},
    {0x1.bc4fd65883e7cp-1, 0x1.2266f190a5ac8p-3},
    {0x1.b951e2b18ff24p-1, 0x1.303d718e47fdp-3},
    {0x1.b65e2e3beee06p-1, 0x1.3dfc2b0ecc626p-3},
    {0x1.b37484ad806cfp-1, 0x1.4ba36f39a55ep-3},
    {0x1.b094b31d922a5p-1, 0x1.59338d9982081p-3},
    {0x1.adbe87f94905fp-1, 0x1.66acd4272ad4cp-3},
    {0x1.aaf1d2f87ebfdp-1, 0x1.740f8f54037a3p-3},
    {0x1.a82e65130e159p-1, 0x1.815c0a14357e9p-3},
    {0x1.a574107688a4bp-1, 0x1.8e928de886d3cp-3},
    {0x1.a2c2a87c51ca1p-1, 0x1.9bb362e7dfb8p-3},
    {0x1.a01a01a01a01bp-1, 0x1.a8becfc882f14p-3},
    {0x1.9d79f176b682ep-1, 0x1.b5b519e8fb5a1p-3},
    {0x1.9ae24ea5510dbp-1, 0x1.c2968558c18bdp-3},
    {0x1.9852f0d8ec1p-1, 0x1.cf6354e09c5d8p-3},
    {0x1.95cbb0be377aep-1, 0x1.dc1bca0abec7bp-3},
    {0x1.934c67f9b2ce7p-1, 0x1.e8c0252aa5a5bp-3},
    {0x1.90d4f120190d6p-1, 0x1.f550a564b7b32p-3},
    {0x1.8e6527af1374p-1, 0x1.00e6c45ad501ap-2},
    {0x1.8bfce8062ff3bp-1, 0x1.071b85fcd590bp-2},
    {0x1.899c0f601899dp-1, 0x1.0d46b579ab749p-2},
    {0x1.87427bcc092bap-1, 0x1.136870293a8aep-2},
    {0x1.84f00c2780614p-1, 0x1.1980d2dd4236fp-2},
    {0x1.82a4a0182a4a1p-1, 0x1.1f8ff9e48a2fp-2},
    {0x1.8060180601807p-1, 0x1.2596010df7637p-2},
    {0x1.7e225515a4f1ep-1, 0x1.2b9303ab89d22p-2},
    {0x1.7beb3922e017cp-1, 0x1.31871c9544185p-2},
    {0x1.79baa6bb6398cp-1, 0x1.3772662bfd859p-2},
    {0x1.77908119ac60ep-1, 0x1.3d54fa5c1f70dp-2},
    {0x1.756cac201756dp-1, 0x1.432ef2a04e813p-2},
};

} // namespace fast_log_detail

/** log(@p x) for a positive, normal, finite @p x. */
inline double
fastLog(double x)
{
    using fast_log_detail::table;
    constexpr std::uint64_t zLow = 0x3fe6000000000000ull; // 0.6875
    constexpr double ln2Hi = 0x1.62e42fefa3800p-1; // exact times any k
    constexpr double ln2Lo = 0x1.ef35793c76730p-45;

    const auto ix = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t tmp = ix - zLow;
    const fast_log_detail::Entry &e = table[(tmp >> 45) % 128];
    const auto k =
        static_cast<double>(static_cast<std::int64_t>(tmp) >> 52);
    const double z =
        std::bit_cast<double>(ix - (tmp & (0xfffull << 52)));

    // log1p(r) by its Taylor series, evaluated in independent halves.
    const double r = z * e.invC - 1.0;
    const double r2 = r * r;
    const double p = r + r2 * (-1.0 / 2 + r * (1.0 / 3)) +
                     r2 * r2 *
                         (-1.0 / 4 + r * (1.0 / 5) +
                          r2 * (-1.0 / 6 + r * (1.0 / 7)));
    return (k * ln2Hi + e.logC) + (k * ln2Lo + p);
}

} // namespace chameleon

#endif // CHAMELEON_COMMON_FAST_LOG_HH
