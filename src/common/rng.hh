/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Every stochastic choice in the simulator (workload generation, arrival
 * schedules) draws from an explicitly seeded Rng so whole experiments
 * are bit-reproducible.
 */

#ifndef MTRAP_COMMON_RNG_HH
#define MTRAP_COMMON_RNG_HH

#include <cstdint>

namespace mtrap
{

/** Seedable xoshiro256** generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform in [0, bound) ; bound must be nonzero. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double real();

    /** Bernoulli trial with probability p. */
    bool chance(double p) { return real() < p; }

    /** Uniform in [lo, hi] inclusive. */
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  private:
    std::uint64_t s_[4];
};

/**
 * Deterministically combine two seeds into a new one (splitmix64-based
 * avalanche). Used to derive per-job and per-workload seeds from a
 * global seed without correlation.
 */
std::uint64_t mixSeeds(std::uint64_t a, std::uint64_t b);

/**
 * The splitmix64 increment-and-finalize step: full avalanche of one
 * 64-bit value. The single definition behind the deterministic page
 * mapper, the functional memory's pseudo-contents and FlatWordMap's
 * hash — these must stay bit-identical to each other's history, so
 * they share it.
 */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace mtrap

#endif // MTRAP_COMMON_RNG_HH
