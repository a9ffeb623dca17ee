/**
 * @file
 * Branch-free first-minimum scan for the timing model's resource pools
 * (functional units, MSHRs): each is an array of next-free cycles and a
 * request takes the slot that frees earliest.
 */

#ifndef MTRAP_COMMON_FIRST_MIN_HH
#define MTRAP_COMMON_FIRST_MIN_HH

#include "common/types.hh"

namespace mtrap
{

/** Where the first minimum of an array is, and its value. */
struct FirstMin
{
    unsigned index;
    Cycle value;
};

/**
 * The smallest of `v[0..n)` and the lowest index holding it: the same
 * element std::min_element picks. The compare feeds two conditional
 * selects instead of a branch, because which slot frees first is
 * data-dependent and a branch on it mispredicts. The value comes back
 * with the index so the caller does not reload it. `n` >= 1.
 */
inline FirstMin
firstMin(const Cycle *v, unsigned n)
{
    FirstMin m{0, v[0]};
    for (unsigned i = 1; i < n; ++i) {
        const Cycle x = v[i];
        const bool less = x < m.value;
        m.index = less ? i : m.index;
        m.value = less ? x : m.value;
    }
    return m;
}

} // namespace mtrap

#endif // MTRAP_COMMON_FIRST_MIN_HH
