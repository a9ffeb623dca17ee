/**
 * @file
 * FlatWordMap: a minimal open-addressing hash map from 64-bit keys to
 * 64-bit values, tuned for the simulator's hot lookup tables (the
 * functional memory's page directory, MSHR in-flight fill tracking).
 *
 * Compared with std::unordered_map it does no per-node allocation, has
 * no bucket-list pointer chases, and a slot is exactly 16 bytes, so the
 * common hit touches one or two cache lines. A reserved sentinel key
 * marks empty slots (the simulator's keys are line or page numbers,
 * far below the sentinel). Erasure is rebuild-based (eraseIf,
 * for rare cleanups) rather than per-entry, so probing never sees
 * tombstones. Iteration order is unspecified and never observed by the
 * simulation (determinism is unaffected: values are keyed data).
 */

#ifndef MTRAP_COMMON_FLAT_MAP_HH
#define MTRAP_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace mtrap
{

class FlatWordMap
{
  public:
    /** Keys equal to `kEmptyKey` must never be inserted. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    explicit FlatWordMap(std::size_t initial_capacity = 1024)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.assign(cap, Slot{kEmptyKey, 0});
        mask_ = cap - 1;
    }

    /** Number of stored keys. */
    std::size_t size() const { return size_; }

    /** Pointer to the value for `key`, or nullptr. */
    const std::uint64_t *find(std::uint64_t key) const
    {
        for (std::size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    /** Insert or overwrite. */
    void put(std::uint64_t key, std::uint64_t value)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        for (std::size_t i = hash(key) & mask_;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key) {
                s.value = value;
                return;
            }
            if (s.key == kEmptyKey) {
                s.key = key;
                s.value = value;
                ++size_;
                return;
            }
        }
    }

    /**
     * Drop every (key, value) for which `pred` holds, by rebuilding in
     * place (no tombstones). O(capacity); intended for rare cleanups.
     * The surviving set — the only thing lookups can observe — matches
     * what per-entry erasure would leave.
     */
    template <typename Pred>
    void eraseIf(Pred &&pred)
    {
        SlotVec old = std::move(slots_);
        slots_.assign(old.size(), Slot{kEmptyKey, 0});
        size_ = 0;
        for (const Slot &s : old)
            if (s.key != kEmptyKey && !pred(s.key, s.value))
                put(s.key, s.value);
    }

    /**
     * Visit every (key, value) pair. Order is the internal slot order
     * (unspecified); callers needing a deterministic byte stream — the
     * snapshot layer — must sort what they collect.
     */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

    /** Drop every entry, keeping the current capacity. */
    void clear()
    {
        slots_.assign(slots_.size(), Slot{kEmptyKey, 0});
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t value;
    };

    static std::uint64_t hash(std::uint64_t z) { return mix64(z); }

    void grow()
    {
        SlotVec old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{kEmptyKey, 0});
        mask_ = slots_.size() - 1;
        size_ = 0;
        for (const Slot &s : old)
            if (s.key != kEmptyKey)
                put(s.key, s.value);
    }

    using SlotVec = std::vector<Slot>;
    SlotVec slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace mtrap

#endif // MTRAP_COMMON_FLAT_MAP_HH
