/**
 * @file
 * Process-wide buffer pool + STL allocator for the simulator's large,
 * frequently re-created arrays (cache line arrays, BTBs). The
 * functional word store does not use it: its page records are small,
 * and the buffers the pool kept for a hash table that doubled as it
 * filled were about a third of a timeshare run's peak memory.
 *
 * Building a Table-1 system allocates ~0.6 MB of line metadata; the
 * security choreographies and the experiment harness construct and
 * destroy whole systems continuously, and on first touch every fresh
 * allocation pays kernel page faults — measured at several hundred
 * microseconds per L2, dwarfing the user-space initialisation. Recycling
 * buffers through this pool means only the first system of a given
 * geometry faults; every later one reuses warm pages.
 *
 * Determinism: containers value-initialise their elements regardless of
 * what the recycled buffer contained, so simulation results are
 * unaffected. Thread safety: a mutex around the free lists (acquire/
 * release happen at system construction granularity, not on simulation
 * hot paths).
 */

#ifndef MTRAP_COMMON_BUFFER_POOL_HH
#define MTRAP_COMMON_BUFFER_POOL_HH

#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace mtrap
{

class BufferPool
{
  public:
    /** Singleton (intentionally leaked: avoids static-destruction-order
     *  hazards with late-destroyed systems). */
    static BufferPool &instance();

    /** A buffer of exactly `bytes` bytes (recycled or fresh). */
    void *acquire(std::size_t bytes)
    {
        if (bytes >= kMinPooledBytes) {
            std::lock_guard<std::mutex> lk(mu_);
            auto it = free_.find(bytes);
            if (it != free_.end() && !it->second.empty()) {
                void *p = it->second.back();
                it->second.pop_back();
                return p;
            }
        }
        return std::malloc(bytes);
    }

    void release(void *p, std::size_t bytes)
    {
        if (!p)
            return;
        if (bytes >= kMinPooledBytes) {
            std::lock_guard<std::mutex> lk(mu_);
            std::vector<void *> &list = free_[bytes];
            if (list.size() < kMaxPerBucket) {
                list.push_back(p);
                return;
            }
        }
        std::free(p);
    }

  private:
    /** Small allocations are not worth the lock. */
    static constexpr std::size_t kMinPooledBytes = 16 * 1024;
    /** Per-size cap so pathological size churn cannot hoard memory. */
    static constexpr std::size_t kMaxPerBucket = 32;

    std::mutex mu_;
    std::unordered_map<std::size_t, std::vector<void *>> free_;
};

/** Minimal STL allocator over the BufferPool. */
template <typename T>
struct PoolAllocator
{
    using value_type = T;

    PoolAllocator() = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) {}

    T *allocate(std::size_t n)
    {
        void *p = BufferPool::instance().acquire(n * sizeof(T));
        if (!p)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }
    void deallocate(T *p, std::size_t n)
    {
        BufferPool::instance().release(p, n * sizeof(T));
    }

    bool operator==(const PoolAllocator &) const { return true; }
    bool operator!=(const PoolAllocator &) const { return false; }
};

} // namespace mtrap

#endif // MTRAP_COMMON_BUFFER_POOL_HH
