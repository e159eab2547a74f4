/**
 * @file
 * ThreadRings<T> — the per-thread overwrite-oldest ring set that
 * TraceSink and SpanSink record into.
 *
 * Each producing thread owns a private ring of fixed capacity,
 * registered under a mutex on its first push() into a given ring
 * set. Every later push() is a slot store plus a release store of the
 * ring's head, with no lock and no read-modify-write. A full ring
 * overwrites its oldest element, and the overwrites are counted, so
 * stats() always satisfies recorded == retained + dropped.
 *
 * Concurrency contract:
 *  - push() is single-producer per ring: only the owning thread
 *    writes its ring.
 *  - stats() may run while producers push. It reads each head with
 *    an acquire load, so it never races the owner's release store.
 *  - forEachRetained() reads slot contents and must run after the
 *    producers have quiesced (a slot may be mid-overwrite otherwise).
 */

#ifndef CHAMELEON_OBS_THREAD_RINGS_HH
#define CHAMELEON_OBS_THREAD_RINGS_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace chameleon
{

/** Element accounting over every ring of a ThreadRings. */
struct ThreadRingStats
{
    std::uint64_t recorded = 0; ///< elements ever pushed
    std::uint64_t dropped = 0;  ///< overwritten by ring wraparound
    std::uint64_t retained = 0; ///< elements currently in the rings
};

template <typename T>
class ThreadRings
{
  public:
    /** @p capacity elements per producing thread; must be non-zero
     *  before the first push(). */
    explicit ThreadRings(std::size_t capacity)
        : cap(capacity), id(++idCounter)
    {
    }

    ThreadRings(const ThreadRings &) = delete;
    ThreadRings &operator=(const ThreadRings &) = delete;

    /** Append @p value to this thread's ring (lock-free after the
     *  thread's first push). */
    void
    push(const T &value)
    {
        Ring &ring = localRing();
        const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
        ring.slots[h % cap] = value;
        ring.head.store(h + 1, std::memory_order_release);
    }

    /** Aggregate accounting; safe while producers push. */
    ThreadRingStats
    stats() const
    {
        std::lock_guard<std::mutex> guard(mtx);
        ThreadRingStats s;
        for (const auto &ring : rings) {
            const std::uint64_t h =
                ring->head.load(std::memory_order_acquire);
            const std::uint64_t kept = std::min<std::uint64_t>(h, cap);
            s.recorded += h;
            s.retained += kept;
            s.dropped += h - kept;
        }
        return s;
    }

    /**
     * Call @p fn(ringIndex, element) for every retained element, ring
     * by ring in registration order, oldest first within a ring.
     * Producers must be quiescent.
     */
    template <typename Fn>
    void
    forEachRetained(Fn &&fn) const
    {
        std::lock_guard<std::mutex> guard(mtx);
        for (std::size_t r = 0; r < rings.size(); ++r) {
            const Ring &ring = *rings[r];
            const std::uint64_t h =
                ring.head.load(std::memory_order_acquire);
            const std::size_t kept =
                static_cast<std::size_t>(std::min<std::uint64_t>(h, cap));
            // Oldest retained element first: once the ring has
            // wrapped, that is the slot the next push() overwrites.
            const std::size_t start =
                h > cap ? static_cast<std::size_t>(h % cap) : 0;
            for (std::size_t i = 0; i < kept; ++i)
                fn(r, ring.slots[(start + i) % cap]);
        }
    }

    /** Ring capacity per producing thread. */
    std::size_t capacity() const { return cap; }

  private:
    struct Ring
    {
        Ring(std::size_t capacity, std::thread::id who)
            : slots(capacity), owner(who)
        {
        }
        std::vector<T> slots;
        /** Total elements ever pushed; head % cap is the write slot.
         *  Written only by the owner. */
        std::atomic<std::uint64_t> head{0};
        std::thread::id owner;
    };

    /** The calling thread's (ring set id -> ring) fast-path cache. */
    struct Cache
    {
        std::uint64_t ownerId = 0; ///< 0 never matches a live set
        Ring *ring = nullptr;
    };

    Ring &
    localRing()
    {
        if (tlCache.ownerId == id) [[likely]]
            return *tlCache.ring;
        return registerThread();
    }

    /** Find or create this thread's ring and prime the cache. */
    [[gnu::noinline]] Ring &
    registerThread()
    {
        std::lock_guard<std::mutex> guard(mtx);
        const std::thread::id self = std::this_thread::get_id();
        Ring *ring = nullptr;
        for (const auto &r : rings)
            if (r->owner == self)
                ring = r.get();
        if (!ring) {
            rings.push_back(std::make_unique<Ring>(cap, self));
            ring = rings.back().get();
        }
        tlCache = Cache{id, ring};
        return *ring;
    }

    /** Source of process-unique set ids. The thread-local cache is
     *  keyed on the id rather than the address, so a set allocated
     *  where a destroyed one lived never inherits a stale ring. */
    static inline std::atomic<std::uint64_t> idCounter{0};
    static inline thread_local Cache tlCache{};

    std::size_t cap;
    std::uint64_t id;
    mutable std::mutex mtx;
    std::vector<std::unique_ptr<Ring>> rings;
};

} // namespace chameleon

#endif // CHAMELEON_OBS_THREAD_RINGS_HH
