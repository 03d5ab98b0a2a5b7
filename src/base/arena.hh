/**
 * @file
 * A bump-pointer arena for per-run heap churn, plus an STL allocator
 * adaptor so node-based containers (std::unordered_map) and small
 * vectors can draw from it.
 *
 * Its one client is the data cache's MSHR map: a node and a target
 * list per outstanding miss, created and destroyed millions of times
 * per run, none outliving the Processor that owns them. An arena turns
 * each of those malloc/free pairs into a pointer bump and a no-op:
 * memory is reclaimed wholesale by reset() between runs, when no
 * arena-backed object is alive.
 *
 * Lifetime rules (see DESIGN.md §15):
 *  - runArena() returns this thread's arena; sweep workers are
 *    threads, so runs never share one.
 *  - Everything allocated from the arena must be destroyed before
 *    reset(). The harness resets only after the Processor for a run
 *    has been destructed.
 *  - reset() keeps the chunks, so the second run onward allocates out
 *    of warm, already-faulted memory.
 */

#ifndef CWSIM_BASE_ARENA_HH
#define CWSIM_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

namespace cwsim
{

class Arena
{
  public:
    explicit Arena(size_t chunk_bytes = 1u << 18) : chunkBytes(chunk_bytes) {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    void *
    allocate(size_t bytes, size_t align)
    {
        uintptr_t p = (cur + (align - 1)) & ~(uintptr_t(align) - 1);
        if (p + bytes > chunkEnd) [[unlikely]]
            return allocateSlow(bytes, align);
        cur = p + bytes;
        return reinterpret_cast<void *>(p);
    }

    /** Individual frees are no-ops; reset() reclaims everything. */
    void deallocate(void *, size_t) {}

    /**
     * Rewind to empty, keeping every chunk for reuse. Must not be
     * called while any arena-backed object is alive.
     */
    void
    reset()
    {
        active = 0;
        if (!chunks.empty()) {
            cur = reinterpret_cast<uintptr_t>(chunks[0].mem.get());
            chunkEnd = cur + chunks[0].bytes;
        } else {
            cur = 0;
            chunkEnd = 0;
        }
    }

    /** Total bytes reserved across all chunks (growth diagnostic). */
    size_t
    reservedBytes() const
    {
        size_t n = 0;
        for (const Chunk &c : chunks)
            n += c.bytes;
        return n;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> mem;
        size_t bytes;
    };

    void *
    allocateSlow(size_t bytes, size_t align)
    {
        // Advance through already-reserved chunks first (post-reset
        // reuse); only reserve a new one when all are exhausted. An
        // oversized request gets a dedicated chunk so chunkBytes need
        // not anticipate the largest vector the window ever grows.
        size_t need = bytes + align;
        while (active + 1 < chunks.size()) {
            ++active;
            if (chunks[active].bytes >= need) {
                cur = reinterpret_cast<uintptr_t>(chunks[active].mem.get());
                chunkEnd = cur + chunks[active].bytes;
                return allocate(bytes, align);
            }
        }
        size_t sz = need > chunkBytes ? need : chunkBytes;
        chunks.push_back(Chunk{std::make_unique<std::byte[]>(sz), sz});
        active = chunks.size() - 1;
        cur = reinterpret_cast<uintptr_t>(chunks.back().mem.get());
        chunkEnd = cur + sz;
        return allocate(bytes, align);
    }

    size_t chunkBytes;
    std::vector<Chunk> chunks;
    size_t active = 0;
    uintptr_t cur = 0;
    uintptr_t chunkEnd = 0;
};

/**
 * This thread's per-run arena. The harness resets it between runs;
 * code that does not go through the harness simply never resets it,
 * which wastes memory but is always correct.
 */
Arena &runArena();

/**
 * STL allocator drawing from a fixed Arena. Default-constructs bound
 * to runArena(), so container members need no explicit plumbing.
 */
template <class T>
class ArenaAlloc
{
  public:
    using value_type = T;

    ArenaAlloc() : arena(&runArena()) {}
    explicit ArenaAlloc(Arena &a) : arena(&a) {}
    template <class U>
    ArenaAlloc(const ArenaAlloc<U> &o) : arena(o.arena)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(
            arena->allocate(n * sizeof(T), alignof(T)));
    }

    void
    deallocate(T *p, size_t n)
    {
        arena->deallocate(p, n * sizeof(T));
    }

    template <class U>
    bool
    operator==(const ArenaAlloc<U> &o) const
    {
        return arena == o.arena;
    }
    template <class U>
    bool
    operator!=(const ArenaAlloc<U> &o) const
    {
        return arena != o.arena;
    }

    Arena *arena;
};

/** Containers bound to the current thread's run arena by default. */
template <class T>
using ArenaVec = std::vector<T, ArenaAlloc<T>>;

template <class K, class V, class Hash = std::hash<K>>
using ArenaMap = std::unordered_map<K, V, Hash, std::equal_to<K>,
                                    ArenaAlloc<std::pair<const K, V>>>;

} // namespace cwsim

#endif // CWSIM_BASE_ARENA_HH
