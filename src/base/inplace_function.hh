/**
 * @file
 * A fixed-capacity, never-allocating stand-in for std::function<void()>.
 *
 * Simulator events fire millions of times per run, and the common
 * completion captures (an object pointer, a window slot and sequence
 * number, and an epoch) exceed libstdc++'s 16-byte small-object
 * buffer, so std::function pays a malloc/free round trip per scheduled
 * event.
 * InplaceFunction stores the callable inline and rejects oversized
 * callables at compile time instead of spilling to the heap.
 */

#ifndef CWSIM_BASE_INPLACE_FUNCTION_HH
#define CWSIM_BASE_INPLACE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace cwsim
{

class InplaceFunction
{
  public:
    /** Large enough for every event capture in the simulator. */
    static constexpr size_t buffer_size = 48;

    InplaceFunction() noexcept = default;
    InplaceFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction>>>
    InplaceFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= buffer_size,
                      "callable too large for InplaceFunction; grow "
                      "buffer_size or shrink the capture");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "callable over-aligned for InplaceFunction");
        new (buf) Fn(std::forward<F>(f));
        vt = &vtable_for<Fn>;
    }

    InplaceFunction(const InplaceFunction &o) : vt(o.vt)
    {
        if (vt)
            vt->copy(buf, o.buf);
    }

    InplaceFunction(InplaceFunction &&o) noexcept : vt(o.vt)
    {
        if (vt) {
            vt->relocate(buf, o.buf);
            o.vt = nullptr;
        }
    }

    InplaceFunction &
    operator=(const InplaceFunction &o)
    {
        if (this != &o) {
            destroy();
            vt = o.vt;
            if (vt)
                vt->copy(buf, o.buf);
        }
        return *this;
    }

    InplaceFunction &
    operator=(InplaceFunction &&o) noexcept
    {
        if (this != &o) {
            destroy();
            vt = o.vt;
            if (vt) {
                vt->relocate(buf, o.buf);
                o.vt = nullptr;
            }
        }
        return *this;
    }

    ~InplaceFunction() { destroy(); }

    void operator()() { vt->invoke(buf); }

    explicit operator bool() const noexcept { return vt != nullptr; }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        void (*copy)(void *dst, const void *src);
        /** Move-construct into @p dst and destroy @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr VTable vtable_for{
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, const void *src) {
            new (dst) Fn(*static_cast<const Fn *>(src));
        },
        [](void *dst, void *src) {
            Fn *s = static_cast<Fn *>(src);
            new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    destroy()
    {
        if (vt) {
            vt->destroy(buf);
            vt = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[buffer_size];
    const VTable *vt = nullptr;
};

} // namespace cwsim

#endif // CWSIM_BASE_INPLACE_FUNCTION_HH
