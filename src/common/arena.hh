/**
 * @file
 * Fixed-footprint containers for the simulator's issue/completion hot
 * paths, replacing node- and block-allocating standard containers so
 * the steady state performs no heap traffic at all:
 *
 *  - RingDeque<T>: a bounded deque over one contiguous ring buffer.
 *    Drop-in for the std::deque operations the memory-controller
 *    request queues use (push_back / push_front / indexed access /
 *    indexed middle erase). Capacity is fixed at
 *    construction — the controller already enforces the queue caps —
 *    so elements never move between blocks and nothing allocates
 *    after construction. erase() shifts whichever side of the hole is
 *    shorter, preserving order exactly like std::deque::erase.
 *    The ring storage is raw, uninitialized memory: a slot holds an
 *    object only once a push has copied one in. Building a ring is
 *    then O(1) whatever its capacity (each memory controller owns
 *    three, 5,120 64-byte Requests in all, and a System is built per
 *    scenario cell). That is only sound for trivially copyable,
 *    trivially destructible T, which a static_assert enforces: a push
 *    into a never-constructed slot is a plain copy, and popped or
 *    erased slots need no destructor call.
 *
 *  - FreeListArena<T>: an index-addressed object pool with an
 *    intrusive free list. alloc() returns a stable std::int32_t handle
 *    (indices survive pool growth; pointers would not), release()
 *    recycles it. Used for the LLC's MSHR waiter chains, whose
 *    per-miss std::vector allocations were the last allocator traffic
 *    on the miss path.
 */

#ifndef DAPPER_COMMON_ARENA_HH
#define DAPPER_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.hh"

namespace dapper {

template <typename T>
class RingDeque
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "RingDeque storage is uninitialized: T must be "
                  "trivially copyable and trivially destructible");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "RingDeque storage comes from plain operator new");

  public:
    /** Holds at most @p capacity elements (rounded up to a power of
     *  two internally; the stated bound is what callers may rely on). */
    explicit RingDeque(std::size_t capacity)
    {
        std::size_t cap = 16;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        buf_.reset(static_cast<T *>(::operator new(cap * sizeof(T))));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return mask_ + 1; }

    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        DAPPER_CHECK(size_ <= mask_, "RingDeque: full");
        ::new (static_cast<void *>(&buf_[(head_ + size_) & mask_])) T(v);
        ++size_;
    }

    void
    push_front(const T &v)
    {
        DAPPER_CHECK(size_ <= mask_, "RingDeque: full");
        head_ = (head_ + mask_) & mask_;
        ::new (static_cast<void *>(&buf_[head_])) T(v);
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Remove the element at index @p pos; order is preserved (the
     *  shorter side of the hole is shifted, as std::deque::erase does). */
    void
    erase(std::size_t pos)
    {
        if (pos < size_ - 1 - pos) {
            for (std::size_t j = pos; j > 0; --j)
                (*this)[j] = std::move((*this)[j - 1]);
            head_ = (head_ + 1) & mask_;
        } else {
            for (std::size_t j = pos; j + 1 < size_; ++j)
                (*this)[j] = std::move((*this)[j + 1]);
        }
        --size_;
    }

  private:
    struct RawDelete
    {
        void operator()(T *p) const { ::operator delete(p); }
    };

    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::unique_ptr<T[], RawDelete> buf_; ///< Uninitialized slots.
};

template <typename T>
class FreeListArena
{
  public:
    static constexpr std::int32_t kNone = -1;

    explicit FreeListArena(std::size_t reserve = 0)
    {
        pool_.reserve(reserve);
        nextFree_.reserve(reserve);
    }

    /** Stable handle to a slot holding a copy of @p value. */
    std::int32_t
    alloc(const T &value)
    {
        if (freeHead_ != kNone) {
            const std::int32_t i = freeHead_;
            freeHead_ = nextFree_[static_cast<std::size_t>(i)];
            pool_[static_cast<std::size_t>(i)] = value;
            return i;
        }
        pool_.push_back(value);
        nextFree_.push_back(kNone);
        return static_cast<std::int32_t>(pool_.size() - 1);
    }

    /** Recycle @p i; the slot may be handed out again immediately. */
    void
    release(std::int32_t i)
    {
        nextFree_[static_cast<std::size_t>(i)] = freeHead_;
        freeHead_ = i;
    }

    T &at(std::int32_t i) { return pool_[static_cast<std::size_t>(i)]; }
    const T &at(std::int32_t i) const
    {
        return pool_[static_cast<std::size_t>(i)];
    }

  private:
    std::vector<T> pool_;
    std::vector<std::int32_t> nextFree_; ///< Free-list links per slot.
    std::int32_t freeHead_ = kNone;
};

} // namespace dapper

#endif // DAPPER_COMMON_ARENA_HH
