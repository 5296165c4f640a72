/**
 * @file
 * Zero-initialized flat buffer backed by its own anonymous mapping.
 *
 * Large per-simulation tables (the GroundTruth damage cells, and the
 * per-row counter tables of Hydra, START and PRAC: 16 MB each at the
 * default 2M rows/rank x 4 ranks) are built once per System, and a
 * System is built per scenario cell. `std::vector<T>(n)` memsets the
 * whole allocation up front, and at that rate the zeroing dominated
 * set-up. A private anonymous mapping instead costs O(1) to create:
 * the kernel zero-fills each page on first touch, and pages the run
 * never touches never cost physical memory.
 *
 * Why mmap and not calloc: calloc only hands back fresh zero pages
 * while the request is above glibc's mmap threshold. After the first
 * free of a large block glibc raises that threshold to the freed size
 * (capped at 32 MB), so the second and later 4-16 MB calloc of a
 * process came from the heap and was memset in full. Measured on the
 * tracker-grid workload, calloc-backed tracker tables cut set-up time
 * but raised peak RSS above the dense vectors; only a mapping of our
 * own gives the lazy zero on every build.
 *
 * clear() contract: afterwards every element reads zero again and
 * size() is unchanged. It drops the pages with madvise(MADV_DONTNEED),
 * which on a private anonymous mapping makes the next read of each
 * page see fresh zero-fill; the cost is proportional to the pages that
 * were touched since the last clear, not to the table size.
 *
 * T must be trivially copyable with all-zero-bytes as its zero value
 * (the mapped storage is never constructed; C++20 implicit lifetime).
 */

#ifndef DAPPER_COMMON_ZEROED_BUFFER_HH
#define DAPPER_COMMON_ZEROED_BUFFER_HH

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

#include "src/common/check.hh"

namespace dapper {

template <typename T>
class ZeroedBuffer
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedBuffer requires trivially copyable T");

  public:
    ZeroedBuffer() = default;
    explicit ZeroedBuffer(std::size_t n) { reset(n); }
    ~ZeroedBuffer() { unmap(); }

    ZeroedBuffer(const ZeroedBuffer &) = delete;
    ZeroedBuffer &operator=(const ZeroedBuffer &) = delete;

    ZeroedBuffer(ZeroedBuffer &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          n_(std::exchange(other.n_, 0))
    {
    }

    ZeroedBuffer &
    operator=(ZeroedBuffer &&other) noexcept
    {
        if (this != &other) {
            unmap();
            data_ = std::exchange(other.data_, nullptr);
            n_ = std::exchange(other.n_, 0);
        }
        return *this;
    }

    /** Drop the current contents and map @p n zeroed elements. */
    void
    reset(std::size_t n)
    {
        unmap();
        if (n == 0)
            return;
        DAPPER_CHECK(n <= std::numeric_limits<std::size_t>::max() /
                              sizeof(T),
                     "ZeroedBuffer: size overflows size_t");
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        DAPPER_CHECK(p != MAP_FAILED, "ZeroedBuffer: allocation failed");
        data_ = static_cast<T *>(p);
        n_ = n;
    }

    /** Make every element read zero again; O(touched pages). */
    void
    clear()
    {
        if (n_ == 0)
            return;
        const int rc = ::madvise(data_, n_ * sizeof(T), MADV_DONTNEED);
        DAPPER_CHECK(rc == 0, "ZeroedBuffer: madvise failed");
    }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    std::size_t size() const { return n_; }

  private:
    void
    unmap()
    {
        if (data_ != nullptr)
            ::munmap(data_, n_ * sizeof(T));
        data_ = nullptr;
        n_ = 0;
    }

    T *data_ = nullptr;
    std::size_t n_ = 0;
};

} // namespace dapper

#endif // DAPPER_COMMON_ZEROED_BUFFER_HH
