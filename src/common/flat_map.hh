/**
 * @file
 * Flat open-addressing hash map keyed on 64-bit values, for bounded
 * hot-path tables (the LLC MSHR file). Compared to std::unordered_map
 * it does no per-entry allocation: keys and values live in two flat
 * arrays sized once at construction, lookups are a linear probe over a
 * contiguous key lane, and erase uses backward-shift deletion so there
 * are no tombstones to accumulate.
 *
 * Constraints, chosen for the MSHR use case:
 *  - capacity is fixed at construction (the caller bounds occupancy —
 *    MSHR count — itself; the table is sized for load factor <= 0.5);
 *  - keys must never equal kEmptyKey (~0), which is the empty sentinel;
 *  - Value must be movable; values are moved during backward-shift.
 */

#ifndef DAPPER_COMMON_FLAT_MAP_HH
#define DAPPER_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.hh"
#include "src/common/rng.hh"

namespace dapper {

template <typename Value>
class FlatMap64
{
  public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t(0);

    /** Table sized for at most @p maxEntries live entries. */
    explicit FlatMap64(std::size_t maxEntries)
    {
        std::size_t cap = 16;
        while (cap < maxEntries * 2)
            cap <<= 1;
        mask_ = cap - 1;
        keys_.assign(cap, kEmptyKey);
        values_.resize(cap);
    }

    std::size_t size() const { return size_; }

    /** Pointer to the value for @p key, or nullptr. */
    Value *
    find(std::uint64_t key)
    {
        for (std::size_t i = bucket(key);; i = (i + 1) & mask_) {
            if (keys_[i] == key)
                return &values_[i];
            if (keys_[i] == kEmptyKey)
                return nullptr;
        }
    }

    /**
     * Insert @p value under @p key (not already present; the caller
     * keeps occupancy below the construction bound).
     */
    void
    insert(std::uint64_t key, Value value)
    {
        DAPPER_CHECK(key != kEmptyKey, "FlatMap64: reserved key");
        DAPPER_CHECK(size_ * 2 <= mask_ + 1, "FlatMap64: table full");
        std::size_t i = bucket(key);
        while (keys_[i] != kEmptyKey)
            i = (i + 1) & mask_;
        keys_[i] = key;
        values_[i] = std::move(value);
        ++size_;
    }

    /** Remove @p key if present; returns whether it was. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = bucket(key);
        for (;; i = (i + 1) & mask_) {
            if (keys_[i] == kEmptyKey)
                return false;
            if (keys_[i] == key)
                break;
        }
        // Backward-shift: pull displaced successors into the hole so
        // every probe chain stays contiguous (no tombstones).
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
            if (keys_[j] == kEmptyKey)
                break;
            const std::size_t home = bucket(keys_[j]);
            // j's entry may move to the hole only if the hole lies
            // between its home slot and j (cyclically); otherwise the
            // move would break the probe chain from home.
            const bool movable =
                ((j - home) & mask_) >= ((j - hole) & mask_);
            if (movable) {
                keys_[hole] = keys_[j];
                values_[hole] = std::move(values_[j]);
                hole = j;
            }
        }
        keys_[hole] = kEmptyKey;
        values_[hole] = Value{};
        --size_;
        return true;
    }

    /** Drop every entry; capacity is retained. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (std::size_t i = 0; i <= mask_; ++i) {
            if (keys_[i] == kEmptyKey)
                continue;
            keys_[i] = kEmptyKey;
            values_[i] = Value{};
        }
        size_ = 0;
    }

  private:
    std::size_t bucket(std::uint64_t key) const
    {
        return static_cast<std::size_t>(mixHash64(key)) & mask_;
    }

    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::vector<std::uint64_t> keys_;
    std::vector<Value> values_;
};

} // namespace dapper

#endif // DAPPER_COMMON_FLAT_MAP_HH
