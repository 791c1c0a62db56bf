#ifndef PISO_CORE_SPU_TABLE_HH
#define PISO_CORE_SPU_TABLE_HH

/**
 * @file
 * Dense tables keyed by small integer ids.
 *
 * SPU ids (and disk ids, cpu ids, ...) are small and dense: a machine
 * has a handful of them and they are allocated from 0 upward. Keying
 * hot per-tick state with std::map<SpuId, T> pays a red-black-tree
 * walk and a pointer chase per access; DenseTable stores the same
 * mapping in a flat vector indexed by id, so lookup is an array probe
 * and iteration is a linear scan that still visits entries in
 * ascending id order — the same order std::map iteration produced,
 * which keeps every output byte-identical after migration.
 */

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"
#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

/**
 * Flat-vector map from a dense non-negative integer id to T.
 *
 * Semantics follow the std::map subset the simulator uses:
 * operator[] default-constructs missing entries, find returns nullptr
 * when absent, erase forgets an entry, and iteration yields
 * (id, reference) pairs in ascending id order. Negative ids are a
 * programming error and panic.
 */
template <typename Id, typename T>
class DenseTable
{
    static_assert(std::is_integral_v<Id> || std::is_enum_v<Id>,
                  "DenseTable keys must be integral ids");

  public:
    DenseTable() = default;

    /** Build from explicit (id, value) pairs (tests, partition specs). */
    DenseTable(std::initializer_list<std::pair<Id, T>> init)
    {
        for (const auto &[id, value] : init)
            (*this)[id] = value;
    }

    /** Access the entry for @p id, default-constructing it if absent. */
    T &
    operator[](Id id)
    {
        const std::size_t i = checkedIndex(id);
        if (i >= slots_.size())
            slots_.resize(i + 1);
        std::optional<T> &slot = slots_[i];
        if (!slot) {
            slot.emplace();
            ++count_;
        }
        return *slot;
    }

    /** @return the entry for @p id, or nullptr when absent. */
    T *
    find(Id id)
    {
        const std::size_t i = static_cast<std::size_t>(id);
        if (static_cast<long long>(id) < 0 || i >= slots_.size() ||
            !slots_[i])
            return nullptr;
        return &*slots_[i];
    }

    const T *
    find(Id id) const
    {
        return const_cast<DenseTable *>(this)->find(id);
    }

    /** True when an entry exists for @p id. */
    bool contains(Id id) const { return find(id) != nullptr; }

    /** 1 when an entry exists for @p id, else 0 (std::map::count). */
    std::size_t count(Id id) const { return contains(id) ? 1 : 0; }

    /** The entry for @p id; fatal when absent (std::map::at). */
    T &
    at(Id id)
    {
        T *p = find(id);
        if (!p)
            PISO_FATAL("dense table has no entry for id ",
                       static_cast<long long>(id));
        return *p;
    }

    const T &
    at(Id id) const
    {
        return const_cast<DenseTable *>(this)->at(id);
    }

    /**
     * Default-construct an entry for @p id if absent.
     * @return true when a new entry was created.
     */
    bool
    tryEmplace(Id id)
    {
        const std::size_t i = checkedIndex(id);
        if (i >= slots_.size())
            slots_.resize(i + 1);
        if (slots_[i])
            return false;
        slots_[i].emplace();
        ++count_;
        return true;
    }

    /** Forget the entry for @p id (no-op when absent). */
    void
    erase(Id id)
    {
        const std::size_t i = static_cast<std::size_t>(id);
        if (static_cast<long long>(id) < 0 || i >= slots_.size() ||
            !slots_[i])
            return;
        slots_[i].reset();
        --count_;
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    void
    clear()
    {
        slots_.clear();
        count_ = 0;
    }

    /** All present ids, ascending. */
    std::vector<Id>
    ids() const
    {
        std::vector<Id> out;
        out.reserve(count_);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i])
                out.push_back(static_cast<Id>(i));
        }
        return out;
    }

    template <bool Const>
    class Iter
    {
        using Vec = std::conditional_t<Const,
                                       const std::vector<std::optional<T>>,
                                       std::vector<std::optional<T>>>;
        using Ref = std::conditional_t<Const, const T &, T &>;

      public:
        Iter(Vec *v, std::size_t i) : v_(v), i_(i) { skipEmpty(); }

        std::pair<Id, Ref>
        operator*() const
        {
            return {static_cast<Id>(i_), *(*v_)[i_]};
        }

        Iter &
        operator++()
        {
            ++i_;
            skipEmpty();
            return *this;
        }

        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        void
        skipEmpty()
        {
            while (i_ < v_->size() && !(*v_)[i_])
                ++i_;
        }

        Vec *v_;
        std::size_t i_;
    };

    /**
     * Image the table: present-entry count, then (id, value) pairs in
     * ascending id order, with @p value(T&) imaging each value.
     * Loading rebuilds the table from default-constructed entries and
     * rejects (ConfigError) an id that is not strictly ascending or not
     * below @p idBound, which the caller takes from the replayed
     * configuration (the SPU or pid count), so no image can size the
     * table.
     */
    template <typename Fn>
    void
    table(CkptIo &io, std::size_t idBound, Fn &&value)
    {
        const std::size_t n = io.count(count_);
        if (!io.loading()) {
            for (std::size_t i = 0; i < slots_.size(); ++i) {
                if (slots_[i]) {
                    io.u64(i);
                    value(*slots_[i]);
                }
            }
            return;
        }
        clear();
        std::size_t next = 0;
        for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t id = 0;
            io.u64(id);
            if (id < next || id >= idBound) {
                throw ConfigError(
                    "checkpoint image rejected: table id " +
                    std::to_string(id) + " is out of order or not below " +
                    std::to_string(idBound));
            }
            next = static_cast<std::size_t>(id) + 1;
            value((*this)[static_cast<Id>(id)]);
        }
    }

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(&slots_, 0); }
    iterator end() { return iterator(&slots_, slots_.size()); }
    const_iterator begin() const { return const_iterator(&slots_, 0); }
    const_iterator end() const
    {
        return const_iterator(&slots_, slots_.size());
    }

  private:
    std::size_t
    checkedIndex(Id id) const
    {
        PISO_INVARIANT(static_cast<long long>(id) >= 0,
                       "dense table id is negative: ",
                       static_cast<long long>(id));
        return static_cast<std::size_t>(id);
    }

    std::vector<std::optional<T>> slots_;
    std::size_t count_ = 0;
};

/** Per-SPU state table; the simulator's dominant map shape. */
template <typename T>
using SpuTable = DenseTable<SpuId, T>;

} // namespace piso

#endif // PISO_CORE_SPU_TABLE_HH
