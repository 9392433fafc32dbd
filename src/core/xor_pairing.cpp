#include "core/xor_pairing.h"

#include "obs/trace.h"
#include "par/thread_pool.h"

#include <algorithm>
#include <bit>
#include <queue>
#include <span>

namespace mcx {

namespace {

/// Two distinct terms, a < b.  Pairs order as (a, b), the tie-break order.
struct term_pair {
    uint32_t a, b;
    auto operator<=>(const term_pair&) const = default;
};

term_pair ordered(uint32_t x, uint32_t y)
{
    return x < y ? term_pair{x, y} : term_pair{y, x};
}

uint64_t hash(uint32_t a, uint32_t b)
{
    return ((uint64_t{a} << 32) | b) * 0x9E3779B97F4A7C15ull;
}

/// A queued pair at the count it had when queued.  Entries order by
/// (count, a, b), so the heap's top is the pair to extract next.
struct heap_entry {
    uint32_t count;
    term_pair pair;
    auto operator<=>(const heap_entry&) const = default;
};

/// Pair → count table: open addressing with linear probing over one flat
/// array of 12-byte slots, grown at half load.  Entries are never erased.
class pair_table {
public:
    explicit pair_table(size_t expected = 0)
    {
        rehash(std::max<size_t>(16, std::bit_ceil(2 * expected)));
    }

    /// The count of `p`, inserted at zero if absent.  The reference is
    /// valid until the next insertion.
    uint32_t& operator[](term_pair p)
    {
        auto i = home(p);
        for (; slots_[i].pair != p; i = (i + 1) & mask_)
            if (is_empty(slots_[i])) {
                if (2 * (size_ + 1) > slots_.size()) {
                    rehash(2 * slots_.size());
                    return (*this)[p];
                }
                ++size_;
                slots_[i].pair = p;
                break;
            }
        return slots_[i].count;
    }

    /// The count of `p`, or nullptr if absent.
    uint32_t* find(term_pair p)
    {
        for (auto i = home(p);; i = (i + 1) & mask_) {
            if (slots_[i].pair == p)
                return &slots_[i].count;
            if (is_empty(slots_[i]))
                return nullptr;
        }
    }

    template <class F>
    void for_each(F&& f) const
    {
        for (const auto& s : slots_)
            if (!is_empty(s))
                f(s.pair, s.count);
    }

private:
    struct slot {
        term_pair pair; ///< (0, 0), no pair, marks an empty slot
        uint32_t count;
    };

    static bool is_empty(const slot& s) { return s.pair.a == s.pair.b; }

    size_t home(term_pair p) const { return hash(p.a, p.b) >> shift_; }

    void rehash(size_t capacity)
    {
        auto old = std::move(slots_);
        slots_.assign(capacity, slot{{0, 0}, 0});
        mask_ = capacity - 1;
        shift_ = 64 - std::countr_zero(capacity);
        for (const auto& s : old)
            if (!is_empty(s)) {
                auto i = home(s.pair);
                while (!is_empty(slots_[i]))
                    i = (i + 1) & mask_;
                slots_[i] = s;
            }
    }

    std::vector<slot> slots_;
    size_t mask_ = 0;
    int shift_ = 0;
    size_t size_ = 0;
};

} // namespace

pair_plan extract_pairs(std::vector<linear_row>& rows, uint32_t first_pair,
                        thread_pool* pool, const cancellation_token& token)
{
    pair_plan result;
    auto& plan = result.pairs;

    // The rows holding each term, as offset-indexed lists: terminals get
    // theirs here, a planned pair gets the rows it replaced a pair in when
    // it is extracted (a term never joins a row later).
    std::vector<uint32_t> terminal_begin(first_pair + 1, 0);
    std::vector<uint32_t> terminal_rows;
    std::vector<uint32_t> pair_begin{0};
    std::vector<uint32_t> pair_rows;
    const auto rows_of = [&](uint32_t term) -> std::span<const uint32_t> {
        if (term < first_pair)
            return {terminal_rows.data() + terminal_begin[term],
                    terminal_rows.data() + terminal_begin[term + 1]};
        const auto k = term - first_pair;
        return {pair_rows.data() + pair_begin[k],
                pair_rows.data() + pair_begin[k + 1]};
    };

    // A pair's count only falls once the extraction that created it is
    // over (seeding creates the terminal pairs), so a pair that does not
    // repeat then never will.  The extraction's table therefore holds only
    // the pairs created with a count of at least 2.
    std::vector<heap_entry> seeded;
    {
        // Seeding: count every pair of every row.  The quadratic per-row
        // loops split by outer term over one table per worker; each task
        // fills one table and skips the outer terms of the others, so even
        // a single very wide row (a hash accumulator row can dominate the
        // whole Σwidth² budget) spreads over the team, and no counts need
        // merging.  Counts are sums: they do not depend on the schedule.
        obs::trace::trace_span seed_span{"phase.xor-seed"};
        for (const auto& terms : rows)
            for (const auto t : terms)
                ++terminal_begin[t + 1];
        for (uint32_t t = 0; t < first_pair; ++t)
            terminal_begin[t + 1] += terminal_begin[t];
        terminal_rows.resize(terminal_begin[first_pair]);
        {
            auto fill = terminal_begin;
            for (uint32_t r = 0; r < rows.size(); ++r)
                for (const auto t : rows[r])
                    terminal_rows[fill[t]++] = r;
        }
        const uint64_t tables = pool != nullptr ? pool->num_workers() : 1;
        std::vector<pair_table> seed_tables(tables);
        const auto table_of = [&](uint32_t outer) {
            return (hash(0, outer) >> 32) * tables >> 32;
        };
        const auto count_table = [&](size_t table) {
            for (const auto& t : rows)
                for (size_t a = 0; a + 1 < t.size(); ++a)
                    if (table_of(t[a]) == table)
                        for (size_t b = a + 1; b < t.size(); ++b)
                            ++seed_tables[table][{t[a], t[b]}];
        };
        if (tables == 1)
            count_table(0);
        else
            pool->parallel_for(0, tables, [&](size_t table, uint32_t) {
                count_table(table);
            });
        size_t repeating = 0;
        for (const auto& table : seed_tables)
            table.for_each([&](term_pair, uint32_t c) { repeating += c >= 2; });
        seeded.reserve(repeating);
        for (const auto& table : seed_tables)
            table.for_each([&](term_pair p, uint32_t c) {
                if (c >= 2)
                    seeded.push_back({c, p});
            });
        seed_span.set_arg(seeded.size());
    }

    // Extraction.  The heap holds, for every pair whose count is at least
    // 2, an entry at no less than its count: an extraction only lowers the
    // counts of pairs it does not create, and it pushes each pair it
    // creates once, at its final count.  So the top entry, if its count
    // is current, is the live pair of highest (count, a, b); a stale one
    // is requeued at its lower count.  `live` ends the loop the moment no
    // pair repeats, leaving the stale entries unpopped.
    obs::trace::trace_span pair_span{"phase.xor-pair"};
    pair_table counts{seeded.size()};
    for (const auto& [c, p] : seeded)
        counts[p] = c;
    uint64_t live = seeded.size(); // pairs whose count is at least 2
    std::priority_queue<heap_entry> heap{{}, std::move(seeded)};
    // The pairs (t, id) an extraction creates are counted per t in
    // `fresh`; only those that repeat enter the table.
    std::vector<uint32_t> fresh(first_pair, 0);
    std::vector<uint32_t> raised;   // the t with fresh[t] != 0
    std::vector<uint32_t> replaced; // the rows it replaced its pair in
    const auto lower = [&](term_pair p) {
        if (auto* c = counts.find(p); c != nullptr && (*c)-- == 2)
            --live;
    };
    uint64_t extract_steps = 0;
    while (live != 0) {
        if ((++extract_steps & 1023u) == 0 && token.stop_requested()) {
            const auto reason = token.stop_reason();
            result.status = reason == outcome::ok ? outcome::cancelled
                                                  : reason;
            break;
        }
        const auto [count, p] = heap.top();
        heap.pop();
        const auto current = *counts.find(p); // every queued pair is in
        if (current != count) {
            if (current >= 2 && current < count)
                heap.push({current, p});
            continue;
        }
        const auto [a, b] = p;
        const auto id = first_pair + static_cast<uint32_t>(plan.size());
        plan.push_back({a, b});
        fresh.push_back(0);

        replaced.clear();
        for (const auto r : rows_of(a)) {
            auto& terms = rows[r];
            if (!std::binary_search(terms.begin(), terms.end(), a) ||
                !std::binary_search(terms.begin(), terms.end(), b))
                continue;
            for (const auto t : terms)
                if (t != a && t != b) {
                    lower(ordered(a, t));
                    lower(ordered(b, t));
                    if (fresh[t]++ == 0)
                        raised.push_back(t);
                }
            lower(p);
            std::erase_if(terms, [&](uint32_t t) { return t == a || t == b; });
            terms.push_back(id);
            replaced.push_back(r);
        }
        pair_rows.insert(pair_rows.end(), replaced.begin(), replaced.end());
        pair_begin.push_back(static_cast<uint32_t>(pair_rows.size()));
        for (const auto t : raised) {
            if (fresh[t] >= 2) {
                const term_pair created{t, id}; // t < id
                counts[created] = fresh[t];
                heap.push({fresh[t], created});
                ++live;
            }
            fresh[t] = 0;
        }
        raised.clear();
    }
    pair_span.set_arg(plan.size());
    return result;
}

} // namespace mcx
