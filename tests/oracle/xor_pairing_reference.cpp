#include "oracle/xor_pairing_reference.h"

#include "par/thread_pool.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

namespace mcx::oracle {

pair_plan extract_pairs_reference(std::vector<linear_row>& rows,
                                  uint32_t first_pair, thread_pool* pool,
                                  const cancellation_token& token)
{
    pair_plan result;
    auto& plan = result.pairs;
    const uint32_t seed_workers =
        pool != nullptr ? pool->num_workers() : 1;

    using term_pair = std::pair<uint32_t, uint32_t>;
    struct pair_hash {
        size_t operator()(const term_pair& p) const
        {
            return (static_cast<size_t>(p.first) << 32) ^ p.second;
        }
    };
    using pair_counts = std::unordered_map<term_pair, uint32_t, pair_hash>;
    pair_counts pair_count;
    std::unordered_map<uint32_t, std::vector<uint32_t>> rows_of_term;
    std::priority_queue<std::pair<uint32_t, term_pair>> heap;

    const auto ordered = [](uint32_t a, uint32_t b) {
        return a < b ? term_pair{a, b} : term_pair{b, a};
    };
    const auto bump = [&](uint32_t a, uint32_t b, int delta) {
        const auto key = ordered(a, b);
        auto& count = pair_count[key];
        count = static_cast<uint32_t>(static_cast<int>(count) + delta);
        if (delta > 0 && count >= 2)
            heap.push({count, key});
    };

    // Seeding: count every pair of every row, in (row, outer-index-range)
    // chunks, each worker into its own map; the maps merge afterwards.
    struct seed_chunk {
        uint32_t row;        ///< index of a row
        uint32_t begin, end; ///< outer-index range [begin, end)
    };
    std::vector<seed_chunk> chunks;
    {
        uint64_t total_pairs = 0;
        for (uint32_t r = 0; r < rows.size(); ++r) {
            for (const auto t : rows[r])
                rows_of_term[t].push_back(r);
            const uint64_t w = rows[r].size();
            total_pairs += w * (w - 1) / 2;
        }
        const uint64_t chunk_target = std::max<uint64_t>(
            4096, total_pairs / (uint64_t{8} * seed_workers + 1));
        for (uint32_t r = 0; r < rows.size(); ++r) {
            const auto w = static_cast<uint32_t>(rows[r].size());
            uint32_t begin = 0;
            uint64_t acc = 0;
            for (uint32_t a = 0; a + 1 < w; ++a) {
                acc += w - a - 1; // pairs contributed by outer index a
                if (acc >= chunk_target) {
                    chunks.push_back({r, begin, a + 1});
                    begin = a + 1;
                    acc = 0;
                }
            }
            if (begin + 1 < w)
                chunks.push_back({r, begin, w - 1});
        }
    }
    std::vector<pair_counts> local(seed_workers);
    const auto count_chunk = [&](size_t i, uint32_t worker) {
        const auto& chunk = chunks[i];
        const auto& t = rows[chunk.row];
        auto& counts = local[worker];
        for (size_t a = chunk.begin; a < chunk.end; ++a)
            for (size_t b = a + 1; b < t.size(); ++b)
                ++counts[{t[a], t[b]}];
    };
    if (pool != nullptr)
        pool->parallel_for(0, chunks.size(), count_chunk);
    else
        for (size_t i = 0; i < chunks.size(); ++i)
            count_chunk(i, 0);
    for (const auto& counts : local)
        for (const auto& [key, c] : counts)
            pair_count[key] += c;
    local.clear();
    for (const auto& [key, c] : pair_count)
        if (c >= 2)
            heap.push({c, key});

    uint64_t extract_steps = 0;
    while (!heap.empty()) {
        if ((++extract_steps & 1023u) == 0 && token.stop_requested()) {
            const auto reason = token.stop_reason();
            result.status = reason == outcome::ok ? outcome::cancelled
                                                  : reason;
            break;
        }
        const auto [count, key] = heap.top();
        heap.pop();
        const auto it = pair_count.find(key);
        if (it == pair_count.end() || it->second != count) {
            // Stale entry: if the pair still qualifies with its decreased
            // count, requeue it at that count (strictly smaller each time,
            // so this terminates).
            if (it != pair_count.end() && it->second >= 2 &&
                it->second < count)
                heap.push({it->second, key});
            continue;
        }
        if (count < 2)
            break;
        const auto [a, b] = key;
        const auto id = first_pair + static_cast<uint32_t>(plan.size());
        plan.push_back({a, b});

        for (const auto r : rows_of_term[a]) {
            auto& terms = rows[r];
            if (!std::binary_search(terms.begin(), terms.end(), a) ||
                !std::binary_search(terms.begin(), terms.end(), b))
                continue;
            // Update counts for every other term of this row.
            for (const auto t : terms)
                if (t != a && t != b) {
                    bump(a, t, -1);
                    bump(b, t, -1);
                    bump(id, t, +1);
                }
            bump(a, b, -1);
            std::erase_if(terms, [&](uint32_t t) { return t == a || t == b; });
            terms.push_back(id);
            rows_of_term[id].push_back(r);
        }
    }
    return result;
}

} // namespace mcx::oracle
