#include "spectral/classification.h"

#include "tt/operations.h"
#include "tt/spectrum_words.h"
#include "tt/words.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace mcx {

std::vector<int32_t> walsh_spectrum(const truth_table& f)
{
    const auto n = f.num_vars();
    const size_t size = size_t{1} << n;
    std::vector<int32_t> s(size);
    if (n <= 6) {
        // Blocked butterfly over packed int8 lanes: seed ±1 lanes straight
        // from the truth-table word, then O(n) masked-shift/SWAR stages.
        std::array<uint64_t, 8> packed{};
        spectrum_from_truth_word(f.word(), static_cast<uint32_t>(size),
                                 packed.data());
        for (uint32_t w = 0; w < size; ++w)
            s[w] = spectrum_lane(packed.data(), w);
        return s;
    }
    for (size_t x = 0; x < size; ++x)
        s[x] = f.get_bit(x) ? -1 : 1;
    for (size_t len = 1; len < size; len <<= 1)
        for (size_t base = 0; base < size; base += 2 * len)
            for (size_t i = base; i < base + len; ++i) {
                const auto a = s[i];
                const auto b = s[i + len];
                s[i] = a + b;
                s[i + len] = a - b;
            }
    return s;
}

truth_table function_from_spectrum(std::span<const int32_t> spectrum,
                                   uint32_t num_vars)
{
    const size_t size = size_t{1} << num_vars;
    if (spectrum.size() != size)
        throw std::invalid_argument{"function_from_spectrum: wrong size"};
    if (num_vars <= 6) {
        // Same blocked butterfly, int16 lanes: a Boolean spectrum has
        // |s[w]| <= 2^n (reject anything wider up front), so every partial
        // butterfly sum fits a 16-bit lane.
        const auto bound = static_cast<int32_t>(size);
        std::array<uint64_t, 16> packed{};
        for (uint32_t w = 0; w < size; ++w) {
            if (spectrum[w] < -bound || spectrum[w] > bound)
                throw std::invalid_argument{
                    "function_from_spectrum: not a Boolean spectrum"};
            spectrum16_set_lane(packed.data(), w, spectrum[w]);
        }
        spectrum16_butterfly(packed.data(), static_cast<uint32_t>(size));
        truth_table f{num_vars};
        for (uint32_t x = 0; x < size; ++x) {
            const auto t = spectrum16_lane(packed.data(), x);
            if (t != bound && t != -bound)
                throw std::invalid_argument{
                    "function_from_spectrum: not a Boolean spectrum"};
            if (t == -bound)
                f.set_bit(x, true);
        }
        return f;
    }
    std::vector<int64_t> t(spectrum.begin(), spectrum.end());
    for (size_t len = 1; len < size; len <<= 1)
        for (size_t base = 0; base < size; base += 2 * len)
            for (size_t i = base; i < base + len; ++i) {
                const auto a = t[i];
                const auto b = t[i + len];
                t[i] = a + b;
                t[i + len] = a - b;
            }
    truth_table f{num_vars};
    for (size_t x = 0; x < size; ++x) {
        const auto value = t[x] / static_cast<int64_t>(size);
        if (value != 1 && value != -1)
            throw std::invalid_argument{
                "function_from_spectrum: not a Boolean spectrum"};
        if (value == -1)
            f.set_bit(x, true);
    }
    return f;
}

truth_table affine_transform::apply(const truth_table& representative) const
{
    std::vector<uint32_t> a_columns(num_vars);
    for (uint32_t k = 0; k < num_vars; ++k)
        a_columns[k] = mt_column(k);
    return apply_affine(representative, a_columns, c, v, output_complement);
}

namespace {

/// DFS state for the word-parallel lexicographic-maximum spectrum search.
///
/// Same search tree as the scalar reference search
/// (tests/oracle/classify_affine_baseline.h) — same candidate enumeration
/// order, the same dominance prune decisions, the same iteration
/// accounting, bit-identical results — with the per-candidate arithmetic
/// moved onto packed int8 spectrum lanes (src/tt/spectrum_words.h):
///
///  * a candidate block is at most four 64-bit words, carried around as its
///    lexicographic sort keys (spectrum_sort_key per word) — comparisons
///    are plain unsigned word compares, and the whole search performs no
///    heap allocation;
///  * candidates in the same coset of span{chosen columns} share one
///    gather: if m' = m ^ M d then block_{m'}[r] = block_m[r ^ d], so only
///    the first member of each coset is gathered lane by lane and every
///    mate is a lane XOR-translate (masked shifts + word swaps);
///  * the sign pattern sigma * (-1)^(c.r) is a byte mask applied with one
///    SWAR conditional negation per word instead of a multiply per entry;
///  * the dominance prune walks magnitude bucket counts against the
///    incumbent suffix instead of materializing and sorting the unused
///    coefficients — same comparison outcome, no sort;
///  * extending span{columns} by a candidate is popcount(m) masked word
///    shifts (tt_flip_word on the span bitset) instead of a 2^n loop.
class word_canonizer {
public:
    word_canonizer(const truth_table& f, const classification_params& params)
        : n_{f.num_vars()}, size_{1u << n_}, limit_{params.iteration_limit}
    {
        spec_packed_.fill(0);
        spectrum_from_truth_word(f.word(), size_, spec_packed_.data());
        unused_mag_.fill(0);
        for (uint32_t w = 0; w < size_; ++w) {
            spectrum_[w] = spectrum_lane(spec_packed_.data(), w);
            ++unused_mag_[std::abs(spectrum_[w])];
        }
    }

    classification_result run(const truth_table& f)
    {
        classification_result result;
        result.representative = truth_table{n_};

        int32_t max_abs = 0;
        for (uint32_t w = 0; w < size_; ++w)
            max_abs = std::max(max_abs, std::abs(spectrum_[w]));
        for (uint32_t w = 0; w < size_ && !aborted_; ++w) {
            if (std::abs(spectrum_[w]) != max_abs)
                continue;
            ++iterations_;
            if (iterations_ > limit_) {
                aborted_ = true;
                break;
            }
            v_ = w;
            sigma_ = spectrum_[w] < 0 ? -1 : 1;
            // g[u] = spectrum[u ^ v], the gather source for every block on
            // this branch.
            g_ = spec_packed_;
            spectrum_translate(g_.data(), size_, v_);
            neg_[1].fill(0);
            if (sigma_ < 0)
                neg_[1][0] = 0xff; // row 0 carries the output sign
            best_spectrum_[0] = max_abs;
            used_[w] = 1;
            --unused_mag_[max_abs];
            dfs(1);
            used_[w] = 0;
            ++unused_mag_[max_abs];
        }

        result.iterations = iterations_;
        result.success = !aborted_ && best_complete_;
        if (result.success) {
            result.representative = function_from_spectrum(
                std::span{best_spectrum_.data(), size_}, n_);
            result.transform = best_transform_;
            if (result.transform.apply(result.representative) != f)
                throw std::logic_error{
                    "classify_affine: reconstruction mismatch"};
        }
        return result;
    }

private:
    /// A candidate block of up to 32 int8 lanes (half <= 2^5 rows), stored
    /// as its per-word sort keys: key[i] = spectrum_sort_key(lanes 8i..).
    using block_keys = std::array<uint64_t, 4>;
    struct candidate {
        block_keys key;
        uint8_t m = 0;
        bool c_bit = false;
    };

    static int compare_keys(const block_keys& a, const block_keys& b,
                            uint32_t words)
    {
        for (uint32_t i = 0; i < words; ++i)
            if (a[i] != b[i])
                return a[i] < b[i] ? -1 : 1;
        return 0;
    }

    /// Single-word candidate as one sortable integer: key in the high 64
    /// bits, complemented insertion index (m, c) below — descending order
    /// on the packed value is descending by key with ties broken by
    /// insertion order, the baseline's stable order.
    static unsigned __int128 pack_item(uint64_t key, uint32_t m, bool c_bit)
    {
        return (static_cast<unsigned __int128>(key) << 8) |
               (255u - ((m << 1) | static_cast<uint32_t>(c_bit)));
    }

    /// The baseline's dominance prune, O(suffix) and sort-free: the sorted
    /// descending bound sequence is replayed from `unused_mag_` bucket
    /// counts and compared element by element against the incumbent suffix.
    /// Returns true when the bound cannot strictly beat the incumbent
    /// (lexicographic three-way <= 0 in the baseline's terms).
    bool suffix_dominated(uint32_t half) const
    {
        int32_t mag = 64;
        uint32_t avail = unused_mag_[mag];
        for (uint32_t w = half; w < size_; ++w) {
            while (avail == 0)
                avail = unused_mag_[--mag];
            --avail;
            if (mag != best_spectrum_[w])
                return mag < best_spectrum_[w];
        }
        return true; // ties are all this subtree could produce
    }

    void dfs(uint32_t level)
    {
        if (aborted_)
            return;
        if (level > n_) {
            if (!best_complete_) {
                best_transform_.num_vars = n_;
                best_transform_.m_columns = columns_;
                best_transform_.c = c_;
                best_transform_.v = v_;
                best_transform_.output_complement = sigma_ < 0;
                best_complete_ = true;
            }
            return;
        }

        const uint32_t half = 1u << (level - 1);
        const uint32_t words = half <= 8 ? 1 : half >> 3;
        const uint64_t tail_mask =
            half >= 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * half)) - 1;

        if (best_complete_ && suffix_dominated(half))
            return;

        // Candidates lexicographically below the incumbent's block at node
        // entry can never be processed: the sorted loop below breaks at the
        // first one, and the incumbent block only grows while the loop
        // runs.  Dropping them here (one key compare each, usually decided
        // by word 0) keeps the sort to the handful of survivors.  At the
        // last level ties are dropped too — a terminal tie's recursion is
        // a no-op (see the ranked loop), so only strict improvements
        // matter, and most last-level nodes then sort and process nothing.
        const bool entry_best = best_complete_;
        const bool drop_ties = entry_best && level == n_;
        const block_keys entry_key = best_key_[level];

        auto& cands = cand_pool_[level];
        auto& items = item_pool_[level];
        uint32_t count = 0;
        auto& base = coset_base_[level];
        auto& xlat = coset_xlat_[level];
        auto& gathered = coset_block_[level];
        const auto& neg = neg_[level];

        // Sub-word fast path for one- and two-row blocks: the packed g_
        // lanes already hold one lane per candidate, so a SWAR negate +
        // bias builds the key bytes of eight candidates per word, and for
        // two-row blocks a byte interleave assembles four candidates'
        // 16-bit keys per word (spectrum_zip8_*).  Key values are bit-for-
        // bit the ones the general gather below produces, so ordering,
        // pruning, and results are untouched — only the per-candidate
        // work disappears.  This is where small functions (4 inputs) used
        // to trail the >= 4x gate: their search lives almost entirely on
        // these levels.
        const bool subword = half <= 4;
        if (subword) {
            const uint32_t g_words = size_ <= 8 ? 1 : size_ >> 3;
            const uint64_t sign0 =
                (neg[0] & 0xff) != 0 ? ~uint64_t{0} : 0;
            if (half == 1) {
                // key = ((±g[m]) ^ 0x80) << 56 | 0x80 in the lower bytes.
                for (uint32_t i = 0; i < g_words; ++i) {
                    sub_c0_[i] = spectrum_negate_if(g_[i], sign0) ^
                                 spectrum_lane_high;
                    sub_c1_[i] = spectrum_negate_if(g_[i], ~sign0) ^
                                 spectrum_lane_high;
                }
            } else if (half == 2) {
                const uint64_t sign1 =
                    (neg[0] & 0xff00) != 0 ? ~uint64_t{0} : 0;
                // Row 1 of candidate m is g[m ^ m1]: one XOR-translate
                // aligns it under row 0 for every candidate at once.
                auto g2 = g_;
                spectrum_translate(g2.data(), size_, m_table_[1]);
                for (uint32_t i = 0; i < g_words; ++i) {
                    const auto a0 = spectrum_negate_if(g_[i], sign0) ^
                                    spectrum_lane_high;
                    const auto a1 = spectrum_negate_if(g2[i], sign1) ^
                                    spectrum_lane_high;
                    const auto b0 = spectrum_negate_if(g_[i], ~sign0) ^
                                    spectrum_lane_high;
                    const auto b1 = spectrum_negate_if(g2[i], ~sign1) ^
                                    spectrum_lane_high;
                    sub_c0_[2 * i] = spectrum_zip8_lo(a1, a0);
                    sub_c0_[2 * i + 1] = spectrum_zip8_hi(a1, a0);
                    sub_c1_[2 * i] = spectrum_zip8_lo(b1, b0);
                    sub_c1_[2 * i + 1] = spectrum_zip8_hi(b1, b0);
                }
            } else {
                // Four rows (0, m1, m2, m1^m2): three XOR-translates line
                // the rows of every candidate up vertically, two byte
                // zips + one 16-bit zip assemble two 32-bit candidate
                // keys per word.
                std::array<std::array<uint64_t, 8>, 4> rows_lanes;
                rows_lanes[0] = g_;
                for (uint32_t r = 1; r < 4; ++r) {
                    rows_lanes[r] = g_;
                    spectrum_translate(rows_lanes[r].data(), size_,
                                       m_table_[r]);
                }
                std::array<uint64_t, 4> sign;
                for (uint32_t r = 0; r < 4; ++r)
                    sign[r] = (neg[0] & (uint64_t{0xff} << (8 * r))) != 0
                                  ? ~uint64_t{0}
                                  : 0;
                for (uint32_t i = 0; i < g_words; ++i) {
                    std::array<uint64_t, 4> a, b;
                    for (uint32_t r = 0; r < 4; ++r) {
                        a[r] = spectrum_negate_if(rows_lanes[r][i],
                                                  sign[r]) ^
                               spectrum_lane_high;
                        b[r] = spectrum_negate_if(rows_lanes[r][i],
                                                  ~sign[r]) ^
                               spectrum_lane_high;
                    }
                    // 16-bit units (row0<<8|row1) and (row2<<8|row3),
                    // then 32-bit units (rows0-1 << 16 | rows2-3).
                    const auto a01_lo = spectrum_zip8_lo(a[1], a[0]);
                    const auto a01_hi = spectrum_zip8_hi(a[1], a[0]);
                    const auto a23_lo = spectrum_zip8_lo(a[3], a[2]);
                    const auto a23_hi = spectrum_zip8_hi(a[3], a[2]);
                    sub_c0_[4 * i] = spectrum_zip16_lo(a23_lo, a01_lo);
                    sub_c0_[4 * i + 1] = spectrum_zip16_hi(a23_lo, a01_lo);
                    sub_c0_[4 * i + 2] = spectrum_zip16_lo(a23_hi, a01_hi);
                    sub_c0_[4 * i + 3] = spectrum_zip16_hi(a23_hi, a01_hi);
                    const auto b01_lo = spectrum_zip8_lo(b[1], b[0]);
                    const auto b01_hi = spectrum_zip8_hi(b[1], b[0]);
                    const auto b23_lo = spectrum_zip8_lo(b[3], b[2]);
                    const auto b23_hi = spectrum_zip8_hi(b[3], b[2]);
                    sub_c1_[4 * i] = spectrum_zip16_lo(b23_lo, b01_lo);
                    sub_c1_[4 * i + 1] = spectrum_zip16_hi(b23_lo, b01_lo);
                    sub_c1_[4 * i + 2] = spectrum_zip16_lo(b23_hi, b01_hi);
                    sub_c1_[4 * i + 3] = spectrum_zip16_hi(b23_hi, b01_hi);
                }
            }
        } else {
            base.fill(0xff);
        }

        for (uint32_t m = 1; m < size_; ++m) {
            if ((span_ >> m) & 1)
                continue; // not linearly independent of chosen columns
            // Two candidate evaluations (c = 0, 1) share the block below;
            // the pair-fused limit check aborts at the same point with the
            // same final count as the baseline's per-evaluation check
            // (which stops after the first of the two increments when that
            // one already crossed the limit).
            if (iterations_ + 2 > limit_) {
                iterations_ += iterations_ >= limit_ ? 1 : 2;
                aborted_ = true;
                return;
            }
            iterations_ += 2;
            if (subword) {
                uint64_t k0, k1;
                if (half == 1) {
                    const uint32_t sh = 8 * (m & 7);
                    k0 = ((sub_c0_[m >> 3] >> sh) & 0xff) << 56 |
                         0x0080808080808080ull;
                    k1 = ((sub_c1_[m >> 3] >> sh) & 0xff) << 56 |
                         0x0080808080808080ull;
                } else if (half == 2) {
                    const uint32_t sh = 16 * (m & 3);
                    k0 = ((sub_c0_[m >> 2] >> sh) & 0xffff) << 48 |
                         0x0000808080808080ull;
                    k1 = ((sub_c1_[m >> 2] >> sh) & 0xffff) << 48 |
                         0x0000808080808080ull;
                } else {
                    const uint32_t sh = 32 * (m & 1);
                    k0 = ((sub_c0_[m >> 1] >> sh) & 0xffffffff) << 32 |
                         0x0000000080808080ull;
                    k1 = ((sub_c1_[m >> 1] >> sh) & 0xffffffff) << 32 |
                         0x0000000080808080ull;
                }
                if (!entry_best ||
                    (drop_ties ? k0 > entry_key[0] : k0 >= entry_key[0]))
                    items[count++] = pack_item(k0, m, false);
                if (!entry_best ||
                    (drop_ties ? k1 > entry_key[0] : k1 >= entry_key[0]))
                    items[count++] = pack_item(k1, m, true);
                continue;
            }
            std::array<uint64_t, 4> blk{};
            if (base[m] == 0xff) {
                // First member of its coset: gather, and index the mates.
                for (uint32_t r = 0; r < half; ++r)
                    spectrum_set_lane(blk.data(), r,
                                      spectrum_lane(g_.data(),
                                                    m_table_[r] ^ m));
                gathered[m] = blk;
                base[m] = static_cast<uint8_t>(m);
                xlat[m] = 0;
                for (uint32_t d = 1; d < half; ++d) {
                    const uint32_t mate = m ^ m_table_[d];
                    if (base[mate] == 0xff) {
                        base[mate] = static_cast<uint8_t>(m);
                        xlat[mate] = static_cast<uint8_t>(d);
                    }
                }
            } else {
                blk = gathered[base[m]];
                spectrum_translate(blk.data(), half, xlat[m]);
            }
            if (words == 1) {
                const uint64_t k0 = spectrum_sort_key(
                    spectrum_negate_if(blk[0], neg[0]));
                const uint64_t k1 = spectrum_sort_key(
                    spectrum_negate_if(blk[0], ~neg[0] & tail_mask));
                if (!entry_best ||
                    (drop_ties ? k0 > entry_key[0] : k0 >= entry_key[0]))
                    items[count++] = pack_item(k0, m, false);
                if (!entry_best ||
                    (drop_ties ? k1 > entry_key[0] : k1 >= entry_key[0]))
                    items[count++] = pack_item(k1, m, true);
                continue;
            }
            candidate c0, c1;
            for (uint32_t i = 0; i < words; ++i) {
                const uint64_t valid =
                    i + 1 == words ? tail_mask : ~uint64_t{0};
                c0.key[i] =
                    spectrum_sort_key(spectrum_negate_if(blk[i], neg[i]));
                c1.key[i] = spectrum_sort_key(
                    spectrum_negate_if(blk[i], ~neg[i] & valid));
            }
            c0.m = static_cast<uint8_t>(m);
            c0.c_bit = false;
            c1.m = static_cast<uint8_t>(m);
            c1.c_bit = true;
            const int f0 =
                entry_best ? compare_keys(c0.key, entry_key, words) : 1;
            const int f1 =
                entry_best ? compare_keys(c1.key, entry_key, words) : 1;
            if (drop_ties ? f0 > 0 : f0 >= 0)
                cands[count++] = c0;
            if (drop_ties ? f1 > 0 : f1 >= 0)
                cands[count++] = c1;
        }

        // Sort descending with the insertion index breaking ties — exactly
        // the baseline's stable_sort order on the retained candidates.
        // Single-word keys (every level of a 4-input search, and all but
        // the deepest levels at 5-6 inputs) ride in one flat packed array:
        // (key, complemented insertion index) sorts as a plain integer,
        // with no comparator indirection and no candidate structs at all.
        if (words == 1) {
            std::sort(items.begin(), items.begin() + count,
                      std::greater<>{});
        } else {
            auto& order = order_pool_[level];
            for (uint32_t i = 0; i < count; ++i)
                order[i] = static_cast<uint8_t>(i);
            std::sort(order.begin(), order.begin() + count,
                      [&cands, words](uint8_t x, uint8_t y) {
                          const int cmp = compare_keys(cands[x].key,
                                                       cands[y].key, words);
                          return cmp != 0 ? cmp > 0 : x < y;
                      });
        }

        for (uint32_t rank = 0; rank < count; ++rank) {
            candidate unpacked;
            if (words == 1) {
                const auto item = items[rank];
                const auto low =
                    255u - static_cast<uint32_t>(item & 0xff);
                unpacked.key = {static_cast<uint64_t>(item >> 8), 0, 0, 0};
                unpacked.m = static_cast<uint8_t>(low >> 1);
                unpacked.c_bit = (low & 1) != 0;
            } else {
                unpacked = cand_pool_[level][order_pool_[level][rank]];
            }
            const candidate& cand = unpacked;
            if (aborted_)
                return;
            if (best_complete_) {
                const int cmp =
                    compare_keys(cand.key, best_key_[level], words);
                if (cmp < 0)
                    break; // sorted: everything after is worse
                if (cmp > 0)
                    best_complete_ = false; // new leader from here down
                // equal: tight challenger, recurse and compare deeper —
                // except at the last level, where there is nothing deeper:
                // the recursion would return immediately and the apply/
                // restore around it cancels out.  Skipping it is free
                // (terminal dfs calls never touch the iteration count) and
                // is where 4-input searches spent most of their time:
                // almost every last-level candidate ties the incumbent.
                else if (level == n_)
                    continue;
            }
            if (!best_complete_) {
                best_key_[level] = cand.key;
                for (uint32_t i = 0; i < words; ++i) {
                    const uint64_t lanes =
                        spectrum_sort_key_inverse(cand.key[i]);
                    for (uint32_t r = 8 * i; r < std::min(half, 8 * i + 8);
                         ++r)
                        best_spectrum_[half + r] =
                            spectrum_lane(&lanes, r & 7);
                }
            }

            // Apply candidate.
            const auto saved_span = span_;
            columns_[level - 1] = cand.m;
            if (cand.c_bit)
                c_ |= 1u << (level - 1);
            else
                c_ &= ~(1u << (level - 1));
            uint64_t permuted = span_;
            for (uint32_t k = 0; k < n_; ++k)
                if ((cand.m >> k) & 1)
                    permuted = tt_flip_word(permuted, k);
            span_ |= permuted; // span | {x ^ m : x in span}
            for (uint32_t r = 0; r < half; ++r) {
                const uint32_t row = m_table_[r] ^ cand.m;
                m_table_[half + r] = row;
                used_[row ^ v_] = 1;
                --unused_mag_[std::abs(spectrum_[row ^ v_])];
            }
            if (level < n_) {
                // Sign mask of the doubled row range: the new rows repeat
                // the old pattern, complemented when c_bit is set.
                auto& next = neg_[level + 1];
                const auto& cur = neg_[level];
                const uint64_t flip = cand.c_bit ? ~uint64_t{0} : 0;
                if (half >= 8) {
                    for (uint32_t i = 0; i < words; ++i) {
                        next[i] = cur[i];
                        next[words + i] = cur[i] ^ flip;
                    }
                } else {
                    const uint64_t low = cur[0] & tail_mask;
                    next = {low | ((low ^ (flip & tail_mask)) << (8 * half)),
                            0, 0, 0};
                }
            }

            dfs(level + 1);
            span_ = saved_span;
            for (uint32_t r = 0; r < half; ++r) {
                used_[m_table_[half + r] ^ v_] = 0;
                ++unused_mag_[std::abs(spectrum_[m_table_[half + r] ^ v_])];
            }
        }
    }

    uint32_t n_;
    uint32_t size_;
    uint64_t limit_;
    uint64_t iterations_ = 0;
    bool aborted_ = false;

    // Current path.
    uint32_t v_ = 0;
    int32_t sigma_ = 1;
    uint32_t c_ = 0;
    std::array<uint32_t, 6> columns_{};
    uint64_t span_ = 1; ///< bitset of span{chosen columns}, always contains 0
    std::array<uint64_t, 8> spec_packed_{}; ///< spectrum, packed int8 lanes
    std::array<uint64_t, 8> g_{};           ///< spectrum[* ^ v], packed
    std::array<int32_t, 64> spectrum_{};    ///< scalar copy (prune buckets)
    std::array<uint32_t, 64> m_table_{};    ///< M*w for w below the frontier
    std::array<uint8_t, 64> used_{};  ///< spectrum indices consumed by prefix
    std::array<uint32_t, 65> unused_mag_{}; ///< prune: count per |coeff|
    std::array<std::array<uint64_t, 4>, 7> neg_{}; ///< packed row-sign masks

    // Sub-word candidate batches (half <= 4): key bytes / 16-bit / 32-bit
    // key units of all candidates — eight, four, or two per word.
    // Consumed into cand_pool_ before the recursion, so one pair of
    // buffers serves every level.
    std::array<uint64_t, 32> sub_c0_{};
    std::array<uint64_t, 32> sub_c1_{};

    // Per-level scratch (depth <= 6) — no allocation inside the search.
    std::array<std::array<candidate, 128>, 7> cand_pool_{};
    std::array<std::array<unsigned __int128, 128>, 7> item_pool_{};
    std::array<std::array<uint8_t, 128>, 7> order_pool_{};
    std::array<std::array<uint8_t, 64>, 7> coset_base_{};
    std::array<std::array<uint8_t, 64>, 7> coset_xlat_{};
    std::array<std::array<std::array<uint64_t, 4>, 64>, 7> coset_block_{};

    // Best complete assignment so far: packed per-level keys for the
    // candidate comparisons, plus the flat spectrum the prune and the final
    // reconstruction consume.
    std::array<block_keys, 7> best_key_{};
    std::array<int32_t, 64> best_spectrum_{};
    affine_transform best_transform_;
    bool best_complete_ = false;
};

classification_result classify_trivial(const truth_table& f)
{
    classification_result result;
    result.representative = truth_table::constant(0, false);
    result.transform.num_vars = 0;
    result.transform.output_complement = f.get_bit(0);
    result.success = true;
    return result;
}

} // namespace

classification_result classify_affine(const truth_table& f,
                                      const classification_params& params)
{
    if (f.num_vars() > 6)
        throw std::invalid_argument{"classify_affine: at most 6 variables"};
    if (f.num_vars() == 0)
        return classify_trivial(f);
    word_canonizer search{f, params};
    return search.run(f);
}

} // namespace mcx
