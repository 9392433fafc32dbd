#include "oracle/classify_affine_baseline.h"

#include <algorithm>
#include <array>
#include <compare>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <vector>

namespace mcx::oracle {

namespace {

/// DFS state for the scalar lexicographic-maximum spectrum search.
class canonizer {
public:
    canonizer(const truth_table& f, const classification_params& params)
        : n_{f.num_vars()}, size_{size_t{1} << n_},
          spectrum_{walsh_spectrum(f)}, limit_{params.iteration_limit}
    {
        m_table_.assign(size_, 0);
        sign_table_.assign(size_, 1);
        best_spectrum_.assign(size_, 0);
        used_.assign(size_, 0);
        columns_.fill(0);
    }

    classification_result run(const truth_table& f)
    {
        classification_result result;
        result.representative = truth_table{n_};

        // Level 0: choose v among maximal-magnitude coefficients, sigma to
        // make s'[0] positive.
        int32_t max_abs = 0;
        for (const auto value : spectrum_)
            max_abs = std::max(max_abs, std::abs(value));
        for (size_t w = 0; w < size_ && !aborted_; ++w) {
            if (std::abs(spectrum_[w]) != max_abs)
                continue;
            ++iterations_;
            if (iterations_ > limit_) {
                aborted_ = true;
                break;
            }
            v_ = static_cast<uint32_t>(w);
            sigma_ = spectrum_[w] < 0 ? -1 : 1;
            sign_table_[0] = sigma_;
            best_spectrum_[0] = max_abs;
            used_[w] = 1;
            dfs(1);
            used_[w] = 0;
        }

        result.iterations = iterations_;
        result.success = !aborted_ && best_complete_;
        if (result.success) {
            result.representative =
                function_from_spectrum(best_spectrum_, n_);
            result.transform = best_transform_;
            // Soundness check of the closed-form reconstruction.
            if (result.transform.apply(result.representative) != f)
                throw std::logic_error{
                    "classify_affine: reconstruction mismatch"};
        }
        return result;
    }

private:
    struct candidate {
        uint32_t m = 0;
        bool c_bit = false;
        std::vector<int32_t> block;
    };

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

        const size_t half = size_t{1} << (level - 1);

        // Dominance prune: the canonical suffix is a signed permutation of
        // the spectrum coefficients not consumed by the prefix, so sorting
        // their magnitudes in descending order upper-bounds every reachable
        // suffix.  If that bound cannot strictly beat the incumbent, ties
        // are all this subtree could produce — skip it.
        if (best_complete_) {
            bound_.clear();
            for (size_t w = 0; w < size_; ++w)
                if (!used_[w])
                    bound_.push_back(std::abs(spectrum_[w]));
            std::sort(bound_.begin(), bound_.end(), std::greater<>{});
            if (std::lexicographical_compare_three_way(
                    bound_.begin(), bound_.end(),
                    best_spectrum_.begin() + half, best_spectrum_.end()) <= 0)
                return;
        }

        std::vector<candidate> candidates;
        for (uint32_t m = 1; m < size_; ++m) {
            if ((span_ >> m) & 1)
                continue; // not linearly independent of chosen columns
            for (const bool c_bit : {false, true}) {
                ++iterations_;
                if (iterations_ > limit_) {
                    aborted_ = true;
                    return;
                }
                candidate cand;
                cand.m = m;
                cand.c_bit = c_bit;
                cand.block.resize(half);
                const int32_t flip = c_bit ? -1 : 1;
                for (size_t r = 0; r < half; ++r)
                    cand.block[r] = sign_table_[r] * flip *
                                    spectrum_[m_table_[r] ^ m ^ v_];
                candidates.push_back(std::move(cand));
            }
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const candidate& a, const candidate& b) {
                             return a.block > b.block; // lexicographic desc
                         });

        for (const auto& cand : candidates) {
            if (aborted_)
                return;
            if (best_complete_) {
                const auto cmp = std::lexicographical_compare_three_way(
                    cand.block.begin(), cand.block.end(),
                    best_spectrum_.begin() + half,
                    best_spectrum_.begin() + 2 * half);
                if (cmp < 0)
                    break; // sorted: everything after is worse
                if (cmp > 0)
                    best_complete_ = false; // new leader from here down
                // equal: tight challenger, recurse and compare deeper
            }
            if (!best_complete_)
                std::copy(cand.block.begin(), cand.block.end(),
                          best_spectrum_.begin() + half);

            // Apply candidate.
            const auto saved_span = span_;
            columns_[level - 1] = cand.m;
            if (cand.c_bit)
                c_ |= 1u << (level - 1);
            else
                c_ &= ~(1u << (level - 1));
            uint64_t extended = span_;
            for (uint32_t x = 0; x < size_; ++x)
                if ((span_ >> x) & 1)
                    extended |= uint64_t{1} << (x ^ cand.m);
            span_ = extended;
            const int32_t flip = cand.c_bit ? -1 : 1;
            for (size_t r = 0; r < half; ++r) {
                m_table_[half + r] = m_table_[r] ^ cand.m;
                sign_table_[half + r] = sign_table_[r] * flip;
                used_[m_table_[half + r] ^ v_] = 1;
            }

            dfs(level + 1);
            span_ = saved_span;
            for (size_t r = 0; r < half; ++r)
                used_[m_table_[half + r] ^ v_] = 0;
        }
    }

    uint32_t n_;
    size_t size_;
    std::vector<int32_t> spectrum_;
    uint64_t limit_;
    uint64_t iterations_ = 0;
    bool aborted_ = false;

    // Current path.
    uint32_t v_ = 0;
    int32_t sigma_ = 1;
    uint32_t c_ = 0;
    std::array<uint32_t, 6> columns_{};
    uint64_t span_ = 1; ///< bitset of span{chosen columns}, always contains 0
    std::vector<uint32_t> m_table_;   ///< M*w for w below the frontier
    std::vector<int32_t> sign_table_; ///< sigma * (-1)^(c.w)
    std::vector<uint8_t> used_;       ///< spectrum indices consumed by prefix
    std::vector<int32_t> bound_;      ///< scratch for the dominance prune

    // Best complete assignment so far.
    std::vector<int32_t> best_spectrum_;
    affine_transform best_transform_;
    bool best_complete_ = false;
};

} // namespace

classification_result
classify_affine_baseline(const truth_table& f,
                         const classification_params& params)
{
    if (f.num_vars() > 6)
        throw std::invalid_argument{"classify_affine: at most 6 variables"};
    if (f.num_vars() == 0) {
        classification_result result;
        result.representative = truth_table::constant(0, false);
        result.transform.output_complement = f.get_bit(0);
        result.success = true;
        return result;
    }
    canonizer search{f, params};
    return search.run(f);
}

} // namespace mcx::oracle
