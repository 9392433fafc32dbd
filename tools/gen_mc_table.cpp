// gen_mc_table — generate src/db/mc_table.cpp, the shipped part of the MC
// database (src/db/mc_database.h): one row per affine-class representative
// whose support is at most 5 that the enumeration below reaches, at every
// width from 2 to 6 inputs.
//
//   $ ./build/tools/gen_mc_table src/db/mc_table.cpp    # regenerate
//
// The classes come from an enumeration, never from a workload:
//
//  * widths 2-4: every function of that width is classified;
//  * width 5: every 5-input function is g(x0..x3) ^ x4 h(x0..x3), and an
//    affine map on x0..x3 (affine terms absorbed) takes g to its 4-input
//    class representative.  So the functions whose low half is a 4-input
//    representative, with every high half, meet every 5-input class (all 8
//    4-input classes seed it: one of them exceeds the limit at width 4 and
//    is classified without one for this step only);
//  * width 6: each 5-input representative, extended by an unused x5, is
//    classified at width 6.
//
// Classification runs at the optimizer's default iteration limit, so a
// class whose enumerated members all exceed it is missing from the table
// (at width 5 only some members of each class are enumerated, so the
// optimizer may still reach such a class through another member; it then
// synthesizes the key on the miss).  Each key is then built by
// `mc_database::synthesize` under default params — the miss path's own
// builder — so a table row equals what a lazy miss would memoize.  The
// work runs on one thread per hardware thread; the output depends on
// neither the thread count nor the host.
#include "db/mc_database.h"
#include "par/thread_pool.h"
#include "spectral/classification.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace mcx;

void sort_unique(std::vector<uint64_t>& words)
{
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
}

struct class_set {
    std::vector<uint64_t> words;  ///< representatives, sorted, unique
    std::vector<uint64_t> failed; ///< functions over the iteration limit
    uint64_t functions = 0;       ///< functions classified
};

/// Classify every function in `words` at `num_vars` inputs.
class_set classify_all(thread_pool& pool, uint32_t num_vars,
                       const std::vector<uint64_t>& words,
                       const classification_params& params = {})
{
    std::vector<class_set> found(pool.num_workers());
    pool.parallel_for(0, words.size(), [&](size_t i, uint32_t worker) {
        const auto r =
            classify_affine(truth_table{num_vars, words[i]}, params);
        (r.success ? found[worker].words : found[worker].failed)
            .push_back(r.success ? r.representative.word() : words[i]);
    });
    class_set out;
    out.functions = words.size();
    for (auto& w : found) {
        out.words.insert(out.words.end(), w.words.begin(), w.words.end());
        out.failed.insert(out.failed.end(), w.failed.begin(),
                          w.failed.end());
    }
    sort_unique(out.words);
    sort_unique(out.failed);
    return out;
}

/// The class representatives to ship, per width 2..6 (index = width).
std::array<class_set, 7> enumerate_classes(thread_pool& pool)
{
    std::array<class_set, 7> classes;
    for (uint32_t n = 2; n <= 4; ++n) {
        std::vector<uint64_t> all(uint64_t{1} << (1u << n));
        for (uint64_t w = 0; w < all.size(); ++w)
            all[w] = w;
        classes[n] = classify_all(pool, n, all);
    }
    // The low halves: one member of every 4-input class, including the
    // classes whose members all exceed the limit at width 4 (classified
    // without a limit here; any member would do).
    auto seeds = classes[4].words;
    const auto unlimited = classify_all(
        pool, 4, classes[4].failed, {.iteration_limit = UINT64_MAX});
    seeds.insert(seeds.end(), unlimited.words.begin(), unlimited.words.end());
    sort_unique(seeds);
    std::fprintf(stderr, "width 5 seeds: %zu 4-input classes\n",
                 seeds.size());
    std::vector<uint64_t> five;
    five.reserve(seeds.size() << 16);
    for (const auto g : seeds)
        for (uint64_t h = 0; h < (uint64_t{1} << 16); ++h)
            five.push_back(g | (h << 16));
    classes[5] = classify_all(pool, 5, five);
    std::vector<uint64_t> six;
    for (const auto r : classes[5].words)
        six.push_back(r | (r << 32));
    classes[6] = classify_all(pool, 6, six);
    return classes;
}

std::string cpp_source(const std::vector<std::string>& rows,
                       const std::array<class_set, 7>& classes)
{
    std::string counts;
    for (uint32_t n = 2; n <= 6; ++n)
        counts += (n > 2 ? " / " : "") +
                  std::to_string(classes[n].words.size());
    std::string s =
        R"(// The shipped part of the MC database (src/db/mc_database.h): one
// mc_database::row line per affine-class representative with support
// <= 5 that the class enumeration reaches at the default classification
// limit, at widths 2-6, sorted by (num_vars, word).  Generated by
// tools/gen_mc_table.cpp from an enumeration of the classes; do not edit.
// Regenerate with
//   ./build/tools/gen_mc_table src/db/mc_table.cpp
// ci.sh fails when the committed file is not current.
//
// Keys at widths 2 / 3 / 4 / 5 / 6: )" +
        counts + R"(.
#include "db/mc_database.h"

namespace mcx {
namespace {

constexpr std::string_view rows[] = {
)";
    for (const auto& r : rows)
        s += "    \"" + r + "\",\n";
    s += R"(};

} // namespace

std::span<const std::string_view> mc_builtin_rows() { return rows; }

} // namespace mcx
)";
    return s;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc != 2 || argv[1][0] == '-') {
        std::cerr << "usage: gen_mc_table OUTPUT.cpp\n";
        return 2;
    }
    const std::string output = argv[1];

    thread_pool pool;
    const auto classes = enumerate_classes(pool);
    std::vector<truth_table> keys;
    for (uint32_t n = 2; n <= 6; ++n) {
        std::fprintf(stderr,
                     "width %u: %zu classes from %llu functions "
                     "(%llu over the iteration limit)\n",
                     n, classes[n].words.size(),
                     static_cast<unsigned long long>(classes[n].functions),
                     static_cast<unsigned long long>(
                         classes[n].failed.size()));
        for (const auto w : classes[n].words)
            keys.emplace_back(n, w);
    }

    std::vector<std::string> rows(keys.size());
    pool.parallel_for(
        0, keys.size(),
        [&](size_t i, uint32_t) {
            rows[i] =
                mc_database::row(keys[i], mc_database::synthesize(keys[i]));
        },
        1);

    std::ofstream os{output};
    os << cpp_source(rows, classes);
    if (!os.flush()) {
        std::cerr << "gen_mc_table: cannot write " << output << '\n';
        return 1;
    }
    std::fprintf(stderr, "gen_mc_table: %zu rows -> %s\n", rows.size(),
                 output.c_str());
    return 0;
}
