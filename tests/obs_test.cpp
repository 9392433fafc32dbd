// The observability subsystem (docs/observability.md): metrics registry
// merge semantics under concurrent writers, scoped-trace ring buffers
// (nesting, overflow, drop accounting), the Chrome trace-event writer,
// and the determinism contract — optimizer output is byte-identical with
// tracing/metrics on or off at any thread count.
#include "core/flow.h"
#include "gen/arithmetic.h"
#include "gen/control.h"
#include "io/bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xag/cleanup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace mcx {
namespace {

// --------------------------------------------------------------- metrics

TEST(metrics, concurrent_writers_merge_exactly)
{
    const auto m = obs::register_metric("test.obs.concurrent");
    const uint64_t before = m.value();

    constexpr int num_threads = 8;
    constexpr uint64_t adds_per_thread = 20'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t)
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < adds_per_thread; ++i)
                m.add();
        });
    for (auto& t : threads)
        t.join();

    // Counting is monotone and commutative, so the striped relaxed
    // scheme is exact: every add lands in the merged total.
    EXPECT_EQ(m.value() - before, num_threads * adds_per_thread);
}

TEST(metrics, registration_is_idempotent)
{
    const auto a = obs::register_metric("test.obs.idempotent");
    const auto b = obs::register_metric("test.obs.idempotent");
    const uint64_t before = a.value();
    a.add(3);
    b.add(4);
    // Both handles point at the same cells.
    EXPECT_EQ(a.value() - before, 7u);
    EXPECT_EQ(b.value() - before, 7u);
}

TEST(metrics, default_handle_is_inert)
{
    const obs::metric m;
    EXPECT_FALSE(m.valid());
    m.add(42); // must not crash
    EXPECT_EQ(m.value(), 0u);
}

TEST(metrics, disabled_registry_freezes_totals)
{
    const auto m = obs::register_metric("test.obs.freeze");
    m.add();
    const uint64_t frozen = m.value();
    obs::set_metrics_enabled(false);
    m.add(100);
    EXPECT_EQ(m.value(), frozen);
    obs::set_metrics_enabled(true);
    m.add();
    EXPECT_EQ(m.value(), frozen + 1);
}

TEST(metrics, snapshot_is_sorted_and_complete)
{
    obs::register_metric("test.obs.zzz").add(5);
    obs::register_metric("test.obs.aaa").add(9);
    const auto snap = obs::metrics_snapshot();
    EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                               [](const auto& a, const auto& b) {
                                   return a.name < b.name;
                               }));
    const auto find = [&](const std::string& name) -> const uint64_t* {
        for (const auto& mv : snap)
            if (mv.name == name)
                return &mv.value;
        return nullptr;
    };
    const auto* aaa = find("test.obs.aaa");
    const auto* zzz = find("test.obs.zzz");
    ASSERT_NE(aaa, nullptr);
    ASSERT_NE(zzz, nullptr);
    EXPECT_GE(*aaa, 9u);
    EXPECT_GE(*zzz, 5u);
}

TEST(metrics, process_stats_are_sane)
{
    const auto stats = obs::read_process_stats();
#if defined(__linux__)
    EXPECT_GT(stats.peak_rss_bytes, 0u);
#endif
    EXPECT_GE(stats.cpu_seconds, 0.0);
    EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(metrics, progress_state_roundtrip)
{
    obs::set_progress_pass("mc-rewrite");
    obs::set_progress_round(3);
    const auto [pass, round] = obs::progress_state();
    EXPECT_STREQ(pass, "mc-rewrite");
    EXPECT_EQ(round, 3u);
    obs::set_progress_pass(nullptr);
    obs::set_progress_round(0);
}

// --------------------------------------------------------------- tracing

TEST(tracing, spans_record_nesting_and_lanes)
{
    obs::trace::clear();
    obs::trace::enable();
    {
        const obs::trace::trace_span outer{"test.outer"};
        {
            obs::trace::trace_span inner{"test.inner"};
            inner.set_arg(17);
        }
        obs::trace::instant("test.marker");
    }
    std::thread worker{[] {
        obs::trace::set_lane(2);
        const obs::trace::trace_span s{"test.worker-span"};
    }};
    worker.join();
    obs::trace::disable();

    const auto events = obs::trace::collect();
    const auto find = [&](const std::string& name) -> const
        obs::trace::trace_event* {
        for (const auto& ev : events)
            if (name == ev.name)
                return &ev;
        return nullptr;
    };
    const auto* outer = find("test.outer");
    const auto* inner = find("test.inner");
    const auto* marker = find("test.marker");
    const auto* lane2 = find("test.worker-span");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(marker, nullptr);
    ASSERT_NE(lane2, nullptr);

    // RAII gives proper containment, instants zero duration.
    EXPECT_LE(outer->start_ns, inner->start_ns);
    EXPECT_GE(outer->end_ns, inner->end_ns);
    EXPECT_TRUE(inner->has_arg);
    EXPECT_EQ(inner->arg, 17u);
    EXPECT_EQ(marker->kind, obs::trace::event_kind::instant);
    EXPECT_EQ(marker->start_ns, marker->end_ns);
    EXPECT_EQ(lane2->lane, 2u);
    EXPECT_EQ(outer->lane, 0u);
}

TEST(tracing, ring_overflow_drops_oldest_and_counts)
{
    obs::trace::clear();
    obs::trace::enable(/*ring_capacity=*/8);
    constexpr uint64_t recorded = 100;
    // A fresh thread gets a fresh ring at the small capacity (existing
    // rings keep whatever capacity they were created with).
    std::thread t{[] {
        obs::trace::set_lane(5);
        for (uint64_t i = 0; i < recorded; ++i)
            obs::trace::instant("test.flood");
    }};
    t.join();
    obs::trace::disable();

    uint64_t kept = 0;
    for (const auto& ev : obs::trace::collect())
        if (ev.lane == 5)
            ++kept;
    EXPECT_LE(kept, 8u);
    EXPECT_GT(kept, 0u);
    EXPECT_GE(obs::trace::dropped(), recorded - 8);

    obs::trace::clear();
    EXPECT_EQ(obs::trace::dropped(), 0u);
    EXPECT_TRUE(obs::trace::collect().empty());
}

TEST(tracing, disabled_spans_record_nothing)
{
    obs::trace::clear();
    ASSERT_FALSE(obs::trace::enabled());
    {
        const obs::trace::trace_span s{"test.silent"};
        obs::trace::instant("test.silent-instant");
    }
    EXPECT_TRUE(obs::trace::collect().empty());
}

// ---------------------------------------------------------- trace writer

size_t count_occurrences(const std::string& haystack,
                         const std::string& needle)
{
    size_t count = 0;
    for (size_t pos = haystack.find(needle); pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(trace_writer, emits_balanced_nested_events)
{
    using obs::trace::event_kind;
    using obs::trace::trace_event;
    std::vector<trace_event> events;
    const auto span = [&](const char* name, uint64_t start, uint64_t end,
                          uint32_t lane) {
        events.push_back({name, start, end, 0, lane, event_kind::span,
                          false});
    };
    // Deliberately unordered input: collect() makes no order promise.
    span("sibling", 4000, 5000, 0);
    span("outer", 1000, 9000, 0);
    span("inner", 2000, 3000, 0);
    span("other-lane", 1500, 6000, 1);
    events.push_back({"mark", 2500, 2500, 7, 0, event_kind::instant, true});

    std::ostringstream os;
    obs::trace::write_chrome_trace(os, events);
    const auto json = os.str();

    // Structurally balanced and closed.
    EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

    // One B and one E per span, per-lane thread metadata, the instant.
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 4u);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 4u);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 3u); // process + 2
    EXPECT_NE(json.find("\"name\":\"main/worker-0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"worker-1\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":7}"), std::string::npos);

    // Nesting order: outer opens before inner, inner closes before outer.
    const auto b_outer = json.find("\"name\":\"outer\",\"ph\":\"B\"");
    const auto b_inner = json.find("\"name\":\"inner\",\"ph\":\"B\"");
    const auto e_outer = json.find("\"name\":\"outer\",\"ph\":\"E\"");
    const auto e_inner = json.find("\"name\":\"inner\",\"ph\":\"E\"");
    ASSERT_NE(b_outer, std::string::npos);
    ASSERT_NE(e_outer, std::string::npos);
    EXPECT_LT(b_outer, b_inner);
    EXPECT_LT(e_inner, e_outer);

    // Timestamps are microseconds relative to the earliest event (1000ns).
    EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":8.000"), std::string::npos);
}

TEST(trace_writer, empty_input_is_valid)
{
    std::ostringstream os;
    obs::trace::write_chrome_trace(os, {});
    const auto json = os.str();
    EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

// ------------------------------------------------- determinism contract

/// Optimize through the flow engine and return the serialized result.
std::string optimize(xag net, uint32_t threads)
{
    flow_params params;
    params.num_threads = threads;
    pass_context ctx{context_params(params)};
    run_flow(net, make_flow("mc+xor", params), ctx);
    std::ostringstream os;
    write_bench(cleanup(net), os);
    return os.str();
}

TEST(determinism, output_identical_with_tracing_on_or_off)
{
    const auto source = cleanup(gen_adder(12));
    for (const uint32_t threads : {1u, 4u}) {
        obs::trace::disable();
        const auto off = optimize(source, threads);

        obs::trace::clear();
        obs::trace::enable();
        const auto on = optimize(source, threads);
        obs::trace::disable();

        EXPECT_EQ(off, on) << threads << " threads";
        // And tracing actually recorded the run it rode along with.
        EXPECT_FALSE(obs::trace::collect().empty()) << threads;
        obs::trace::clear();
    }
}

TEST(determinism, output_identical_with_metrics_on_or_off)
{
    const auto source = cleanup(gen_voter(7));
    const auto on = optimize(source, 4);
    obs::set_metrics_enabled(false);
    const auto off = optimize(source, 4);
    obs::set_metrics_enabled(true);
    EXPECT_EQ(on, off);
}

TEST(determinism, flow_records_expected_span_names)
{
    obs::trace::clear();
    obs::trace::enable();
    optimize(cleanup(gen_adder(8)), 2);
    obs::trace::disable();

    const auto events = obs::trace::collect();
    const auto has = [&](const char* name) {
        for (const auto& ev : events)
            if (std::string_view{ev.name} == name)
                return true;
        return false;
    };
    EXPECT_TRUE(has("flow"));
    EXPECT_TRUE(has("mc-rewrite"));
    EXPECT_TRUE(has("round"));
    EXPECT_TRUE(has("phase.evaluate"));
    EXPECT_TRUE(has("phase.commit"));
    EXPECT_TRUE(has("phase.cut-refresh"));
    EXPECT_TRUE(has("xor-resynthesis"));
    obs::trace::clear();
}

} // namespace
} // namespace mcx
