// Thread-safe sharded memo map with once-per-key building — the storage
// layer of everything the parallel rewrite round looks up concurrently:
// the MC database (mc_database) and the classification memo
// (classification_cache), one of each per pass_context.
//
// Keys hash to one of 64 shards, each an unordered_map behind its own
// mutex (striped locking: lookups of different shards never contend).  A
// miss inserts a not-yet-ready slot, releases the shard lock, runs the
// builder — so expensive builds (exact-SAT synthesis) of *different* keys
// proceed concurrently, even in the same shard — and publishes the result
// under the lock.  Concurrent lookups of a key being built wait on the
// shard's condition variable instead of building again: every key is
// built exactly once, so `misses()` equals the number of distinct keys
// ever built and the hit/miss totals of a fixed workload do not depend on
// the thread count.
//
// References returned by lookup_or_build stay valid for the store's
// lifetime: values live in map nodes and nothing is ever erased.
#pragma once

#include "core/budget.h"
#include "obs/metrics.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace mcx {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class sharded_store {
public:
    sharded_store() : state_{std::make_unique<state>()} {}

    sharded_store(sharded_store&&) noexcept = default;
    sharded_store& operator=(sharded_store&&) noexcept = default;

    /// The value for `key`, running `build(key)` on the first lookup.
    /// Thread-safe; see the file comment for the once-per-key contract.
    /// The builder must not re-enter the store.  If the builder throws,
    /// the slot is marked failed and the next lookup (a waiter, or a
    /// later caller) takes over the build — nobody hangs on a value that
    /// never arrives.
    ///
    /// A stopped `token` unblocks waiters too: instead of waiting
    /// unconditionally on a builder that may itself be stuck (the builder
    /// runs caller-supplied code outside the shard lock), waiters poll the
    /// token between short condition-variable waits and unwind with
    /// `cancelled_error`.  The slot is left exactly as the builder will
    /// eventually publish it, so nothing is corrupted if the builder does
    /// finish later.
    template <typename Builder>
    const Value& lookup_or_build(const Key& key, Builder&& build,
                                 const cancellation_token& token = {})
    {
        auto& sh = shard_for(key);
        std::unique_lock lock{sh.mutex};
        // References into the map survive rehashing (only iterators are
        // invalidated), so `s` stays valid across the unlocked build.
        slot& s = sh.map.try_emplace(key).first->second;
        if (s.state != slot_state::empty) {
            if (token.stop_possible()) {
                while (!sh.ready.wait_for(
                    lock, std::chrono::milliseconds{50},
                    [&] { return s.state != slot_state::building; })) {
                    if (token.stop_requested())
                        throw cancelled_error{token.stop_reason()};
                }
            } else {
                sh.ready.wait(
                    lock, [&] { return s.state != slot_state::building; });
            }
            if (s.state == slot_state::ready) {
                state_->hits.fetch_add(1, std::memory_order_relaxed);
                state_->hit_metric.add();
                return s.value;
            }
            // The previous builder threw; fall through and take over.
            // Any other waiter re-evaluates its predicate under the lock,
            // sees `building` again, and keeps waiting.
        }
        s.state = slot_state::building;
        state_->misses.fetch_add(1, std::memory_order_relaxed);
        state_->miss_metric.add();
        lock.unlock();
        try {
            Value built = build(key);
            lock.lock();
            s.value = std::move(built);
            s.state = slot_state::ready;
        } catch (...) {
            lock.lock();
            s.state = slot_state::failed;
            lock.unlock();
            sh.ready.notify_all();
            throw;
        }
        lock.unlock();
        sh.ready.notify_all();
        return s.value;
    }

    /// Insert a ready value (deserialization path; not for concurrent use
    /// with lookups of the same key).
    void insert(const Key& key, Value value)
    {
        auto& sh = shard_for(key);
        std::lock_guard lock{sh.mutex};
        auto& s = sh.map[key];
        s.value = std::move(value);
        s.state = slot_state::ready;
    }

    size_t size() const
    {
        size_t total = 0;
        for (auto& sh : state_->shards) {
            std::lock_guard lock{sh.mutex};
            total += sh.map.size();
        }
        return total;
    }

    uint64_t hits() const
    {
        return state_->hits.load(std::memory_order_relaxed);
    }
    uint64_t misses() const
    {
        return state_->misses.load(std::memory_order_relaxed);
    }

    /// Mirror hits/misses into registry counters (obs/metrics.h) in
    /// addition to the per-instance atomics above — instance totals feed
    /// per-round deltas in reports, the registry aggregates across stores.
    void set_metrics(obs::metric hit, obs::metric miss)
    {
        state_->hit_metric = hit;
        state_->miss_metric = miss;
    }

    /// Visit every ready (key, value) pair.  Holds each shard's lock
    /// during its sweep; meant for the single-threaded save/export paths.
    template <typename F>
    void for_each(F&& f) const
    {
        for (auto& sh : state_->shards) {
            std::lock_guard lock{sh.mutex};
            for (const auto& [key, s] : sh.map)
                if (s.state == slot_state::ready)
                    f(key, s.value);
        }
    }

private:
    static constexpr size_t num_shards = 64;

    enum class slot_state : uint8_t { empty, building, ready, failed };

    struct slot {
        Value value{};
        slot_state state = slot_state::empty;
    };

    struct shard {
        mutable std::mutex mutex;
        std::condition_variable ready;
        std::unordered_map<Key, slot, Hash> map;
    };

    struct state {
        std::array<shard, num_shards> shards;
        std::atomic<uint64_t> hits{0};
        std::atomic<uint64_t> misses{0};
        obs::metric hit_metric;
        obs::metric miss_metric;
    };

    shard& shard_for(const Key& key) const
    {
        return state_->shards[Hash{}(key) % num_shards];
    }

    std::unique_ptr<state> state_;
};

} // namespace mcx
