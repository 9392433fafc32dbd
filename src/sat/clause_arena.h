// Arena clause storage for the CDCL core (src/sat/solver.h).
//
// All long clauses (3+ literals; binaries live directly in the watcher
// lists) are stored in one contiguous uint32 buffer.  A clause is a 32-bit
// word offset (`clause_ref`) to a 3-word header followed by the literals
// inline:
//
//   word 0   size << 4 | learnt(bit 0) | used(bit 1) | moved(bit 2) |
//            freed(bit 3)
//   word 1   live:   lbd << 2 | tier (core = 0 / mid = 1 / local = 2)
//            moved:  forwarding clause_ref in the destination arena
//   word 2   float activity bits (learnt clauses)
//   word 3+  literals
//
// Freeing a clause only accounts its words as wasted; compaction
// (`relocate` + `forward` during the solver's garbage collection) copies
// live clauses into a fresh arena and leaves a forwarding ref in the old
// header so watcher lists and reason refs can be patched in place.
//
// Refs fit comfortably in 31 bits (the solver reserves the top watcher /
// reason bit for the inline-binary encoding); `alloc` enforces the cap.
#pragma once

#include "sat/types.h"

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mcx::sat {

using clause_ref = uint32_t;
inline constexpr clause_ref null_ref = ~clause_ref{0};

class clause_arena {
public:
    static constexpr uint32_t header_words = 3;

    clause_ref alloc(std::span<const literal> lits, bool learnt)
    {
        const auto ref = static_cast<clause_ref>(mem_.size());
        if (mem_.size() + header_words + lits.size() > max_words)
            throw std::length_error{"clause_arena: arena exceeds 2^31 words"};
        mem_.push_back(static_cast<uint32_t>(lits.size()) << 4 |
                       (learnt ? flag_learnt : 0u));
        mem_.push_back(0); // lbd/tier
        mem_.push_back(std::bit_cast<uint32_t>(0.0f));
        for (const auto l : lits)
            mem_.push_back(l.code());
        return ref;
    }

    uint32_t size(clause_ref c) const { return mem_[c] >> 4; }
    bool learnt(clause_ref c) const { return (mem_[c] & flag_learnt) != 0; }

    literal* lits(clause_ref c)
    {
        return reinterpret_cast<literal*>(mem_.data() + c + header_words);
    }
    const literal* lits(clause_ref c) const
    {
        return reinterpret_cast<const literal*>(mem_.data() + c +
                                                header_words);
    }

    uint32_t lbd(clause_ref c) const { return mem_[c + 1] >> 2; }
    uint32_t tier(clause_ref c) const { return mem_[c + 1] & 3u; }
    void set_lbd_tier(clause_ref c, uint32_t lbd, uint32_t tier)
    {
        mem_[c + 1] = lbd << 2 | tier;
    }

    bool used(clause_ref c) const { return (mem_[c] & flag_used) != 0; }
    void set_used(clause_ref c, bool on)
    {
        if (on)
            mem_[c] |= flag_used;
        else
            mem_[c] &= ~flag_used;
    }

    float activity(clause_ref c) const
    {
        return std::bit_cast<float>(mem_[c + 2]);
    }
    void set_activity(clause_ref c, float a)
    {
        mem_[c + 2] = std::bit_cast<uint32_t>(a);
    }

    /// Drop a clause: its words become garbage reclaimed by the next
    /// compaction.  The header stays readable until then so watcher lists
    /// can be swept with `freed`.
    void free_clause(clause_ref c)
    {
        mem_[c] |= flag_freed;
        wasted_ += header_words + size(c);
    }
    bool freed(clause_ref c) const { return (mem_[c] & flag_freed) != 0; }

    size_t words() const { return mem_.size(); }
    size_t wasted_words() const { return wasted_; }
    void reserve_words(size_t words) { mem_.reserve(words); }

    /// Compaction: copy a live clause into `to` and leave a forwarding ref
    /// behind.  Idempotent — a second call forwards to the same copy.
    clause_ref relocate(clause_ref c, clause_arena& to)
    {
        if (mem_[c] & flag_moved)
            return mem_[c + 1];
        const auto moved = to.alloc({lits(c), size(c)}, learnt(c));
        to.mem_[moved + 1] = mem_[c + 1];
        to.mem_[moved + 2] = mem_[c + 2];
        to.mem_[moved] |= mem_[c] & flag_used;
        mem_[c] |= flag_moved;
        mem_[c + 1] = moved;
        return moved;
    }

    /// Forwarding ref of a clause already moved by `relocate`.
    clause_ref forward(clause_ref c) const
    {
        return (mem_[c] & flag_moved) ? mem_[c + 1] : c;
    }

    void clear()
    {
        mem_.clear();
        wasted_ = 0;
    }

private:
    static constexpr uint32_t flag_learnt = 1u;
    static constexpr uint32_t flag_used = 2u;
    static constexpr uint32_t flag_moved = 4u;
    static constexpr uint32_t flag_freed = 8u;
    static constexpr size_t max_words = size_t{1} << 31;

    std::vector<uint32_t> mem_;
    size_t wasted_ = 0;
};

} // namespace mcx::sat
