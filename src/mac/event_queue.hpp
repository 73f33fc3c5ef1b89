#ifndef SICMAC_MAC_EVENT_QUEUE_HPP
#define SICMAC_MAC_EVENT_QUEUE_HPP

/// \file event_queue.hpp
/// The discrete-event engine: a time-ordered queue of callbacks with
/// deterministic FIFO tie-breaking (events scheduled earlier run first at
/// equal timestamps), which keeps simulations reproducible.
///
/// Callbacks live inline in the event (up to Callback::kCapacity bytes of
/// capture, checked at compile time), so scheduling never heap-allocates
/// once the queue's storage has grown; reset() empties the queue and keeps
/// that storage for the next run.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "mac/sim_time.hpp"
#include "util/check.hpp"

namespace sic::mac {

class EventQueue {
 public:
  /// Move-only `void()` callable stored inline: a std::function without
  /// the heap fallback for captures past its small buffer.
  class Callback {
   public:
    static constexpr std::size_t kCapacity = 48;

    Callback() = default;

    /// Implicit, so a lambda passes straight to schedule_at().
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, Callback>>>
    Callback(F&& fn) {
      static_assert(sizeof(Fn) <= kCapacity &&
                        alignof(Fn) <= alignof(std::max_align_t),
                    "event capture too large for EventQueue::Callback");
      static_assert(std::is_nothrow_move_constructible_v<Fn>);
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kOps<Fn>;
    }

    Callback(Callback&& other) noexcept : ops_(other.ops_) {
      if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }

    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        ops_ = other.ops_;
        if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
      return *this;
    }

    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { reset(); }

    void operator()() { ops_->invoke(buf_); }

   private:
    struct Ops {
      void (*invoke)(void*);
      /// Move-constructs into \p to and destroys the source.
      void (*relocate)(void* from, void* to);
      void (*destroy)(void*);
    };

    template <typename Fn>
    static constexpr Ops kOps{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* from, void* to) {
          Fn* src = static_cast<Fn*>(from);
          ::new (to) Fn(std::move(*src));
          src->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };

    void reset() {
      if (ops_ != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[kCapacity];
    const Ops* ops_ = nullptr;
  };

  /// Schedules \p fn at absolute time \p at (must be >= now()).
  void schedule_at(SimTime at, Callback fn) {
    SIC_CHECK_MSG(at >= now_, "cannot schedule into the past");
    heap_.push_back(Event{at, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Schedules \p fn after \p delay from now.
  void schedule_after(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Runs the next event; returns false when the queue is empty. The
  /// event is moved off the heap before it runs, so the callback may
  /// schedule more events.
  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.at;
    ev.fn();
    return true;
  }

  /// Runs until the queue drains or \p horizon is reached (events at or
  /// after the horizon remain queued). now() stays at the last executed
  /// event so callers can read the true completion time of a finite run.
  void run_until(SimTime horizon) {
    while (!heap_.empty() && heap_.front().at < horizon) step();
  }

  /// Runs until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Drops every pending event and rewinds the clock and the FIFO
  /// sequence to a new queue's, keeping the heap's capacity.
  void reset() {
    heap_.clear();
    now_ = 0;
    next_seq_ = 0;
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  ///< binary heap under Later
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sic::mac

#endif  // SICMAC_MAC_EVENT_QUEUE_HPP
