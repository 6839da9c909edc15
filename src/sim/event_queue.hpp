#pragma once
/// \file event_queue.hpp
/// A minimal, deterministic discrete-event queue: events pop in
/// non-decreasing time order, FIFO among equal timestamps (insertion
/// sequence breaks ties, so runs are bit-reproducible).
///
/// Same-instant runs. Consecutive pushes at one instant form a FIFO run,
/// which covers a contiguous range of sequence numbers. The heap holds one
/// node per run, with the run's head entry inline. Once a head (t, s)
/// pops, the run's next entry (t, s + 1) is the queue's new minimum — every
/// other entry is later than (t, s), and none carries s + 1 — so it takes
/// the node's place with no sift. The run still receiving pushes (the open
/// run) stays outside the heap until a push at another instant closes it.
/// Pop order is exactly (time, seq), whatever the payload. The entries
/// after each head sit in fixed-size chunks of one shared store, recycled
/// as they drain, so storage follows the peak number of live entries, as a
/// single heap's would.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace facs::sim {

/// \tparam Payload default-constructible and movable.
template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    double time_s = 0.0;
    std::uint64_t seq = 0;
    Payload payload;
  };

  /// Schedules \p payload at \p time_s.
  /// \throws std::invalid_argument if time_s is non-finite or precedes the
  ///         last popped event (no time travel).
  void push(double time_s, Payload payload) {
    if (!(time_s >= last_popped_s_)) {
      throw std::invalid_argument(
          "event scheduled in the past (time must be >= current clock)");
    }
    const std::uint64_t seq = next_seq_++;
    ++size_;
    // Bitwise, so a -0.0 never joins a +0.0 run and reports the wrong sign.
    if (!open_live_ || std::bit_cast<std::uint64_t>(time_s) !=
                           std::bit_cast<std::uint64_t>(open_.time_s)) {
      closeOpenRun();
      open_ = Node{time_s, seq, std::move(payload), kNone};
      open_live_ = true;
      return;
    }
    if (open_.run == kNone) open_.run = newRun();
    append(runs_[open_.run], std::move(payload));
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Time of the next event, if any.
  [[nodiscard]] std::optional<double> peekTime() const {
    if (size_ == 0) return std::nullopt;
    return openIsFront() ? open_.time_s : heap_.front().time_s;
  }

  /// Pops the earliest event; advances the internal clock.
  [[nodiscard]] std::optional<Entry> pop() {
    if (size_ == 0) return std::nullopt;
    return take(openIsFront());
  }

  /// Pops the earliest event only if it precedes \p horizon_s — the
  /// primitive of tick-windowed draining: a shard consumes its local events
  /// strictly before the barrier and leaves the rest for later windows.
  [[nodiscard]] std::optional<Entry> popBefore(double horizon_s) {
    if (size_ == 0) return std::nullopt;
    const bool from_open = openIsFront();
    const double t = from_open ? open_.time_s : heap_.front().time_s;
    if (!(t < horizon_s)) return std::nullopt;
    return take(from_open);
  }

  /// Clock: the time of the most recently popped event.
  [[nodiscard]] double now() const noexcept { return last_popped_s_; }

  /// Heap nodes, run slots and chunk-store entries held, live or free.
  /// Follows the peak live entry count; a steady load must not grow it.
  [[nodiscard]] std::size_t retainedStorage() const noexcept {
    return heap_.capacity() + runs_.capacity() + store_.capacity();
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  static constexpr std::uint32_t kChunk = 64;  ///< Entries per chunk.

  /// A FIFO of entries over a chain of chunks; empty iff head == kNone.
  struct Chain {
    std::uint32_t head = kNone;  ///< Chunk holding the front entry.
    std::uint32_t tail = kNone;  ///< Chunk receiving appends.
    std::uint32_t front = 0;     ///< Front entry's index in `head`.
    std::uint32_t back = 0;      ///< Entries used in `tail`.

    [[nodiscard]] bool empty() const noexcept { return head == kNone; }
  };

  struct Node {
    double time_s = 0.0;
    std::uint64_t seq = 0;  ///< The head's; the run holds seq + 1, ...
    Payload payload;        ///< The head's.
    std::uint32_t run = kNone;  ///< runs_ slot of the entries after it.
  };

  struct Later {
    bool operator()(const Node& a, const Node& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] bool openIsFront() const noexcept {
    if (!open_live_) return false;
    if (heap_.empty()) return true;
    return Later{}(heap_.front(), open_);
  }

  /// Pops the head of the open run or of the heap's top run. A run with
  /// entries left keeps its place: its next entry is the new minimum.
  Entry take(bool from_open) {
    --size_;
    Node& node = from_open ? open_ : heap_.front();
    Entry e{node.time_s, node.seq, std::move(node.payload)};
    last_popped_s_ = e.time_s;
    if (node.run != kNone) {
      Chain& rest = runs_[node.run];
      node.payload = takeFront(rest);
      ++node.seq;
      if (rest.empty()) {
        free_runs_.push_back(node.run);
        node.run = kNone;
      }
    } else if (from_open) {
      open_live_ = false;
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    return e;
  }

  void closeOpenRun() {
    if (!open_live_) return;
    heap_.push_back(std::move(open_));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    open_live_ = false;
  }

  std::uint32_t newRun() {
    if (free_runs_.empty()) {
      free_runs_.push_back(static_cast<std::uint32_t>(runs_.size()));
      runs_.emplace_back();
    }
    const std::uint32_t run = free_runs_.back();
    free_runs_.pop_back();
    return run;
  }

  void append(Chain& chain, Payload payload) {
    if (chain.empty() || chain.back == kChunk) {
      const std::uint32_t chunk = newChunk();
      if (chain.empty()) {
        chain.head = chunk;
        chain.front = 0;
      } else {
        next_[chain.tail] = chunk;
      }
      chain.tail = chunk;
      chain.back = 0;
    }
    store_[std::size_t{chain.tail} * kChunk + chain.back++] =
        std::move(payload);
  }

  Payload takeFront(Chain& chain) {
    const std::uint32_t chunk = chain.head;
    Payload payload = std::move(store_[std::size_t{chunk} * kChunk +
                                       chain.front++]);
    if (chunk == chain.tail && chain.front == chain.back) {
      free_chunks_.push_back(chunk);
      chain = Chain{};
    } else if (chain.front == kChunk) {
      free_chunks_.push_back(chunk);
      chain.head = next_[chunk];
      chain.front = 0;
    }
    return payload;
  }

  std::uint32_t newChunk() {
    if (!free_chunks_.empty()) {
      const std::uint32_t chunk = free_chunks_.back();
      free_chunks_.pop_back();
      return chunk;
    }
    const auto chunk = static_cast<std::uint32_t>(next_.size());
    next_.push_back(kNone);
    store_.resize(store_.size() + kChunk);
    return chunk;
  }

  std::vector<Node> heap_;  ///< Closed runs, min-heap on (time, head seq).
  std::vector<Chain> runs_;  ///< Entries after each multi-entry head.
  std::vector<std::uint32_t> free_runs_;
  std::vector<Payload> store_;       ///< Chunks of kChunk entries.
  std::vector<std::uint32_t> next_;  ///< Per chunk: the next in its chain.
  std::vector<std::uint32_t> free_chunks_;
  Node open_;  ///< The run still receiving pushes, when open_live_.
  bool open_live_ = false;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  double last_popped_s_ = 0.0;
};

}  // namespace facs::sim
