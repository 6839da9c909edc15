#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace facs::sim {
namespace {

/// The queue as it was before same-instant runs: one std::priority_queue
/// entry per event, ordered by (time, seq). Kept as the pop-order oracle.
template <typename Payload>
class HeapQueueOracle {
 public:
  using Entry = typename EventQueue<Payload>::Entry;

  void push(double time_s, Payload payload) {
    if (!(time_s >= last_popped_s_)) {
      throw std::invalid_argument("event scheduled in the past");
    }
    heap_.push(Entry{time_s, next_seq_++, std::move(payload)});
  }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::optional<double> peekTime() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.top().time_s;
  }
  [[nodiscard]] std::optional<Entry> pop() {
    if (heap_.empty()) return std::nullopt;
    Entry e = heap_.top();
    heap_.pop();
    last_popped_s_ = e.time_s;
    return e;
  }
  [[nodiscard]] std::optional<Entry> popBefore(double horizon_s) {
    if (heap_.empty() || !(heap_.top().time_s < horizon_s)) {
      return std::nullopt;
    }
    return pop();
  }
  [[nodiscard]] double now() const noexcept { return last_popped_s_; }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  double last_popped_s_ = 0.0;
};

/// Bit pattern of a time, so +0.0 and -0.0 (or any rounding) differ.
std::uint64_t bits(double t) { return std::bit_cast<std::uint64_t>(t); }

/// Drives a queue and its oracle through the same operations and checks
/// that every observable agrees, bit for bit.
class Lockstep {
 public:
  void push(double t, int payload) {
    q_.push(t, payload);
    oracle_.push(t, payload);
    check();
  }

  /// Pops one entry from both; false when both are empty.
  bool pop() { return agree(q_.pop(), oracle_.pop()); }

  /// Pops one entry before \p horizon from both; false when neither has one.
  bool popBefore(double horizon) {
    return agree(q_.popBefore(horizon), oracle_.popBefore(horizon));
  }

  [[nodiscard]] double now() const { return oracle_.now(); }
  [[nodiscard]] std::size_t size() const { return oracle_.size(); }
  [[nodiscard]] std::uint64_t compared() const { return compared_; }

 private:
  using Entry = EventQueue<int>::Entry;

  bool agree(const std::optional<Entry>& got,
             const std::optional<Entry>& want) {
    EXPECT_EQ(got.has_value(), want.has_value());
    if (got && want) {
      EXPECT_EQ(bits(got->time_s), bits(want->time_s));
      EXPECT_EQ(got->seq, want->seq);
      EXPECT_EQ(got->payload, want->payload);
      ++compared_;
    }
    check();
    return got.has_value() && want.has_value();
  }

  void check() {
    ASSERT_EQ(q_.size(), oracle_.size());
    ASSERT_EQ(q_.empty(), oracle_.empty());
    ASSERT_EQ(bits(q_.now()), bits(oracle_.now()));
    const auto a = q_.peekTime();
    const auto b = oracle_.peekTime();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a && b) {
      ASSERT_EQ(bits(*a), bits(*b));
    }
  }

  EventQueue<int> q_;
  HeapQueueOracle<int> oracle_;
  std::uint64_t compared_ = 0;
};

TEST(EventQueue, StartsEmpty) {
  EventQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peekTime(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<std::string> q;
  q.push(3.0, "c");
  q.push(1.0, "a");
  q.push(2.0, "b");
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.peekTime(), std::optional<double>{1.0});
  EXPECT_EQ(q.pop()->payload, "a");
  EXPECT_EQ(q.pop()->payload, "b");
  EXPECT_EQ(q.pop()->payload, "c");
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(5.0, i);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.pop()->payload, i);
  }
}

TEST(EventQueue, NowAdvancesWithPops) {
  EventQueue<int> q;
  q.push(1.5, 1);
  q.push(4.0, 2);
  (void)q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
  (void)q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue<int> q;
  q.push(5.0, 1);
  (void)q.pop();  // clock now 5.0
  EXPECT_THROW(q.push(4.9, 2), std::invalid_argument);
  EXPECT_NO_THROW(q.push(5.0, 3));  // same instant is fine
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 4),
               std::invalid_argument);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue<int> q;
  std::mt19937_64 rng{7};
  std::uniform_real_distribution<double> dt{0.0, 10.0};
  double clock = 0.0;
  double last_seen = 0.0;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 2000; ++round) {
    if (q.empty() || (round % 3 != 0)) {
      q.push(clock + dt(rng), pushed++);
    } else {
      const auto e = q.pop();
      ASSERT_TRUE(e.has_value());
      EXPECT_GE(e->time_s, last_seen);
      last_seen = e->time_s;
      clock = e->time_s;
      ++popped;
    }
  }
  while (const auto e = q.pop()) {
    EXPECT_GE(e->time_s, last_seen);
    last_seen = e->time_s;
    ++popped;
  }
  EXPECT_EQ(pushed, popped);
}

TEST(EventQueue, EntryCarriesSequenceNumbers) {
  EventQueue<int> q;
  q.push(1.0, 10);
  q.push(1.0, 20);
  const auto a = q.pop();
  const auto b = q.pop();
  ASSERT_TRUE(a && b);
  EXPECT_LT(a->seq, b->seq);
}

TEST(EventQueue, MatchesHeapOracleOnTiedSchedules) {
  // Seeded schedules dense in ties: a k * dt grid shared by many entries,
  // exact repeats of the current instant, off-grid singletons, and
  // window-by-window popBefore drains that reschedule what they pop, as
  // the engine's local phase does. Every peekTime, pop, popBefore, now and
  // seq must equal the oracle's.
  constexpr int kSchedules = 64;
  std::uint64_t total = 0;
  for (int schedule = 0; schedule < kSchedules; ++schedule) {
    SCOPED_TRACE(schedule);
    std::mt19937_64 gen{static_cast<std::uint64_t>(schedule) * 7919 + 3};
    std::uniform_int_distribution<int> coin{0, 99};
    std::uniform_int_distribution<int> ahead{0, 4};
    std::uniform_real_distribution<double> jitter{0.0, 3.0};
    const double dt = schedule % 3 == 0 ? 1.0 : 0.1 * (1 + schedule % 7);
    const int population = 1 + schedule * 37 % 400;
    // Odd schedules are nearly all ticks, so runs grow to hundreds of
    // entries; even ones split runs often.
    const int tick_pct = schedule % 2 == 0 ? 60 : 98;
    Lockstep q;
    int next_payload = 0;
    for (int i = 0; i < population; ++i) {
      q.push(dt * ahead(gen), next_payload++);
    }
    for (int window = 1; window <= 60; ++window) {
      const double end = dt * window;
      while (true) {
        const double before = q.now();
        if (!q.popBefore(end)) break;
        const double t = q.now();
        EXPECT_GE(t, before);
        if (coin(gen) < tick_pct) {
          q.push(t + dt, next_payload++);  // the mobility tick
          continue;
        }
        const int roll = coin(gen);
        if (roll < 25) {
          q.push(t, next_payload++);  // same instant as the pop
        } else if (roll < 65) {
          q.push(t + jitter(gen), next_payload++);  // off-grid end
        } else if (roll < 85) {
          q.push(end + dt * ahead(gen), next_payload++);  // later window
        }
        // else: the entry leaves the schedule
      }
      // Barrier-style pushes between windows: distinct times and grid
      // instants interleaved, so runs at one instant are split.
      const int extra = coin(gen) % 6;
      for (int i = 0; i < extra; ++i) {
        const double t = coin(gen) < 50 ? end + dt * ahead(gen)
                                        : end + jitter(gen);
        q.push(t, next_payload++);
      }
    }
    while (q.pop()) {
    }
    EXPECT_EQ(q.size(), 0u);
    total += q.compared();
  }
  EXPECT_GT(total, 100000u);
}

TEST(EventQueue, MatchesHeapOracleOnSignedZeroAndRepeats) {
  Lockstep q;
  q.push(0.0, 1);
  q.push(-0.0, 2);  // ties with +0.0 but keeps its own sign
  q.push(0.0, 3);
  q.push(-0.0, 4);
  q.push(-0.0, 5);
  ASSERT_TRUE(q.pop());
  q.push(0.0, 6);
  while (q.pop()) {
  }
  for (int i = 0; i < 100; ++i) q.push(1.0, i);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(q.pop());
    q.push(1.0, 100 + i);  // popped and pushed at the same instant
  }
  while (q.pop()) {
  }
}

TEST(EventQueue, MixedRunsPopInTimeThenSeqOrder) {
  EventQueue<int> q;
  q.push(2.0, 0);
  q.push(2.0, 1);
  q.push(1.0, 2);
  q.push(2.0, 3);  // a second run at 2.0, after the first one's entries
  q.push(2.0, 4);
  q.push(1.0, 5);
  const std::vector<int> want{2, 5, 0, 1, 3, 4};
  for (const int payload : want) {
    const auto e = q.pop();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->payload, payload);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RetainedStorageTracksLiveEntries) {
  // The metro pattern: a 5k-entry run at one instant drains each window
  // and reschedules itself at the next, beside one distinct-time entry per
  // window. Drained chunks are reused, so over 1,000 windows the storage
  // stays at the peak live entry count instead of growing.
  constexpr int kRun = 5000;
  EventQueue<int> q;
  for (int i = 0; i < kRun; ++i) q.push(1.0, i);
  std::size_t warmed_up = 0;
  for (int window = 1; window <= 1000; ++window) {
    const double end = window + 1.0;
    int popped = 0;
    while (const auto e = q.popBefore(end)) {
      if (e->payload >= 0) q.push(e->time_s + 1.0, e->payload);
      ++popped;
    }
    EXPECT_GE(popped, kRun);
    q.push(end + 0.5, -window);
    ASSERT_LE(q.size(), kRun + 1u);
    ASSERT_LE(q.retainedStorage(), 4u * kRun) << window;
    if (window == 10) warmed_up = q.retainedStorage();
    if (window > 10) {
      ASSERT_EQ(q.retainedStorage(), warmed_up) << window;
    }
  }
}

}  // namespace
}  // namespace facs::sim
