// Group-commit journal tests: coalescing (many appends, few fsyncs), the
// durable-before-ack contract, LSN numbering and inline completion of
// durable waits, barrier ordering for empty appends, when a batch waits for
// writers in flight (write intents) and when it does not, the exclusive
// window for compaction — and a fork+SIGKILL battery proving that
// a crash at any point between batch buffering and fsync never loses an
// acknowledged entry.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace uucs {
namespace {

using namespace std::chrono_literals;

TEST(GroupCommit, AppendsAreDurableWhenAcked) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  Journal journal = Journal::open(path);
  {
    GroupCommitJournal committer(journal);
    committer.append_sync({"alpha", "beta"});
    committer.append_sync({"gamma"});
  }
  Journal reopened = Journal::open(path);
  ASSERT_EQ(reopened.entries().size(), 3u);
  EXPECT_EQ(reopened.entries()[0], "alpha");
  EXPECT_EQ(reopened.entries()[2], "gamma");
}

TEST(GroupCommit, ConcurrentAppendsCoalesceIntoFewFsyncs) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  const std::uint64_t fsyncs_before = journal.fsync_count();
  constexpr int kThreads = 8;
  constexpr int kAppends = 25;
  {
    GroupCommitJournal::Config cfg;
    // Every writer of a round is in flight (holds a write intent) before
    // any of them appends, so the first entry's batch waits up to this
    // long for the rest of the round; each append ends its own intent
    // before append_sync blocks on durability.
    cfg.max_wait_us = 2000;
    GroupCommitJournal committer(journal, cfg);
    std::barrier round(kThreads);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kAppends; ++i) {
          const GroupCommitJournal::WriteIntent intent = committer.begin_write();
          round.arrive_and_wait();
          committer.append_sync(
              {"t" + std::to_string(t) + "-" + std::to_string(i)});
        }
      });
    }
    for (auto& w : writers) w.join();
    const auto stats = committer.stats();
    EXPECT_EQ(stats.entries, static_cast<std::uint64_t>(kThreads * kAppends));
    EXPECT_EQ(stats.batches, journal.fsync_count() - fsyncs_before);
    // The whole point: far fewer fsyncs than entries. Even on a single core
    // the sync windows overlap enough to halve the count; in practice the
    // ratio is much higher.
    EXPECT_LT(stats.batches, stats.entries / 2);
    EXPECT_GT(stats.largest_batch, 1u);
  }
  EXPECT_EQ(journal.entries().size(), static_cast<std::size_t>(kThreads * kAppends));
}

TEST(GroupCommit, AsyncCallbacksFireAfterDurability) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal committer(journal);
  std::atomic<int> acked{0};
  for (int i = 0; i < 10; ++i) {
    committer.append_async({"entry-" + std::to_string(i)},
                           [&](bool durable) { acked += durable ? 1 : 0; });
  }
  committer.flush();
  EXPECT_EQ(acked.load(), 10);
  EXPECT_EQ(journal.entries().size(), 10u);
}

TEST(GroupCommit, EmptyAppendIsAnOrderingBarrier) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 5000;
  GroupCommitJournal committer(journal, cfg);
  std::atomic<bool> entry_durable{false};
  std::atomic<bool> barrier_fired{false};
  std::atomic<bool> order_ok{false};
  committer.append_async({"payload"}, [&](bool) { entry_durable = true; });
  committer.append_async({}, [&](bool durable) {
    // Queued after the entry, so it must complete after the entry is on disk.
    order_ok = durable && entry_durable.load();
    barrier_fired = true;
  });
  committer.flush();
  EXPECT_TRUE(barrier_fired.load());
  EXPECT_TRUE(order_ok.load());
  EXPECT_EQ(journal.entries().size(), 1u);  // the barrier wrote nothing
}

TEST(GroupCommit, LsnsNumberEntriesAndDurableWaitsCompleteInline) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal committer(journal);
  EXPECT_EQ(committer.append({"a", "b"}), 2u);
  EXPECT_EQ(committer.append({}), 2u);  // "everything queued before me"
  EXPECT_EQ(committer.append({"c"}), 3u);
  committer.notify();
  committer.flush();
  EXPECT_EQ(committer.durable_lsn(), 3u);

  // A durable LSN — or LSN 0, which observed nothing — completes on the
  // calling thread before wait() returns.
  bool durable_now = false;
  bool nothing_now = false;
  committer.wait(2, [&](bool durable) { durable_now = durable; });
  committer.wait(0, [&](bool durable) { nothing_now = durable; });
  EXPECT_TRUE(durable_now);
  EXPECT_TRUE(nothing_now);
  EXPECT_EQ(committer.stats().immediate_acks, 2u);

  // A later LSN waits for the fsync that covers it.
  std::atomic<bool> later{false};
  const std::uint64_t lsn = committer.append({"d"});
  EXPECT_EQ(lsn, 4u);
  committer.wait(lsn, [&](bool durable) { later = durable; });
  committer.notify();
  committer.flush();
  EXPECT_TRUE(later.load());
  EXPECT_EQ(committer.durable_lsn(), 4u);
  EXPECT_EQ(journal.entries().size(), 4u);
}

/// Polls until the committer's durable LSN reaches `lsn` or `limit` passes;
/// returns the time it took (at least `limit` when it never got there).
std::chrono::steady_clock::duration time_until_durable(
    const GroupCommitJournal& committer, std::uint64_t lsn,
    std::chrono::steady_clock::duration limit = 5s) {
  const auto start = std::chrono::steady_clock::now();
  while (committer.durable_lsn() < lsn &&
         std::chrono::steady_clock::now() - start < limit) {
    std::this_thread::sleep_for(1ms);
  }
  const auto took = std::chrono::steady_clock::now() - start;
  return committer.durable_lsn() >= lsn ? took : std::max(took, limit);
}

/// Appends `entries` and rings the commit thread from a thread of its own:
/// another writer, which leaves the calling thread's write intent alone.
std::uint64_t append_as_another_writer(GroupCommitJournal& committer,
                                       std::vector<std::string> entries) {
  std::uint64_t lsn = 0;
  std::thread([&] {
    lsn = committer.append(std::move(entries));
    committer.notify();
  }).join();
  return lsn;
}

/// Polls until the commit thread has started holding a batch for a writer
/// in flight (waited_batches reaches 1), or ~5 s pass.
bool commit_thread_holds_a_batch(const GroupCommitJournal& committer) {
  const auto start = std::chrono::steady_clock::now();
  while (committer.stats().waited_batches < 1 &&
         std::chrono::steady_clock::now() - start < 5s) {
    std::this_thread::sleep_for(1ms);
  }
  return committer.stats().waited_batches == 1;
}

TEST(GroupCommit, BatchFilledDuringTheLingerIsWrittenAtOnce) {
  // notify() rings a commit thread that holds a batch for a writer in
  // flight only once the batch is full; a lost ring would leave this batch
  // waiting out the whole window, since that writer (this thread, which
  // never appends) keeps its intent.
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_batch_entries = 4;
  cfg.max_wait_us = 10'000'000;
  GroupCommitJournal committer(journal, cfg);
  const GroupCommitJournal::WriteIntent intent = committer.begin_write();
  append_as_another_writer(committer, {"a"});
  ASSERT_TRUE(commit_thread_holds_a_batch(committer));
  EXPECT_EQ(committer.durable_lsn(), 0u);
  const std::uint64_t lsn = append_as_another_writer(committer, {"b", "c", "d"});
  EXPECT_LT(time_until_durable(committer, lsn), 2s);
  EXPECT_EQ(committer.durable_lsn(), 4u);
  EXPECT_EQ(committer.stats().waited_batches, 1u);
}

TEST(GroupCommit, LoneAppendIsWrittenWithoutWaitingOutTheWindow) {
  // No writer is in flight, so there is nothing to wait for: the window
  // bounds a wait for writers, it does not delay an idle log.
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 10'000'000;
  GroupCommitJournal committer(journal, cfg);
  const std::uint64_t lsn = committer.append({"lone"});
  committer.notify();
  EXPECT_LT(time_until_durable(committer, lsn), 2s);
  EXPECT_EQ(committer.stats().waited_batches, 0u);
}

TEST(GroupCommit, EntryQueuedDuringAWriteIsWrittenRightAfterIt) {
  // An entry that queued while the previous batch was being written has
  // already waited out that write; it must not wait out a fresh window too.
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  std::atomic<bool> in_hook{false};
  std::atomic<bool> release{false};
  GroupCommitJournal::Config cfg;
  cfg.max_batch_entries = 2;
  cfg.max_wait_us = 10'000'000;
  cfg.fault_hook = [&] {
    if (!in_hook.exchange(true)) {
      while (!release.load()) std::this_thread::sleep_for(1ms);
    }
    return JournalFault{};
  };
  GroupCommitJournal committer(journal, cfg);
  committer.append({"a", "b"});
  committer.notify();
  const auto hook_start = std::chrono::steady_clock::now();
  while (!in_hook.load() && std::chrono::steady_clock::now() - hook_start < 5s) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(in_hook.load());
  const std::uint64_t lsn = committer.append({"c"});
  committer.notify();
  release.store(true);
  EXPECT_LT(time_until_durable(committer, lsn), 2s);
  EXPECT_EQ(journal.entries().size(), 3u);
  EXPECT_EQ(committer.stats().batches, 2u);
}

TEST(GroupCommit, WritersOwnAppendEndsItsIntent) {
  // Once a writer's entries are queued it is no longer in flight: its batch
  // must not wait for the rest of its own work (here: forever).
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 10'000'000;
  GroupCommitJournal committer(journal, cfg);
  GroupCommitJournal::WriteIntent intent = committer.begin_write();
  const std::uint64_t lsn = committer.append({"mine"});
  committer.notify();
  EXPECT_LT(time_until_durable(committer, lsn), 2s);
  EXPECT_EQ(committer.stats().waited_batches, 0u);
  // The token's own end is now a no-op, and the thread may begin again.
  intent.end();
  const GroupCommitJournal::WriteIntent next = committer.begin_write();
  const std::uint64_t next_lsn = committer.append({"next"});
  committer.notify();
  EXPECT_LT(time_until_durable(committer, next_lsn), 2s);
  EXPECT_EQ(committer.stats().waited_batches, 0u);
}

TEST(GroupCommit, OutstandingIntentHoldsTheBatchUntilItEnds) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 10'000'000;
  GroupCommitJournal committer(journal, cfg);
  // Writer A (this thread) is in flight and has queued nothing.
  GroupCommitJournal::WriteIntent intent = committer.begin_write();
  // A moved-from intent is empty: ending it neither ends the live one nor
  // rings the commit thread.
  GroupCommitJournal::WriteIntent moved = std::move(intent);
  intent.end();
  // Writer B queues under an intent of its own, which its append ends; the
  // batch holding B's entry still waits for A.
  std::uint64_t lsn = 0;
  std::thread([&] {
    const GroupCommitJournal::WriteIntent own = committer.begin_write();
    lsn = committer.append({"held"});
    committer.notify();
  }).join();
  ASSERT_TRUE(commit_thread_holds_a_batch(committer));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(committer.durable_lsn(), 0u) << "batch cut while a writer was in flight";
  // Ending the last intent rings the waiting commit thread: the batch goes
  // out at once, not when the 10 s window closes.
  moved.end();
  EXPECT_LT(time_until_durable(committer, lsn), 2s);
  EXPECT_EQ(committer.stats().waited_batches, 1u);
}

TEST(GroupCommit, IntentNeverEndedDelaysTheBatchAtMostTheWindow) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 200'000;
  GroupCommitJournal committer(journal, cfg);
  const GroupCommitJournal::WriteIntent stuck = committer.begin_write();
  const std::uint64_t lsn = append_as_another_writer(committer, {"late"});
  const auto took = time_until_durable(committer, lsn);
  EXPECT_GE(took, 150ms);  // it did wait for the writer...
  EXPECT_LT(took, 2s);     // ...but only for the window
  EXPECT_EQ(committer.stats().waited_batches, 1u);
}

TEST(GroupCommit, WithExclusiveParksTheCommitterForCompaction) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal committer(journal);
  committer.append_sync({"one", "two", "three"});
  committer.with_exclusive([&] {
    ASSERT_EQ(journal.entries().size(), 3u);
    journal.compact({});  // safe: no batch in flight
  });
  // The committer keeps working after the exclusive section.
  committer.append_sync({"four"});
  ASSERT_EQ(journal.entries().size(), 1u);
  EXPECT_EQ(journal.entries()[0], "four");
}

TEST(GroupCommit, AppendsDuringExclusiveAreHeldNotLost) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal committer(journal);
  std::thread late_writer;
  committer.with_exclusive([&] {
    // An append racing the exclusive section must neither touch the journal
    // now nor be dropped.
    late_writer = std::thread([&] { committer.append_sync({"held"}); });
    std::this_thread::sleep_for(50ms);
    EXPECT_TRUE(journal.entries().empty());
  });
  late_writer.join();
  EXPECT_EQ(journal.entries().size(), 1u);
}

// --- disk-exhaustion resilience (DESIGN.md §15) ----------------------------

/// Waits until `pred` holds or ~2 s elapse; returns whether it held.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(GroupCommit, InjectedEnospcDegradesParksAndRecoversExactlyOnce) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  std::atomic<bool> failing{true};
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 0;
  cfg.recheck_interval_ms = 5;
  cfg.fault_hook = [&] {
    JournalFault f;
    if (failing.load()) f.err = ENOSPC;
    return f;
  };
  GroupCommitJournal committer(journal, cfg);

  // The first batch fails like a full disk: its ack must be negative and the
  // payload parked, never silently dropped (it was already applied in
  // memory by the dispatcher that queued it).
  std::atomic<int> first_acks{0}, first_durable{0};
  committer.append_async({"first"}, [&](bool durable) {
    ++first_acks;
    first_durable += durable ? 1 : 0;
  });
  ASSERT_TRUE(eventually([&] { return first_acks.load() == 1; }));
  EXPECT_EQ(first_durable.load(), 0);
  ASSERT_TRUE(eventually(
      [&] { return committer.health() == GroupCommitJournal::Health::kDegraded; }));

  // While degraded, appends are rejected at the door — immediately, without
  // waiting on the dead disk — and their payloads park too.
  std::atomic<int> second_acks{0};
  committer.append_async({"second"}, [&](bool durable) {
    EXPECT_FALSE(durable);
    ++second_acks;
  });
  ASSERT_TRUE(eventually([&] { return second_acks.load() == 1; }));
  EXPECT_THROW(committer.append_sync({"third"}), SystemError);
  {
    const auto stats = committer.stats();
    EXPECT_GE(stats.failed_batches, 1u);
    EXPECT_GE(stats.rejected_appends, 2u);
    EXPECT_EQ(stats.parked_entries, 3u);  // first + second + third
    EXPECT_EQ(stats.degraded_spells, 1u);
  }

  // Space returns: the recovery probe replays the parked backlog in order
  // and only then reopens the door.
  failing.store(false);
  ASSERT_TRUE(eventually(
      [&] { return committer.health() == GroupCommitJournal::Health::kOk; }));
  committer.append_sync({"after"});

  const auto stats = committer.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.parked_entries, 0u);
  const auto& entries = journal.entries();
  ASSERT_EQ(entries.size(), 4u);
  // Replay preserves queue order, and nothing is duplicated.
  EXPECT_EQ(entries[0], "first");
  EXPECT_EQ(entries[1], "second");
  EXPECT_EQ(entries[2], "third");
  EXPECT_EQ(entries[3], "after");
}

TEST(GroupCommit, BarrierDuringDegradedFailsFastWithoutParking) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  std::atomic<bool> failing{true};
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 0;
  cfg.recheck_interval_ms = 5;
  cfg.fault_hook = [&] {
    JournalFault f;
    if (failing.load()) f.err = EIO;
    return f;
  };
  GroupCommitJournal committer(journal, cfg);
  std::atomic<int> acks{0};
  committer.append_async({"payload"}, [&](bool) { ++acks; });
  ASSERT_TRUE(eventually([&] { return acks.load() == 1; }));
  ASSERT_TRUE(eventually(
      [&] { return committer.health() == GroupCommitJournal::Health::kDegraded; }));
  // A barrier (empty append) carries no state, so a degraded journal fails
  // it immediately and parks nothing.
  std::atomic<int> barrier_acks{0};
  committer.append_async({}, [&](bool durable) {
    EXPECT_FALSE(durable);
    ++barrier_acks;
  });
  ASSERT_TRUE(eventually([&] { return barrier_acks.load() == 1; }));
  EXPECT_EQ(committer.stats().parked_entries, 1u);  // only the payload
  failing.store(false);
  ASSERT_TRUE(eventually(
      [&] { return committer.health() == GroupCommitJournal::Health::kOk; }));
  EXPECT_EQ(journal.entries().size(), 1u);
}

TEST(GroupCommit, DiskHeadroomFloorDegradesBeforeRealEnospc) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 0;
  cfg.recheck_interval_ms = 5;
  // No filesystem has this much headroom: the statvfs check must trip
  // without the write ever reaching the disk.
  cfg.min_free_bytes = ~std::uint64_t{0} / 2;
  GroupCommitJournal committer(journal, cfg);
  std::atomic<int> acks{0};
  committer.append_async({"too-big"}, [&](bool durable) {
    EXPECT_FALSE(durable);
    ++acks;
  });
  ASSERT_TRUE(eventually([&] { return acks.load() == 1; }));
  ASSERT_TRUE(eventually(
      [&] { return committer.health() == GroupCommitJournal::Health::kDegraded; }));
  EXPECT_TRUE(journal.entries().empty());
  EXPECT_EQ(committer.stats().parked_entries, 1u);
  // Destruction while degraded must not hang (nothing pending owes an ack).
}

TEST(GroupCommit, SlowFsyncsWidenTheGroupWindowThenNarrowBack) {
  TempDir dir;
  Journal journal = Journal::open(dir.file("j.log"));
  std::atomic<bool> slow{true};
  GroupCommitJournal::Config cfg;
  cfg.max_wait_us = 100;
  cfg.widened_max_wait_us = 2000;
  cfg.widened_batch_factor = 4;
  cfg.slow_fsync_threshold_s = 0.002;
  cfg.fault_hook = [&] {
    JournalFault f;
    if (slow.load()) f.stall_s = 0.01;  // a loaded spinning disk
    return f;
  };
  GroupCommitJournal committer(journal, cfg);
  committer.append_sync({"a"});
  // One 10 ms batch against a 2 ms threshold seeds the EWMA over it.
  EXPECT_TRUE(committer.widened());
  committer.append_sync({"b"});
  {
    const auto stats = committer.stats();
    EXPECT_GE(stats.slow_fsyncs, 1u);
    EXPECT_GE(stats.widened_batches, 1u);
  }
  // The device recovers; repeated fast batches decay the EWMA below half the
  // threshold and the window narrows again.
  slow.store(false);
  for (int i = 0; i < 40 && committer.widened(); ++i) {
    committer.append_sync({"fast-" + std::to_string(i)});
  }
  EXPECT_FALSE(committer.widened());
  EXPECT_EQ(committer.health(), GroupCommitJournal::Health::kOk);
}

// --- crash battery ---------------------------------------------------------

/// Child: appends entries through a group-commit journal, reporting each id
/// over `pipe_fd` the moment its durability callback fires (the "ack" the
/// ingest plane would send). The parent SIGKILLs it at a random moment, so
/// the kill can land before a batch buffers, between buffering and fsync, or
/// after the ack is written to the pipe.
[[noreturn]] void crash_child(const std::string& journal_path, int pipe_fd,
                              std::uint64_t seed) {
  Journal journal = Journal::open(journal_path);
  GroupCommitJournal::Config cfg;
  cfg.max_batch_entries = 8;
  cfg.max_wait_us = 200;
  GroupCommitJournal committer(journal, cfg);
  Rng rng(seed);
  for (int i = 0; i < 100000; ++i) {
    const std::string id = "run-" + std::to_string(seed) + "-" + std::to_string(i);
    committer.append_async({id}, [id, pipe_fd](bool durable) {
      if (!durable) return;
      const std::string line = id + "\n";
      // The ack: once these bytes leave, the entry must survive the crash.
      [[maybe_unused]] const auto n = ::write(pipe_fd, line.data(), line.size());
    });
    // Vary the appender's cadence so batches of different sizes are in
    // flight when the kill lands.
    if (rng.bernoulli(0.2)) {
      std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform_int(0, 300)));
    }
  }
  committer.flush();
  std::_Exit(0);
}

TEST(GroupCommit, KillBetweenBufferAndFsyncLosesNoAckedEntry) {
  std::size_t total_acked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TempDir dir;
    const std::string path = dir.file("j.log");
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      crash_child(path, fds[1], seed);
    }
    ::close(fds[1]);

    // Let the child get some acks out, then kill it mid-stream. The delay is
    // seed-varied so the kill lands at different phases of the commit cycle.
    std::this_thread::sleep_for(std::chrono::milliseconds(30 + 17 * seed));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);

    // Everything acked before the kill, as seen by the parent.
    std::string acked_bytes;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) acked_bytes.append(buf, n);
    ::close(fds[0]);

    // Replay the journal exactly like a restarting server would.
    Journal recovered = Journal::open(path);
    std::size_t acked = 0;
    std::size_t pos = 0;
    while (true) {
      const std::size_t nl = acked_bytes.find('\n', pos);
      if (nl == std::string::npos) break;  // a torn last line was not acked
      const std::string id = acked_bytes.substr(pos, nl - pos);
      pos = nl + 1;
      ++acked;
      bool found = false;
      for (const auto& e : recovered.entries()) {
        if (e == id) {
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "seed " << seed << ": acked entry '" << id
                         << "' lost by the crash (" << recovered.entries().size()
                         << " entries survived)";
    }
    total_acked += acked;
  }
  // The battery must actually have exercised acks, or it proves nothing.
  EXPECT_GT(total_acked, 50u);
}

/// Entries that were buffered but never acked may or may not survive; either
/// way a retry (same id appended again after recovery) is safe because the
/// server-side dedup index absorbs it. This pins the journal half of that
/// contract: replay + re-append never duplicates an acked id.
TEST(GroupCommit, UnackedEntriesAreSafelyRetriedAfterCrash) {
  TempDir dir;
  const std::string path = dir.file("j.log");
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    crash_child(path, fds[1], 42);
  }
  ::close(fds[1]);
  std::this_thread::sleep_for(60ms);
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  std::string acked_bytes;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) acked_bytes.append(buf, n);
  ::close(fds[0]);

  // Recovery: the client retries every id it never saw acked. The journal
  // (like UucsServer's dedup index) already holds some of them; a retry must
  // end with each id present at least once and each *acked* id exactly once
  // after dedup — modelled here with the survivor set.
  Journal recovered = Journal::open(path);
  std::set<std::string> survivors(recovered.entries().begin(),
                                  recovered.entries().end());
  // Retry everything up to a little past the journal's high-water mark: the
  // tail ids were minted client-side but never made it to disk, so some
  // retries always exist no matter where the kill landed.
  int high_water = 0;
  for (const auto& e : recovered.entries()) {
    const std::size_t dash = e.rfind('-');
    if (dash != std::string::npos) {
      high_water = std::max(high_water, std::stoi(e.substr(dash + 1)));
    }
  }
  GroupCommitJournal committer(recovered);
  std::size_t retried = 0;
  for (int i = 0; i < high_water + 100; ++i) {
    const std::string id = "run-42-" + std::to_string(i);
    if (acked_bytes.find(id + "\n") != std::string::npos) continue;  // acked
    if (survivors.count(id) != 0) continue;  // survived unacked: dedup absorbs
    committer.append_sync({id});
    ++retried;
    survivors.insert(id);
  }
  committer.flush();
  // Every id is now durable exactly once — the retry pass added only ids the
  // journal did not already hold, so nothing is duplicated.
  std::map<std::string, int> copies;
  for (const auto& e : recovered.entries()) ++copies[e];
  for (const auto& [id, count] : copies) {
    EXPECT_EQ(count, 1) << "id " << id << " duplicated by the retry pass";
  }
  EXPECT_GT(retried, 0u);
}

}  // namespace
}  // namespace uucs
