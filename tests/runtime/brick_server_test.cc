// Socket-level deployment tests: BrickServer daemons and a VolumeClient in
// one process, real UDP in between. Covers the client/brick round trip over
// learned source addresses, a brick pool larger than the group, client
// threads sharing one VolumeClient, close() under blocked callers, and
// kill/restart persistence via journal replay (the whole quorum restarts,
// so surviving replicas can't mask a recovery bug).
//
// A write completes at a quorum of n - f bricks, so the tests assert
// per-brick activity only for a quorum: a brick starved of CPU may
// legitimately have handled nothing yet.
#include "runtime/brick_server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fab/volume_client.h"
#include "quorum/quorum.h"
#include "runtime/brick_config.h"

namespace fabec::runtime {
namespace {

constexpr std::uint32_t kBricks = 4;
constexpr std::uint32_t kM = 2;
constexpr std::size_t kBlockSize = 256;
constexpr std::uint64_t kNumBlocks = 16;
/// Bricks a completed write is guaranteed to have reached (n - f).
const std::uint32_t kQuorum = quorum::Config{kBricks, kM}.quorum();

class BrickServerTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/fabec_bricks_" + std::to_string(::getpid()) +
           "_" + testing::UnitTest::GetInstance()->current_test_info()->name();
    boot_pool(kBricks);
  }

  void TearDown() override {
    servers_.clear();
    remove_stores();
  }

  void remove_stores() {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    (void)!std::system(cmd.c_str());
  }

  /// Boots `total` fresh bricks on ephemeral ports, replacing any running
  /// pool and its stores.
  void boot_pool(std::uint32_t total) {
    servers_.clear();
    ports_.clear();
    remove_stores();
    total_ = total;
    for (std::uint32_t i = 0; i < total_; ++i) {
      boot_brick(i, /*port=*/0);
      ports_.push_back(servers_[i]->port());
    }
  }

  BrickConfig config_for(std::uint32_t id, std::uint16_t port) {
    BrickConfig config;
    config.brick_id = id;
    config.n = kBricks;
    config.m = kM;
    config.total_bricks = total_;
    config.block_size = kBlockSize;
    config.listen = {"127.0.0.1", port};
    config.store_path = dir_ + "/brick" + std::to_string(id);
    return config;
  }

  void boot_brick(std::uint32_t id, std::uint16_t port) {
    if (servers_.size() <= id) servers_.resize(id + 1);
    servers_[id] =
        std::make_unique<BrickServer>(config_for(id, port), /*seed=*/id + 1);
    std::string error;
    ASSERT_TRUE(servers_[id]->init(&error)) << error;
    servers_[id]->start();
  }

  std::unique_ptr<fab::VolumeClient> make_client(ProcessId id) {
    fab::VolumeClientConfig config;
    config.client_id = id;
    config.n = kBricks;
    config.m = kM;
    config.total_bricks = total_;
    config.block_size = kBlockSize;
    config.num_blocks = kNumBlocks;
    for (std::uint32_t i = 0; i < total_; ++i)
      config.bricks[i] = {"127.0.0.1", ports_[i]};
    config.coordinator.op_deadline = sim::milliseconds(5000);
    config.retry.max_attempts = 4;
    config.retry.initial_backoff = sim::milliseconds(1);
    config.retry.max_backoff = sim::milliseconds(20);
    return std::make_unique<fab::VolumeClient>(std::move(config),
                                               /*seed=*/id);
  }

  static Block pattern(std::uint8_t fill) { return Block(kBlockSize, fill); }

  /// Bricks that have handled at least one request, read on each brick's
  /// loop thread (the only writer of its stats).
  std::uint32_t bricks_that_served() {
    std::uint32_t served = 0;
    for (const auto& server : servers_) {
      std::uint64_t handled = 0;
      server->loop().run_sync(
          [&] { handled = server->stats().requests_handled; });
      if (handled > 0) ++served;
    }
    return served;
  }

  std::string dir_;
  std::uint32_t total_ = kBricks;
  std::vector<std::unique_ptr<BrickServer>> servers_;
  std::vector<std::uint16_t> ports_;
};

TEST_F(BrickServerTest, WriteReadRoundTrip) {
  auto client = make_client(kBricks);
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto wrote =
        client->write(lba, pattern(static_cast<std::uint8_t>(lba + 1)));
    ASSERT_TRUE(wrote.ok()) << "write lba " << lba;
  }
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = client->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba;
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(lba + 1)));
  }
  EXPECT_EQ(client->stats().ok, 2 * kNumBlocks);
  // Bricks learned the client's ephemeral address from its datagrams; every
  // reply they sent proves the reply-to-source path. Each write completed
  // at a quorum, so at least that many bricks answered.
  EXPECT_GE(bricks_that_served(), kQuorum);
  client->close();
}

TEST_F(BrickServerTest, UnwrittenBlocksReadAsZeros) {
  auto client = make_client(kBricks);
  const auto read = client->read(3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Block(kBlockSize, 0));
  client->close();
}

TEST_F(BrickServerTest, TwoClientsShareOneVolume) {
  auto alice = make_client(kBricks);
  auto bob = make_client(kBricks + 1);
  ASSERT_TRUE(alice->write(5, pattern(0xAA)).ok());
  const auto read = bob->read(5);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), pattern(0xAA));
  alice->close();
  bob->close();
}

TEST_F(BrickServerTest, FullClusterRestartRecoversFromJournals) {
  {
    auto client = make_client(kBricks);
    for (Lba lba = 0; lba < kNumBlocks; ++lba)
      ASSERT_TRUE(
          client->write(lba, pattern(static_cast<std::uint8_t>(0x40 + lba)))
              .ok());
    client->close();
  }

  // Kill the WHOLE quorum (no surviving replica can answer for the dead)
  // and restart every brick on its original port from its journal alone.
  for (auto& server : servers_) {
    server->stop();
    server.reset();
  }
  // Every write was journaled by a quorum before it was acknowledged; the
  // replay count is set by init(), before the loop thread runs.
  std::uint32_t recovered = 0;
  for (std::uint32_t i = 0; i < kBricks; ++i) {
    boot_brick(i, ports_[i]);
    if (servers_[i]->stats().journal_replayed > 0) ++recovered;
  }
  EXPECT_GE(recovered, kQuorum) << "fewer than a quorum replayed a journal";

  auto client = make_client(kBricks + 7);
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = client->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba << " after restart";
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(0x40 + lba)))
        << "lba " << lba << " lost its acknowledged write";
  }
  client->close();
}

TEST_F(BrickServerTest, SingleBrickRestartRejoinsQuorum) {
  auto client = make_client(kBricks);
  ASSERT_TRUE(client->write(0, pattern(0x11)).ok());

  servers_[1]->stop();
  servers_[1].reset();
  boot_brick(1, ports_[1]);

  // n=4, m=2 tolerates f=1: operations succeed throughout, and the
  // restarted brick serves again from its replayed state.
  ASSERT_TRUE(client->write(1, pattern(0x22)).ok());
  const auto read = client->read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), pattern(0x11));
  client->close();
}

TEST_F(BrickServerTest, PoolLargerThanGroup) {
  // Six bricks, groups of four: stripes rotate over the pool, and every
  // client in it finds each stripe's group through the shared layout.
  boot_pool(6);
  auto writer = make_client(total_);
  auto reader = make_client(total_ + 1);
  for (Lba lba = 0; lba < kNumBlocks; ++lba)
    ASSERT_TRUE(
        writer->write(lba, pattern(static_cast<std::uint8_t>(0x60 + lba)))
            .ok())
        << "write lba " << lba;
  for (Lba lba = 0; lba < kNumBlocks; ++lba) {
    const auto read = reader->read(lba);
    ASSERT_TRUE(read.ok()) << "read lba " << lba;
    EXPECT_EQ(read.value(), pattern(static_cast<std::uint8_t>(0x60 + lba)));
  }
  // The 8 stripes use all 6 rotations, so every pair of bricks shares a
  // group and each group answered at a quorum: at most one brick can have
  // served nothing, and more bricks served than one group holds.
  EXPECT_GT(bricks_that_served(), kBricks);
  writer->close();
  reader->close();
}

TEST_F(BrickServerTest, ClientThreadsShareOneVolumeClient) {
  // Four application threads on one client, each owning the LBAs congruent
  // to its index: register independence means zero interference.
  auto client = make_client(kBricks);
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        for (Lba lba = t; lba < kNumBlocks; lba += kThreads) {
          const Block value =
              pattern(static_cast<std::uint8_t>(16 * round + lba + 1));
          if (!client->write(lba, value).ok()) {
            ++failures;
            continue;
          }
          const auto read = client->read(lba);
          if (!read.ok() || read.value() != value) ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  client->close();
}

TEST_F(BrickServerTest, ContendingStripeWritersNeverExposeATornStripe) {
  // Writers race whole-stripe writes on ONE stripe. Single operations may
  // abort (that is the spec), but a read must return some fully written
  // stripe, never a mixture: every stripe written has one fill byte.
  std::vector<std::unique_ptr<fab::VolumeClient>> clients;
  for (ProcessId c = 0; c < 3; ++c) clients.push_back(make_client(kBricks + c));
  std::atomic<int> torn{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto& client = *clients[t];
      for (int i = 0; i < 15; ++i) {
        const auto fill = static_cast<std::uint8_t>(16 * t + i + 1);
        client.write_stripe(0, std::vector<Block>(kM, pattern(fill)));
        const auto seen = client.read_stripe(0);
        if (!seen.has_value()) continue;  // aborted read: fine
        ++reads;
        for (const Block& b : *seen)
          if (b != (*seen)[0]) ++torn;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(reads.load(), 0);
  for (auto& client : clients) client->close();
}

TEST_F(BrickServerTest, CloseFailsBlockedCallersCleanly) {
  // close() while application threads are inside blocking operations:
  // every call returns, none hangs, and each result is a success or the
  // closed client's kMisrouted. The interrupted writes then resolve like
  // any partial write.
  auto client = make_client(kBricks);
  ASSERT_TRUE(client->write(0, pattern(0x01)).ok());
  std::atomic<int> unexpected{0};
  std::atomic<int> closed_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0;; ++i) {
        // Disjoint LBAs: no contention, so no abort can outlast the retries.
        const auto outcome = client->write(
            static_cast<Lba>(t),
            pattern(static_cast<std::uint8_t>(0x10 * (t + 1) + i % 16)));
        if (outcome.ok()) continue;
        if (outcome.error() == core::OpError::kMisrouted) {
          ++closed_seen;
          return;
        }
        ++unexpected;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  client->close();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(closed_seen.load(), 3);
  EXPECT_EQ(unexpected.load(), 0);

  // The volume stays readable and consistent for fresh clients.
  auto reader = make_client(kBricks + 1);
  auto again = make_client(kBricks + 2);
  for (Lba lba = 0; lba < 3; ++lba) {
    const auto seen = reader->read(lba);
    ASSERT_TRUE(seen.ok()) << "lba " << lba;
    const auto seen_again = again->read(lba);
    ASSERT_TRUE(seen_again.ok()) << "lba " << lba;
    EXPECT_EQ(seen.value(), seen_again.value()) << "lba " << lba;
  }
  reader->close();
  again->close();
}

}  // namespace
}  // namespace fabec::runtime
