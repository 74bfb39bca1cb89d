// The same protocol, off the simulator: eight BrickServers (5-of-8) on real
// loopback UDP, one VolumeClient coordinating for four application threads
// doing blocking I/O, while a brick crashes and restarts underneath them.
//
// Each BrickServer is exactly what a `brickd` process runs; here all eight
// live in this process, their stores under $TMPDIR. The crash is a stop and
// teardown (socket closed, volatile state gone), the restart a fresh server
// on the same port that recovers from the brick's journal.
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fab/volume_client.h"
#include "runtime/brick_server.h"

namespace {

using namespace fabec;

constexpr std::uint32_t kN = 8;
constexpr std::uint32_t kM = 5;
constexpr std::size_t kBlockSize = 4096;

runtime::BrickConfig brick_config(std::uint32_t id, std::uint16_t port,
                                  const std::string& dir) {
  runtime::BrickConfig config;
  config.brick_id = id;
  config.n = kN;
  config.m = kM;
  config.total_bricks = kN;
  config.block_size = kBlockSize;
  config.listen = {"127.0.0.1", port};
  config.store_path = dir + "/brick" + std::to_string(id);
  return config;
}

std::unique_ptr<runtime::BrickServer> boot(const runtime::BrickConfig& config) {
  auto server = std::make_unique<runtime::BrickServer>(config, config.brick_id);
  std::string error;
  if (!server->init(&error)) {
    std::fprintf(stderr, "brick %u: %s\n", config.brick_id, error.c_str());
    std::exit(1);
  }
  server->start();
  return server;
}

}  // namespace

int main() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/fab-realtime-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }

  std::vector<std::unique_ptr<runtime::BrickServer>> bricks;
  fab::VolumeClientConfig config;
  for (std::uint32_t id = 0; id < kN; ++id) {
    bricks.push_back(boot(brick_config(id, /*port=*/0, dir)));
    config.bricks[id] = {"127.0.0.1", bricks[id]->port()};
  }
  config.client_id = kN;
  config.n = kN;
  config.m = kM;
  config.block_size = kBlockSize;
  config.num_blocks = 4 * kM;  // four stripes, one per client thread
  fab::VolumeClient client(config, /*seed=*/2026);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 40;
  std::atomic<int> issued{0}, writes_ok{0}, reads_ok{0}, mismatches{0};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + t);
      const auto stripe = static_cast<StripeId>(t);  // disjoint stripes
      for (int i = 0; i < kOpsPerThread; ++i, ++issued) {
        std::vector<Block> data;
        for (std::uint32_t j = 0; j < kM; ++j)
          data.push_back(random_block(rng, kBlockSize));
        if (!client.write_stripe(stripe, data)) continue;
        ++writes_ok;
        const auto seen = client.read_stripe(stripe);
        if (!seen.has_value()) continue;
        ++reads_ok;
        if (*seen != data) ++mismatches;
      }
    });
  }

  // Meanwhile: crash brick 6 a quarter of the way in, bring it back at the
  // halfway mark. The clients never notice.
  auto wait_for_issued = [&](int target) {
    while (issued.load() < target)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  wait_for_issued(kThreads * kOpsPerThread / 4);
  std::printf("crashing brick 6 under load...\n");
  const std::uint16_t port = bricks[6]->port();
  bricks[6]->stop();
  bricks[6].reset();
  wait_for_issued(kThreads * kOpsPerThread / 2);
  std::printf("restarting brick 6 from its journal...\n");
  bricks[6] = boot(brick_config(6, port, dir));

  for (auto& c : clients) c.join();
  const auto wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  const auto stats = client.coordinator_stats();
  client.close();
  const auto replayed = bricks[6]->stats().journal_replayed;
  bricks.clear();
  std::filesystem::remove_all(dir);

  std::printf("\n%d client threads x %d ops in %lld ms of real time\n",
              kThreads, kOpsPerThread, static_cast<long long>(wall_ms));
  std::printf("writes ok: %d   reads ok: %d   read/write mismatches: %d\n",
              writes_ok.load(), reads_ok.load(), mismatches.load());
  std::printf("fast-path reads: %llu/%llu   recoveries: %llu   aborts: %llu\n",
              static_cast<unsigned long long>(stats.fast_read_hits),
              static_cast<unsigned long long>(stats.stripe_reads),
              static_cast<unsigned long long>(stats.recoveries_started),
              static_cast<unsigned long long>(stats.aborts));
  std::printf("brick 6 replayed %llu journal records on restart\n",
              static_cast<unsigned long long>(replayed));
  return mismatches.load() == 0 ? 0 : 1;
}
