// Client-side volume library for the multi-process deployment.
//
// A VolumeClient is a FAB volume as seen from an application on some other
// machine: it holds no brick state, but it COORDINATES — §4.1 lets any
// process run Algorithm 1/3, and in the brickd deployment the natural
// coordinator is the client itself (one fewer network hop than proxying
// through a brick, and brick kills never orphan a client's operation — the
// strict-linearizability histories the cluster harness records therefore
// contain aborts and timeouts but no crash events). The embedded
// core::Coordinator brings the whole PR 5 liveness stack with it:
// retransmit with exponential backoff and jitter, the per-brick suspicion
// map, per-phase deadlines.
//
// Wire-wise the client is a DatagramMux on an ephemeral port speaking the
// CRC'd singleton/frame codec to the bricks named in its config; bricks
// learn its return address from its datagrams' source, so clients come and
// go without any cluster-side registration.
//
// Threading: one EpollLoop worker owns coordinator + mux; application
// threads use the blocking API, which posts to the loop and waits on a
// future; close() fails every waiting call with kMisrouted. The blocking
// API is thread-safe; aborted operations retry with capped jittered backoff
// (fab::RetryPolicy, §5.1's "the client retries") in the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/timestamp.h"
#include "common/types.h"
#include "core/coordinator.h"
#include "core/group_layout.h"
#include "erasure/code_family.h"
#include "fab/layout.h"
#include "fab/virtual_disk.h"
#include "runtime/brick_config.h"
#include "runtime/datagram_mux.h"
#include "runtime/epoll_loop.h"

namespace fabec::fab {

struct VolumeClientConfig {
  /// This client's process id for envelopes and timestamps. Must be unique
  /// across every coordinating process of the cluster and >= total_bricks
  /// (brick ids own 0..total_bricks-1).
  ProcessId client_id = 0;
  /// Quorum layout — must match the bricks' configs.
  std::uint32_t n = 8;
  std::uint32_t m = 5;
  /// Erasure-code family — must match the bricks' configs (the repair
  /// plans and the quorum fault budget both derive from it).
  erasure::CodeSpec code;
  std::uint32_t total_bricks = 0;  ///< 0 = n
  std::size_t block_size = 4096;
  /// Volume geometry (fab/layout.h).
  std::uint64_t num_blocks = 0;
  Layout layout = Layout::kRotating;
  StripeId stripe_base = 0;
  /// brick id -> address, for every brick in the pool.
  std::map<ProcessId, runtime::Endpoint> bricks;
  core::Coordinator::Options coordinator;
  /// §5.1 client retry (durations are real nanoseconds here).
  RetryPolicy retry;

  /// Builds the common part (quorum layout, block size, peer map) from a
  /// parsed brickd config — the operator writes one cluster description
  /// and both sides read it. Volume geometry and client identity still
  /// need to be filled in.
  static VolumeClientConfig from_brick_config(
      const runtime::BrickConfig& brick);
};

class VolumeClient {
 public:
  using BlockOutcome = core::Coordinator::BlockOutcome;
  using WriteOutcome = core::Coordinator::WriteOutcome;

  explicit VolumeClient(VolumeClientConfig config, std::uint64_t seed = 1);
  ~VolumeClient();

  VolumeClient(const VolumeClient&) = delete;
  VolumeClient& operator=(const VolumeClient&) = delete;

  std::uint64_t capacity_blocks() const { return layout_.num_blocks(); }
  std::size_t block_size() const { return config_.block_size; }
  ProcessId client_id() const { return config_.client_id; }

  // --- blocking I/O (any application thread) -----------------------------
  /// Final outcome after the RetryPolicy: kAborted means the retry budget
  /// ran out, kTimeout that a quorum stayed unreachable for a full
  /// op_deadline (never retried), kMisrouted that the client is closed.
  BlockOutcome read(Lba lba);
  WriteOutcome write(Lba lba, Block data);

  /// Whole-stripe operations (volume-relative stripe ids; no retry — the
  /// caller owns the policy for bulk transfers).
  std::optional<std::vector<Block>> read_stripe(StripeId stripe);
  bool write_stripe(StripeId stripe, std::vector<Block> data);

  /// Maintenance: parity-compare one stripe / rewrite it from its decoded
  /// content (volume-relative ids; no retry). Together they are the
  /// erasure-decode repair loop for brick-side corruption: scrub detects,
  /// repair re-encodes from the surviving >= m good blocks.
  core::Coordinator::ScrubResult scrub_stripe(StripeId stripe);
  bool repair_stripe(StripeId stripe);

  /// Fails outstanding operations with kMisrouted and stops the loop.
  /// Idempotent; the destructor calls it.
  void close();

  const ClientStats& stats() const { return stats_; }
  /// Runs on the loop; do not call after close().
  core::CoordinatorStats coordinator_stats();
  /// The coordinator read-cache counters (DESIGN.md §13) as one small
  /// struct — what tools/cluster prints for its --read-cache
  /// differential. Runs on the loop; do not call after close().
  struct CachedReadStats {
    std::uint64_t hits = 0;         ///< single-round probe confirms
    std::uint64_t misses = 0;       ///< no usable entry; quorum path
    std::uint64_t fallbacks = 0;    ///< probe sent, not confirmed
    std::uint64_t invalidations = 0;
    std::uint64_t evictions = 0;    ///< LRU capacity displacements
  };
  CachedReadStats cached_read_stats();
  const runtime::DatagramMuxStats& mux_stats() const { return mux_->stats(); }

 private:
  template <typename T, typename Start>
  T blocking_op(T closed_value, Start&& start);
  sim::Duration jittered(sim::Duration backoff);

  VolumeClientConfig config_;
  core::GroupLayout group_layout_;
  std::unique_ptr<const erasure::CodeFamily> codec_;
  VolumeLayout layout_;
  runtime::EpollLoop loop_;
  std::unique_ptr<runtime::DatagramMux> mux_;
  std::unique_ptr<TimestampSource> ts_source_;
  std::unique_ptr<core::Coordinator> coordinator_;

  std::atomic<bool> closed_{false};
  std::mutex mutex_;  ///< guards aborts_, rng_, stats_
  std::map<std::uint64_t, std::function<void()>> aborts_;
  std::uint64_t next_abort_id_ = 0;
  Rng rng_;
  ClientStats stats_;
};

}  // namespace fabec::fab
