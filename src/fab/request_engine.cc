#include "fab/request_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace fabec::fab {

using core::Coordinator;
using core::OpError;

RequestEngine::RequestEngine(core::Cluster* cluster, std::uint64_t num_blocks,
                             RequestEngineOptions options)
    : cluster_(cluster),
      executor_(&cluster->simulator()),
      layout_(num_blocks, cluster->config().m, options.layout),
      options_(options),
      table_(options.shards),
      shards_(table_.shard_count()) {
  FABEC_CHECK(options_.max_inflight > 0);
}

RequestEngine::~RequestEngine() {
  for (Shard& sh : shards_)
    if (sh.tick_armed) executor_.cancel_event(sh.tick);
  table_.for_each([this](Token, ClientOp& op) {
    if (op.deadline_armed) executor_.cancel_event(op.deadline);
  });
}

void RequestEngine::read(Lba lba, ReadCb done) {
  submit(lba, false, Block{}, std::move(done), WriteCb{});
}

void RequestEngine::write(Lba lba, Block data, WriteCb done) {
  submit(lba, true, std::move(data), ReadCb{}, std::move(done));
}

void RequestEngine::submit(Lba lba, bool is_write, Block data, ReadCb rcb,
                           WriteCb wcb) {
  ++stats_.submitted;
  ClientOp op;
  op.stripe = layout_.stripe_of(lba);
  op.index = layout_.index_of(lba);
  op.is_write = is_write;
  op.data = std::move(data);
  op.rcb = std::move(rcb);
  op.wcb = std::move(wcb);
  const StripeId stripe = op.stripe;
  const Token t = table_.insert(stripe, std::move(op));
  if (options_.op_deadline > 0) arm_deadline(t);
  const std::uint32_t si = table_.shard_of(stripe);
  if (inflight_ >= options_.max_inflight) {
    ++stats_.admission_waits;
    shards_[si].admission.push_back(t);
    ++admission_queued_;
    stats_.admission_queue_peak =
        std::max(stats_.admission_queue_peak, admission_queued_);
    return;
  }
  enqueue_pending(si, stripe, t);
}

void RequestEngine::enqueue_pending(std::uint32_t si, StripeId stripe,
                                    Token t) {
  Shard& sh = shards_[si];
  StripeQueue& q = sh.pending[stripe];
  if (q.reads.empty() && q.writes.empty()) sh.dirty.push_back(stripe);
  ClientOp* op = table_.find(t);
  FABEC_CHECK(op != nullptr);
  op->admitted = true;
  ++inflight_;
  stats_.inflight_peak = std::max(stats_.inflight_peak, inflight_);
  (op->is_write ? q.writes : q.reads).push_back(t);
  arm_tick(si);
}

void RequestEngine::arm_tick(std::uint32_t si) {
  Shard& sh = shards_[si];
  if (sh.tick_armed) return;
  sh.tick_armed = true;
  sh.tick = executor_.schedule_event(options_.coalesce_window,
                                     [this, si] { tick(si); });
}

void RequestEngine::tick(std::uint32_t si) {
  Shard& sh = shards_[si];
  sh.tick_armed = false;
  std::vector<StripeId> dirty = std::move(sh.dirty);
  sh.dirty.clear();
  for (StripeId stripe : dirty) {
    auto it = sh.pending.find(stripe);
    if (it == sh.pending.end()) continue;
    StripeQueue queue = std::move(it->second);
    sh.pending.erase(it);
    dispatch_stripe(stripe, std::move(queue));
  }
}

std::uint32_t RequestEngine::coalesce_limit() const {
  const std::uint32_t m = cluster_->config().m;
  if (!options_.coalesce) return 1;
  if (options_.max_coalesce == 0) return m;
  return std::min(options_.max_coalesce, m);
}

void RequestEngine::dispatch_stripe(StripeId stripe, StripeQueue queue) {
  const std::uint32_t limit = coalesce_limit();
  // Writes: distinct-index prefix groups. Two writes to the same block can
  // never share a MultiModifyReq (one timestamp, one value per block), so
  // a repeated index starts the next group; concurrent groups then race
  // under the protocol's timestamp order like any two clients would.
  std::vector<BlockIndex> js;
  std::vector<std::vector<Token>> waiters;
  auto flush_writes = [&] {
    if (js.empty()) return;
    dispatch_group(stripe, true, std::move(js), std::move(waiters));
    js.clear();
    waiters.clear();
  };
  for (Token t : queue.writes) {
    const ClientOp* op = table_.find(t);
    if (op == nullptr) continue;  // settled while queued (deadline)
    if (js.size() >= limit ||
        std::find(js.begin(), js.end(), op->index) != js.end())
      flush_writes();
    js.push_back(op->index);
    waiters.push_back({t});
  }
  flush_writes();
  // Reads: duplicate LBAs pile onto one fetch; distinct indices group.
  for (Token t : queue.reads) {
    const ClientOp* op = table_.find(t);
    if (op == nullptr) continue;
    auto at = std::find(js.begin(), js.end(), op->index);
    if (at != js.end()) {
      waiters[static_cast<std::size_t>(at - js.begin())].push_back(t);
      ++stats_.shared_reads;
      continue;
    }
    if (js.size() >= limit) {
      dispatch_group(stripe, false, std::move(js), std::move(waiters));
      js.clear();
      waiters.clear();
    }
    js.push_back(op->index);
    waiters.push_back({t});
  }
  if (!js.empty())
    dispatch_group(stripe, false, std::move(js), std::move(waiters));
}

ProcessId RequestEngine::pick_coordinator(StripeId stripe) {
  const std::uint32_t bricks = cluster_->brick_count();
  if (options_.stripe_affinity) {
    // splitmix64 finalizer: uncorrelated home bricks for adjacent stripes.
    std::uint64_t h = stripe + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    const ProcessId home = static_cast<ProcessId>(h % bricks);
    for (std::uint32_t i = 0; i < bricks; ++i) {
      const ProcessId p = (home + i) % bricks;
      if (cluster_->processes().alive(p)) return p;
    }
    return kNoProcess;
  }
  for (std::uint32_t i = 0; i < bricks; ++i) {
    const ProcessId p = (coord_cursor_ + i) % bricks;
    if (cluster_->processes().alive(p)) {
      coord_cursor_ = (p + 1) % bricks;
      return p;
    }
  }
  return kNoProcess;
}

void RequestEngine::dispatch_group(StripeId stripe, bool is_write,
                                   std::vector<BlockIndex> js,
                                   std::vector<std::vector<Token>> waiters) {
  std::uint32_t total = 0;
  for (const auto& w : waiters) total += static_cast<std::uint32_t>(w.size());
  if (total == 0) return;
  const ProcessId coord = pick_coordinator(stripe);
  if (coord == kNoProcess) {
    for (auto& w : waiters)
      for (Token t : w) {
        const ClientOp* op = table_.find(t);
        if (op == nullptr) continue;
        if (op->is_write)
          settle_write(t, OpError::kMisrouted);
        else
          settle_read(t, OpError::kMisrouted);
      }
    return;
  }
  ++stats_.dispatched_groups;
  if (js.size() > 1) ++stats_.multi_block_groups;
  if (total > 1) stats_.coalesced_ops += total;
  const std::uint64_t gid = next_group_++;
  Group& group = groups_[gid];
  group.coord = coord;
  group.stripe = stripe;
  group.is_write = is_write;
  group.js = js;
  group.waiters = std::move(waiters);
  Coordinator& coordinator = cluster_->coordinator(coord);
  if (is_write) {
    std::vector<Block> blocks;
    blocks.reserve(js.size());
    for (const auto& w : group.waiters) {
      ClientOp* op = table_.find(w.front());
      FABEC_CHECK(op != nullptr);  // dispatch_stripe filtered stale tokens
      blocks.push_back(op->data);
    }
    if (js.size() == 1) {
      coordinator.write_block(
          stripe, js.front(), std::move(blocks.front()),
          Coordinator::WriteOutcomeCb([this, gid](
              Coordinator::WriteOutcome outcome) {
            finish_write_group(gid, std::move(outcome));
          }));
    } else {
      coordinator.write_blocks(
          stripe, std::move(js), std::move(blocks),
          Coordinator::WriteOutcomeCb([this, gid](
              Coordinator::WriteOutcome outcome) {
            finish_write_group(gid, std::move(outcome));
          }));
    }
  } else {
    if (js.size() == 1) {
      coordinator.read_block(
          stripe, js.front(),
          Coordinator::BlockOutcomeCb([this, gid](
              Coordinator::BlockOutcome outcome) {
            finish_read_group(
                gid, outcome.ok()
                         ? Coordinator::StripeOutcome(
                               std::vector<Block>{std::move(*outcome)})
                         : Coordinator::StripeOutcome(outcome.error()));
          }));
    } else {
      coordinator.read_blocks(
          stripe, std::move(js),
          Coordinator::StripeOutcomeCb([this, gid](
              Coordinator::StripeOutcome outcome) {
            finish_read_group(gid, std::move(outcome));
          }));
    }
  }
}

void RequestEngine::finish_read_group(std::uint64_t gid,
                                      Coordinator::StripeOutcome outcome) {
  auto it = groups_.find(gid);
  if (it == groups_.end()) return;  // already settled by notify_crash
  Group group = std::move(it->second);
  groups_.erase(it);
  FABEC_CHECK(!outcome.ok() || outcome->size() == group.js.size());
  for (std::size_t i = 0; i < group.waiters.size(); ++i) {
    for (Token t : group.waiters[i]) {
      if (outcome.ok())
        settle_read(t, Coordinator::BlockOutcome((*outcome)[i]));
      else
        settle_read(t, Coordinator::BlockOutcome(outcome.error()));
    }
  }
  admit_more();
}

void RequestEngine::finish_write_group(std::uint64_t gid,
                                       Coordinator::WriteOutcome outcome) {
  auto it = groups_.find(gid);
  if (it == groups_.end()) return;  // already settled by notify_crash
  Group group = std::move(it->second);
  groups_.erase(it);
  for (const auto& w : group.waiters)
    for (Token t : w) settle_write(t, outcome);
  admit_more();
}

std::optional<RequestEngine::ClientOp> RequestEngine::retire(Token t) {
  std::optional<ClientOp> op = table_.erase(t);
  if (!op.has_value()) return std::nullopt;
  if (op->deadline_armed) {
    executor_.cancel_event(op->deadline);
    ++stats_.timers_cancelled;
  }
  if (op->admitted) {
    FABEC_CHECK(inflight_ > 0);
    --inflight_;
  }
  return op;
}

void RequestEngine::count_error(OpError e) {
  switch (e) {
    case OpError::kAborted: ++stats_.aborted; break;
    case OpError::kTimeout: ++stats_.timed_out; break;
    case OpError::kMisrouted: ++stats_.misrouted; break;
  }
}

void RequestEngine::settle_read(Token t,
                                Coordinator::BlockOutcome outcome) {
  std::optional<ClientOp> op = retire(t);
  if (!op.has_value()) return;  // deadline beat us; token is stale
  if (outcome.ok())
    ++stats_.completed_ok;
  else
    count_error(outcome.error());
  if (op->rcb) op->rcb(std::move(outcome));
}

void RequestEngine::settle_write(Token t,
                                 Coordinator::WriteOutcome outcome) {
  std::optional<ClientOp> op = retire(t);
  if (!op.has_value()) return;
  if (outcome.ok())
    ++stats_.completed_ok;
  else
    count_error(outcome.error());
  if (op->wcb) op->wcb(std::move(outcome));
}

void RequestEngine::arm_deadline(Token t) {
  ClientOp* op = table_.find(t);
  FABEC_CHECK(op != nullptr);
  op->deadline_armed = true;
  op->deadline = executor_.schedule_event(options_.op_deadline,
                                          [this, t] { on_deadline(t); });
}

void RequestEngine::on_deadline(Token t) {
  std::optional<ClientOp> op = table_.erase(t);
  if (!op.has_value()) {
    // A settled op always cancels its timer first; a fire on a stale token
    // is the PR 5 cancellation-audit bug class. Counted, never expected.
    ++stats_.stale_timer_fires;
    return;
  }
  ++stats_.deadline_fired;
  ++stats_.timed_out;
  if (op->admitted) {
    FABEC_CHECK(inflight_ > 0);
    --inflight_;
  }
  // Wherever the op currently sits — admission queue, coalescing buffer,
  // or a dispatched group — its token is now stale and every later pass
  // over that container skips it.
  if (op->is_write) {
    if (op->wcb) op->wcb(Coordinator::WriteOutcome(OpError::kTimeout));
  } else {
    if (op->rcb) op->rcb(Coordinator::BlockOutcome(OpError::kTimeout));
  }
  admit_more();
}

void RequestEngine::notify_crash(ProcessId coordinator) {
  std::vector<std::uint64_t> dead;
  for (const auto& [gid, group] : groups_)
    if (group.coord == coordinator) dead.push_back(gid);
  for (std::uint64_t gid : dead) {
    auto it = groups_.find(gid);
    Group group = std::move(it->second);
    groups_.erase(it);
    for (const auto& w : group.waiters)
      for (Token t : w) {
        std::optional<ClientOp> op = retire(t);
        if (!op.has_value()) continue;
        ++stats_.crash_failed_ops;
        ++stats_.misrouted;
        // The coordinator died with the op's continuation: outcome ⊥,
        // reported as kMisrouted like VolumeClient's aborts on close().
        if (op->is_write) {
          if (op->wcb) op->wcb(Coordinator::WriteOutcome(OpError::kMisrouted));
        } else {
          if (op->rcb) op->rcb(Coordinator::BlockOutcome(OpError::kMisrouted));
        }
      }
  }
  admit_more();
}

void RequestEngine::admit_more() {
  while (admission_queued_ > 0 && inflight_ < options_.max_inflight) {
    // Round-robin over shards so one hot shard cannot starve the rest.
    bool advanced = false;
    for (std::uint32_t i = 0; i < shards_.size() && admission_queued_ > 0;
         ++i) {
      Shard& sh = shards_[(admit_cursor_ + i) % shards_.size()];
      if (sh.admission.empty()) continue;
      const Token t = sh.admission.front();
      sh.admission.pop_front();
      --admission_queued_;
      advanced = true;
      const ClientOp* op = table_.find(t);
      if (op == nullptr) continue;  // timed out while queued
      enqueue_pending(table_.shard_of(op->stripe), op->stripe, t);
      if (inflight_ >= options_.max_inflight) break;
    }
    admit_cursor_ = (admit_cursor_ + 1) % static_cast<std::uint32_t>(
        shards_.size());
    if (!advanced) break;
  }
}

}  // namespace fabec::fab
