#include "layers.h"

#include <cxxabi.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <vector>

#include "common/rng.h"
#include "core/group_layout.h"
#include "core/journal.h"
#include "core/persistence.h"
#include "core/replica.h"
#include "core/wire.h"
#include "quorum/quorum.h"
#include "runtime/datagram_mux.h"
#include "runtime/epoll_loop.h"
#include "storage/env.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Timed results are stored here so the calls producing them stay live.
volatile std::uint8_t g_sink = 0;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Unqualified type name of the alternative `msg` holds, so the replay
/// reports whatever kinds the journal carries without naming any.
std::string kind_name(const fabec::core::Message& msg) {
  return std::visit(
      [](const auto& alternative) {
        const char* mangled = typeid(alternative).name();
        int status = 0;
        char* demangled =
            abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
        std::string name = status == 0 ? demangled : mangled;
        std::free(demangled);
        const auto colon = name.rfind("::");
        return colon == std::string::npos ? name : name.substr(colon + 2);
      },
      msg);
}

constexpr int kBatches = 31;
constexpr int kCallsPerBatch = 64;

/// Per-call median over batches, in microseconds: a batch amortizes the
/// clock reads, the median drops batches a preemption landed in.
template <typename Fn>
double median_call_us(Fn&& fn) {
  fn();  // warm caches and lazily built tables
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < kCallsPerBatch; ++i) fn();
    per_call.push_back(ns_between(start, Clock::now()) / kCallsPerBatch / 1e3);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

}  // namespace

bool replay_store(const std::string& store, const std::string& scratch,
                  fabec::ProcessId brick, const Geometry& geometry,
                  ReplayCosts* out, std::string* error) {
  using namespace fabec;
  // Records kept for the wire and journal passes; enough for stable means
  // without holding a whole journal's blocks in memory twice.
  constexpr std::size_t kSampleRecords = 4000;

  storage::Env& env = storage::Env::real();
  core::PersistentState::Options options;
  options.dir = store;
  core::PersistentState state(env, options);
  const core::GroupLayout layout(geometry.total_bricks, geometry.n);
  const auto codec =
      erasure::make_code_family(erasure::CodeSpec{}, geometry.m, geometry.n);

  const auto start = Clock::now();
  std::unique_ptr<storage::BrickStore> brick_store;
  if (!state.recover_store(geometry.block_size, &brick_store, error))
    return false;
  core::RegisterReplica replica(
      brick, quorum::Config{geometry.n, geometry.m, codec->max_erasures_any()},
      &layout, codec.get(), brick_store.get());

  std::map<std::size_t, std::string> names;  // variant index -> kind name
  std::map<std::string, double> kind_ns;
  double handle_ns = 0;
  std::vector<core::Message> sample;
  const bool replayed = state.replay_journals(
      [&](const core::Message& msg) {
        const auto before = Clock::now();
        replica.handle(msg);
        const double ns = ns_between(before, Clock::now());
        auto [it, fresh] = names.try_emplace(msg.index());
        if (fresh) it->second = kind_name(msg);
        ++out->by_kind[it->second].records;
        kind_ns[it->second] += ns;
        handle_ns += ns;
        ++out->records;
        if (sample.size() < kSampleRecords) sample.push_back(msg);
      },
      error);
  if (!replayed) return false;
  out->recover_s = ns_between(start, Clock::now()) / 1e9;
  for (auto& [name, cost] : out->by_kind)
    cost.handle_ns_mean = kind_ns[name] / static_cast<double>(cost.records);
  if (out->records == 0) {
    *error = "store " + store + " holds no journal records to replay";
    return false;
  }
  out->handle_ns_mean = handle_ns / static_cast<double>(out->records);

  // Wire codec over the same records.
  double encode_ns = 0, decode_ns = 0, bytes = 0;
  for (const core::Message& msg : sample) {
    const auto a = Clock::now();
    const Bytes wire = core::encode_message(msg);
    const auto b = Clock::now();
    const auto decoded = core::decode_message(wire);
    const auto c = Clock::now();
    if (!decoded) {
      *error = "a replayed record does not survive an encode/decode round";
      return false;
    }
    encode_ns += ns_between(a, b);
    decode_ns += ns_between(b, c);
    bytes += static_cast<double>(wire.size());
  }
  const double records = static_cast<double>(sample.size());
  out->wire_records = sample.size();
  out->encode_ns_per_kib = encode_ns / (bytes / 1024);
  out->decode_ns_per_kib = decode_ns / (bytes / 1024);
  out->encode_ns_per_record = encode_ns / records;
  out->decode_ns_per_record = decode_ns / records;

  // Journal appends of the same records into a scratch segment.
  {
    core::MessageJournal journal;
    if (!journal.open(env, scratch + "/journal.append-bench")) {
      *error = "cannot open a scratch journal in " + scratch;
      return false;
    }
    double append_ns = 0;
    for (const core::Message& msg : sample) {
      const auto a = Clock::now();
      if (!journal.append(msg)) {
        *error = "scratch journal append failed";
        return false;
      }
      append_ns += ns_between(a, Clock::now());
    }
    out->append_us = append_ns / records / 1e3;
    out->record_bytes = static_cast<double>(journal.bytes_appended()) /
                        static_cast<double>(journal.records_appended());
  }

  // One compaction of the replayed state into the copy's next generation.
  if (!state.start_appending(error)) return false;
  const auto before_compact = Clock::now();
  if (!state.compact(*brick_store)) {
    *error = "compaction of the replayed store failed";
    return false;
  }
  out->compact_ms = ns_between(before_compact, Clock::now()) / 1e6;
  return true;
}

CodecCosts time_codec(const fabec::erasure::CodeFamily& codec,
                      std::size_t block_size, std::uint64_t seed) {
  using namespace fabec;
  using erasure::ConstByteSpan;
  using erasure::MutByteSpan;
  Rng rng(seed);
  const std::uint32_t m = codec.m();
  const std::uint32_t k = codec.k();
  std::vector<Block> data;
  std::vector<Block> parity(k, Block(block_size));
  std::vector<Block> decoded(m, Block(block_size));
  for (std::uint32_t i = 0; i < m; ++i)
    data.push_back(random_block(rng, block_size));
  const Block replacement = random_block(rng, block_size);

  std::vector<ConstByteSpan> data_views(data.begin(), data.end());
  std::vector<MutByteSpan> parity_views(parity.begin(), parity.end());
  std::vector<MutByteSpan> decoded_views(decoded.begin(), decoded.end());

  CodecCosts costs;
  costs.calls = kBatches * kCallsPerBatch;
  costs.encode_parity_us =
      median_call_us([&] { codec.encode_parity(data_views, parity_views); });

  // Data block 0 lost: the survivors plus the first parity block decode.
  std::vector<erasure::ShardView> shards;
  for (std::uint32_t i = 1; i < m; ++i) shards.push_back({i, data[i]});
  shards.push_back({m, parity[0]});
  costs.decode_into_us =
      median_call_us([&] { codec.decode_into(shards, decoded_views); });

  costs.modify_us = median_call_us([&] {
    g_sink = codec.modify(0, m, data[0], replacement, parity[0])[0];
  });
  return costs;
}

double mux_rtt_us(int pings, std::size_t block_size) {
  using namespace fabec;
  runtime::EpollLoop server_loop(11), client_loop(12);
  std::mutex mutex;
  std::condition_variable replied;
  std::uint64_t replies = 0;  // guarded by mutex

  std::unique_ptr<runtime::DatagramMux> server;
  server = std::make_unique<runtime::DatagramMux>(
      &server_loop, 0, runtime::Endpoint{"127.0.0.1", 0},
      [&server, block_size](ProcessId from, std::vector<core::Message> msgs) {
        for (const core::Message& msg : msgs) {
          if (const auto* req = std::get_if<core::ReadReq>(&msg)) {
            core::ReadRep rep;
            rep.op = req->op;
            rep.status = true;
            rep.block = Block(block_size);
            server->send(from, rep);
          }
        }
      });
  runtime::DatagramMux client(
      &client_loop, 1, runtime::Endpoint{"127.0.0.1", 0},
      [&](ProcessId, std::vector<core::Message> msgs) {
        std::lock_guard<std::mutex> lock(mutex);
        replies += msgs.size();
        replied.notify_all();
      });
  client.set_peer(0, {"127.0.0.1", server->local_port()});
  server_loop.start();
  client_loop.start();

  constexpr int kWarmup = 50;
  std::vector<double> rtts;
  for (int i = 0; i < kWarmup + pings; ++i) {
    const auto start = Clock::now();
    client_loop.post([&client, i] {
      core::ReadReq req;
      req.op = static_cast<core::OpId>(i);
      client.send(0, req);
    });
    std::unique_lock<std::mutex> lock(mutex);
    // Loopback drops nothing in practice; the timeout keeps a lost datagram
    // from hanging the benchmark (it then counts as a 100 ms round trip).
    replied.wait_for(lock, std::chrono::milliseconds(100), [&] {
      return replies > static_cast<std::uint64_t>(i);
    });
    replies = static_cast<std::uint64_t>(i) + 1;
    if (i >= kWarmup) rtts.push_back(ns_between(start, Clock::now()) / 1e3);
  }
  client_loop.stop();
  server_loop.stop();
  std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2, rtts.end());
  return rtts[rtts.size() / 2];
}

}  // namespace perfbench
