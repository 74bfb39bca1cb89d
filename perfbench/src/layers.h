// Per-layer costs measured outside the running cluster: a replay of one
// brick's own store through the public persistence, replica, wire and
// journal functions; codec calls at the run's geometry; and a loopback
// ping-pong through the runtime's mux.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/types.h"
#include "erasure/code_family.h"

namespace perfbench {

struct Geometry {
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  std::uint32_t total_bricks = 0;
  std::size_t block_size = 0;
};

struct KindCost {
  std::uint64_t records = 0;
  double handle_ns_mean = 0;
};

struct ReplayCosts {
  double recover_s = 0;          ///< recover_store + replay_journals
  std::uint64_t records = 0;     ///< journal records replayed
  double handle_ns_mean = 0;     ///< RegisterReplica::handle, all records
  std::map<std::string, KindCost> by_kind;  ///< keyed by message type name
  std::uint64_t wire_records = 0;  ///< records in the wire/journal passes
  double encode_ns_per_kib = 0;
  double decode_ns_per_kib = 0;
  double encode_ns_per_record = 0;
  double decode_ns_per_record = 0;
  double append_us = 0;          ///< MessageJournal::append, mean
  double record_bytes = 0;       ///< journal bytes per record
  double compact_ms = 0;         ///< one PersistentState::compact
};

/// Replays the store directory `store` (a stopped brick's copy, which this
/// modifies: compaction writes a new generation into it) as brick `brick`,
/// timing every record. `scratch` receives a throwaway journal. Returns
/// false with `error` set when the store does not recover.
bool replay_store(const std::string& store, const std::string& scratch,
                  fabec::ProcessId brick, const Geometry& geometry,
                  ReplayCosts* out, std::string* error);

struct CodecCosts {
  double modify_us = 0;         ///< one parity update for one data block
  double decode_into_us = 0;    ///< full decode with one data block lost
  double encode_parity_us = 0;  ///< all parity blocks of one stripe
  std::uint64_t calls = 0;      ///< timed calls behind each median
};

CodecCosts time_codec(const fabec::erasure::CodeFamily& codec,
                      std::size_t block_size, std::uint64_t seed);

/// Median round trip of a read request answered with one block of
/// `block_size` bytes, between two DatagramMux / EpollLoop pairs on
/// loopback, issued from a third thread the way VolumeClient's blocking
/// calls are.
double mux_rtt_us(int pings, std::size_t block_size);

}  // namespace perfbench
