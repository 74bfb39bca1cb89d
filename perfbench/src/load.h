// The closed-loop load: issuing threads, the values they write, and the
// per-thread read check.
//
// Thread t owns the LBAs congruent to t modulo the thread count, so no two
// threads ever write one block and every read has a known expected value:
// the version the owner last got acknowledged, or one of the versions whose
// write failed after that (a failed write may or may not have landed).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"
#include "fab/volume_client.h"

namespace perfbench {

/// Block contents for `version` of `lba`: a header naming both, then a
/// stream derived from (seed, lba, version), so any stale, misplaced or
/// damaged block is caught by comparing it with a regenerated copy.
fabec::Block make_value(std::uint64_t seed, fabec::Lba lba,
                        std::uint64_t version, std::size_t size);

/// One op as fabbench saw it: the span around one VolumeClient call.
struct Span {
  std::uint64_t id = 0;      ///< thread << 48 | per-thread sequence
  fabec::Lba lba = 0;
  std::int64_t start_ns = 0;  ///< steady clock
  std::int64_t end_ns = 0;
  std::uint32_t slice = 0;
  bool write = false;
  bool ok = false;
};

/// What one thread did in one slice of the window.
struct Tally {
  std::vector<std::int64_t> read_ns, write_ns;  ///< acknowledged ops only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t acked_writes = 0;
};

class Issuer {
 public:
  /// Thread `index` of `threads`, over a volume of `blocks` blocks.
  Issuer(std::uint32_t index, std::uint32_t threads, std::uint64_t blocks,
         double write_fraction, std::uint64_t seed, std::size_t block_size);

  /// Issues ops until `stop`, tallying each under the slice (< `slices`)
  /// it started in. With `alternate`, odd slices are traced: their ops
  /// also leave a Span. Starts from empty tallies and spans.
  void run(fabec::fab::VolumeClient& client, const std::atomic<bool>& stop,
           const std::atomic<std::uint32_t>& slice, std::uint32_t slices,
           bool alternate);

  /// Issues `ops` ops outside any window (warm-up); their reads are checked
  /// like any other, their timings dropped.
  void warm_up(fabec::fab::VolumeClient& client, std::uint64_t ops);

  /// Re-reads every LBA this thread wrote and checks each value; a read
  /// that keeps failing counts as a lost write. Returns the number of bad
  /// LBAs.
  std::uint64_t reread(fabec::fab::VolumeClient& client);

  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t written_lbas() const;
  const std::vector<Tally>& tallies() const { return tallies_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Expect {
    std::uint64_t acked = 0;            ///< version 0 = the preload
    std::vector<std::uint64_t> failed;  ///< failed since `acked`
    bool written = false;
  };
  fabec::Lba lba_of(std::size_t slot) const { return slot * threads_ + index_; }
  /// Issues one op on a random owned LBA and tallies it.
  Span issue(fabec::fab::VolumeClient& client, Tally& tally);
  bool check(fabec::Lba lba, const fabec::Block& block) const;

  std::uint32_t index_, threads_;
  double write_fraction_;
  std::uint64_t seed_;
  std::size_t block_size_;
  fabec::Rng rng_;
  std::vector<Expect> expect_;  ///< by slot = lba / threads
  std::uint64_t next_version_ = 1;
  std::uint64_t next_op_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<Tally> tallies_;  ///< by slice
  std::vector<Span> spans_;
};

}  // namespace perfbench
