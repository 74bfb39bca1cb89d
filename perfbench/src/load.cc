#include "load.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace perfbench {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

fabec::Block make_value(std::uint64_t seed, fabec::Lba lba,
                        std::uint64_t version, std::size_t size) {
  fabec::Block block(size);
  std::memcpy(block.data(), &lba, sizeof lba);
  std::memcpy(block.data() + 8, &version, sizeof version);
  std::uint64_t state = seed ^ (lba * 0xd1b54a32d192ed03ULL) ^
                        (version * 0x8cb92ba72f3d8dd7ULL);
  for (std::size_t at = 16; at + 8 <= size; at += 8) {
    const std::uint64_t word = splitmix(state);
    std::memcpy(block.data() + at, &word, sizeof word);
  }
  return block;
}

Issuer::Issuer(std::uint32_t index, std::uint32_t threads,
               std::uint64_t blocks, double write_fraction,
               std::uint64_t seed, std::size_t block_size)
    : index_(index),
      threads_(threads),
      write_fraction_(write_fraction),
      seed_(seed),
      block_size_(block_size),
      rng_(seed * 0x100000001b3ULL + index),
      expect_(blocks / threads) {}

bool Issuer::check(fabec::Lba lba, const fabec::Block& block) const {
  if (block.size() != block_size_) return false;
  fabec::Lba got_lba = 0;
  std::uint64_t version = 0;
  std::memcpy(&got_lba, block.data(), sizeof got_lba);
  std::memcpy(&version, block.data() + 8, sizeof version);
  const Expect& e = expect_[lba / threads_];
  const bool expected =
      version == e.acked ||
      std::find(e.failed.begin(), e.failed.end(), version) != e.failed.end();
  return got_lba == lba && expected &&
         block == make_value(seed_, lba, version, block_size_);
}

Span Issuer::issue(fabec::fab::VolumeClient& client, Tally& tally) {
  const std::size_t slot = rng_.next_below(expect_.size());
  const fabec::Lba lba = lba_of(slot);
  Span span{static_cast<std::uint64_t>(index_) << 48 | next_op_++, lba};
  span.write = rng_.next_double() < write_fraction_;
  ++tally.attempted;
  if (span.write) {
    const std::uint64_t version = next_version_++;
    fabec::Block value = make_value(seed_, lba, version, block_size_);
    span.start_ns = now_ns();
    span.ok = client.write(lba, std::move(value)).ok();
    span.end_ns = now_ns();
    Expect& e = expect_[slot];
    e.written = true;
    if (span.ok) {
      e.acked = version;
      e.failed.clear();
      ++tally.acked_writes;
      tally.write_ns.push_back(span.end_ns - span.start_ns);
    } else {
      e.failed.push_back(version);
    }
  } else {
    span.start_ns = now_ns();
    const auto outcome = client.read(lba);
    span.end_ns = now_ns();
    span.ok = outcome.ok();
    if (span.ok) {
      tally.read_ns.push_back(span.end_ns - span.start_ns);
      if (!check(lba, outcome.value())) ++mismatches_;
    }
  }
  if (!span.ok) ++tally.failed;
  return span;
}

void Issuer::run(fabec::fab::VolumeClient& client,
                 const std::atomic<bool>& stop,
                 const std::atomic<std::uint32_t>& slice, std::uint32_t slices,
                 bool alternate) {
  tallies_.assign(slices, Tally{});
  spans_.clear();
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint32_t s = slice.load(std::memory_order_relaxed);
    Span span = issue(client, tallies_[s]);
    span.slice = s;
    if (alternate && (s & 1) != 0) spans_.push_back(span);
  }
}

void Issuer::warm_up(fabec::fab::VolumeClient& client, std::uint64_t ops) {
  Tally dropped;
  for (std::uint64_t i = 0; i < ops; ++i) issue(client, dropped);
}

std::uint64_t Issuer::reread(fabec::fab::VolumeClient& client) {
  constexpr int kAttempts = 3;
  std::uint64_t bad = 0;
  for (std::size_t slot = 0; slot < expect_.size(); ++slot) {
    if (!expect_[slot].written) continue;
    const fabec::Lba lba = lba_of(slot);
    bool good = false;
    for (int attempt = 0; attempt < kAttempts && !good; ++attempt) {
      const auto outcome = client.read(lba);
      if (!outcome.ok()) continue;
      good = check(lba, outcome.value());
      if (!good) break;  // a wrong value is final, not a transient error
    }
    if (!good) ++bad;
  }
  return bad;
}

std::uint64_t Issuer::written_lbas() const {
  return static_cast<std::uint64_t>(
      std::count_if(expect_.begin(), expect_.end(),
                    [](const Expect& e) { return e.written; }));
}

}  // namespace perfbench
