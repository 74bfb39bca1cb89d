// fabbench — the end-to-end benchmark program.
//
//   fabbench --workload <name> --seed <n> --seconds <t> --trace <0|1>
//            --brickd <path> --dir <run dir> [--commit <id>]
//            [--spans <file>]
//
// Boots 8 real brickd processes (n = 8, m = 5, Cauchy-RS, 4 KiB blocks,
// journal without fsync) and drives them through one fab::VolumeClient
// from four closed-loop threads. Every layer is measured from outside: the
// program times its own calls into the client, reads the public stats
// accessors, samples /proc of the bricks and of its own threads, and (with
// --trace 1) replays a brick's journal through the public persistence,
// replica, wire and codec functions. perfbench/run.py builds this binary
// and brickd, then runs it; perfbench/README.md lists the workloads and
// what every metric means.
//
// Standard output ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set; the lines before it are provenance and
// a table of every metric with its sample count.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bricks.h"
#include "core/persistence.h"
#include "fab/layout.h"
#include "fab/volume_client.h"
#include "gf/kernels.h"
#include "layers.h"
#include "load.h"
#include "runtime/brick_config.h"
#include "storage/env.h"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kBricks = 8;
constexpr std::uint32_t kM = 5;
constexpr std::size_t kBlockSize = 4096;
constexpr int kSetupRepeats = 3;
/// Warm-up ops per issuing thread: enough to fill the read cache and to let
/// the client suspect the degraded workload's victim.
constexpr std::uint64_t kWarmupOps = 1000;
/// The window is cut into slices of this length; every end-to-end figure
/// is the median over slices, and traced runs alternate untraced and
/// traced slices.
constexpr double kSliceSeconds = 2.0;
/// The degraded workload's victim: a data brick (ids 0..m-1 hold the data
/// positions), so reads of its blocks take the repair-plan decode path.
constexpr std::uint32_t kVictim = 0;

struct WorkloadSpec {
  const char* name;
  double write_fraction;
  std::uint64_t blocks;
  bool kill_one;  ///< SIGKILL one brick after preload; it stays down
  bool stagger_compaction;  ///< see compact_threshold()
};

constexpr WorkloadSpec kWorkloads[] = {
    {"read-mostly", 0.1, 2560, false, false},
    {"write-heavy", 0.8, 40960, false, true},
    {"degraded", 0.5, 2560, true, false},
};

/// Journal bytes past which brick `id` compacts. By default every brick
/// uses brickd's default threshold. One client loads all bricks alike, so
/// they then compact in the same instant. On write-heavy each compaction
/// snapshots ~40 MB, and eight at once stalled the whole volume on the disk
/// and swung throughput by a quarter from run to run. There the thresholds
/// are spread over 48..76 MiB so that compactions do not coincide. The
/// other workloads keep the default: their snapshots are small, and a
/// degraded op needs every surviving brick, so spread-out compactions would
/// stall it seven times as often.
std::uint64_t compact_threshold(const WorkloadSpec& w, std::uint32_t id) {
  return w.stagger_compaction
             ? (48ull + 4ull * id) << 20
             : fabec::runtime::BrickConfig{}.compact_threshold_bytes;
}

struct Flags {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string brickd;
  std::string dir;
  std::string commit = "unknown";
  std::string spans;
};

bool parse_flags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads)
        if (value == w.name) flags->workload = &w;
      if (flags->workload == nullptr) return false;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      flags->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      flags->trace = value == "1";
    } else if (key == "--brickd") {
      flags->brickd = value;
    } else if (key == "--dir") {
      flags->dir = value;
    } else if (key == "--commit") {
      flags->commit = value;
    } else if (key == "--spans") {
      flags->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && flags->workload != nullptr && flags->seconds > 0 &&
         !flags->brickd.empty() && !flags->dir.empty() &&
         (!flags->trace || flags->seconds >= 2 * kSliceSeconds);
}

/// Four closed-loop issuing threads (queue depth 4), or one per CPU on a
/// smaller machine.
std::uint32_t issuing_threads() {
  static const auto threads = static_cast<std::uint32_t>(
      std::clamp<long>(::sysconf(_SC_NPROCESSORS_ONLN), 1, 4));
  return threads;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Nearest-rank percentile of `v` (sorted in place), in microseconds.
double percentile_us(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / 1e3;
}

double mean_us(const std::vector<std::int64_t>& v) {
  double sum = 0;
  for (const std::int64_t x : v) sum += static_cast<double>(x);
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size()) / 1e3;
}

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

/// Flushes the file system holding `dir`, so that writeback and discards
/// owed to earlier work (a previous run's deleted stores, the set-up's own
/// journal writes) are not paid inside what is measured next.
void settle_disk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_table(const std::vector<Metric>& metrics) {
  std::printf("%-36s %16s  %-8s %10s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics)
    std::printf("%-36s %16s  %-8s %10" PRIu64 "\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.samples);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += quoted(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " +
            quoted(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_provenance(const Flags& flags) {
  utsname host{};
  ::uname(&host);
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"commit\": %s, \"nproc\": %ld, "
      "\"cpu_model\": %s, \"kernel\": %s, \"gf_kernel\": %s, "
      "\"bricks\": %u, \"n\": %u, \"m\": %u, \"code\": \"rs\", "
      "\"block_size\": %zu, \"issuing_threads\": %u, "
      "\"journal\": \"append per mutating request, no fsync\", "
      "\"compact_threshold_mib\": \"%" PRIu64 "..%" PRIu64
      " by brick id\"}}\n",
      quoted(flags.workload->name).c_str(), flags.seed,
      number(flags.seconds).c_str(), flags.trace ? 1 : 0,
      quoted(flags.commit).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
      quoted(cpu_model()).c_str(),
      quoted(std::string(host.sysname) + " " + host.release).c_str(),
      quoted(fabec::gf::kernels().name).c_str(), kBricks, kBricks, kM,
      kBlockSize, issuing_threads(),
      compact_threshold(*flags.workload, 0) >> 20,
      compact_threshold(*flags.workload, kBricks - 1) >> 20);
}

// --- the deployment ----------------------------------------------------------

struct Deployment {
  std::unique_ptr<BrickPool> pool;
  std::unique_ptr<fabec::fab::VolumeClient> client;
  std::vector<std::unique_ptr<Issuer>> issuers;
  std::vector<pid_t> loop_tids;  ///< the client's event-loop thread
  std::optional<std::uint32_t> victim;
};

/// Cumulative resource counters at one instant; cheap enough to take at
/// every slice boundary.
struct Sample {
  Clock::time_point at;
  double client_cpu_s = 0;
  double loop_cpu_s = 0;
  std::vector<std::optional<ProcSample>> bricks;
};

Sample take_sample(const Deployment& d) {
  Sample s;
  s.at = Clock::now();
  s.client_cpu_s = process_cpu_s();
  for (const pid_t tid : d.loop_tids) s.loop_cpu_s += thread_cpu_s(tid);
  for (std::uint32_t i = 0; i < d.pool->size(); ++i)
    s.bricks.push_back(d.pool->running(i) ? sample_process(d.pool->pid(i))
                                          : std::nullopt);
  return s;
}

/// Runs every issuer for `seconds`, cut into slices of kSliceSeconds (the
/// last one takes the remainder); with `alternate`, odd slices are traced.
/// Returns a sample at every slice boundary, first and last included.
std::vector<Sample> run_load(Deployment& d, double seconds, bool alternate) {
  const auto slices = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(seconds / kSliceSeconds));
  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> slice{0};
  std::vector<Sample> samples{take_sample(d)};
  const auto start = samples.front().at;
  std::vector<std::thread> threads;
  for (auto& issuer : d.issuers)
    threads.emplace_back([&, raw = issuer.get()] {
      raw->run(*d.client, stop, slice, slices, alternate);
    });
  for (std::uint32_t s = 0; s < slices; ++s) {
    const double end = s + 1 == slices ? seconds : (s + 1) * kSliceSeconds;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(end)));
    if (s + 1 < slices) slice.store(s + 1);
    samples.push_back(take_sample(d));
  }
  stop = true;
  for (auto& t : threads) t.join();
  return samples;
}

/// Runs `fn(issuer)` for every issuer, each on its own thread, and joins.
template <typename Fn>
void on_every_issuer(Deployment& d, Fn fn) {
  std::vector<std::thread> threads;
  for (auto& issuer : d.issuers)
    threads.emplace_back([&fn, raw = issuer.get()] { fn(*raw); });
  for (auto& t : threads) t.join();
}

bool preload(Deployment& d, const Flags& flags, std::string* error) {
  const fabec::fab::VolumeLayout layout(flags.workload->blocks, kM,
                                        fabec::fab::Layout::kRotating);
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < issuing_threads(); ++t) {
    threads.emplace_back([&, t] {
      for (fabec::StripeId s = t; s < layout.num_stripes() && ok;
           s += issuing_threads()) {
        std::vector<fabec::Block> data;
        for (fabec::BlockIndex i = 0; i < kM; ++i)
          data.push_back(
              make_value(flags.seed, layout.lba_of(s, i), 0, kBlockSize));
        bool written = false;
        for (int attempt = 0; attempt < 3 && !written; ++attempt)
          written = d.client->write_stripe(s, data);
        if (!written) ok = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!ok) *error = "preload: write_stripe kept failing";
  return ok;
}

/// Boots the bricks, preloads every stripe, kills the degraded workload's
/// victim and warms up. Returns the wall seconds taken, or a negative value
/// with `error` set.
double set_up(const Flags& flags, const std::string& dir, Deployment* d,
              std::string* error) {
  const auto start = Clock::now();
  fs::create_directories(dir);
  std::vector<fabec::runtime::BrickConfig> configs(kBricks);
  for (std::uint32_t i = 0; i < kBricks; ++i) {
    configs[i].n = kBricks;
    configs[i].m = kM;
    configs[i].total_bricks = kBricks;
    configs[i].block_size = kBlockSize;
    configs[i].journal_fsync = false;
    configs[i].compact_threshold_bytes = compact_threshold(*flags.workload, i);
  }
  d->pool = std::make_unique<BrickPool>(flags.brickd, dir, std::move(configs));
  if (!d->pool->boot(error)) return -1;

  fabec::fab::VolumeClientConfig config;
  config.client_id = kBricks;
  config.n = kBricks;
  config.m = kM;
  config.total_bricks = kBricks;
  config.block_size = kBlockSize;
  config.num_blocks = flags.workload->blocks;
  config.bricks = d->pool->peers();
  config.coordinator.read_cache = true;
  // The retry policy and phase deadline tools/cluster runs with.
  config.coordinator.op_deadline = fabec::sim::milliseconds(2000);
  config.retry.max_attempts = 8;
  config.retry.initial_backoff = fabec::sim::milliseconds(2);
  config.retry.max_backoff = fabec::sim::milliseconds(50);
  const std::vector<pid_t> before = own_threads();
  d->client = std::make_unique<fabec::fab::VolumeClient>(config, flags.seed);
  for (const pid_t tid : own_threads())
    if (std::find(before.begin(), before.end(), tid) == before.end())
      d->loop_tids.push_back(tid);

  if (!preload(*d, flags, error)) return -1;
  if (flags.workload->kill_one) {
    d->victim = kVictim;
    d->pool->crash(kVictim);
  }
  for (std::uint32_t t = 0; t < issuing_threads(); ++t)
    d->issuers.push_back(std::make_unique<Issuer>(
        t, issuing_threads(), flags.workload->blocks,
        flags.workload->write_fraction, flags.seed, kBlockSize));
  on_every_issuer(*d, [&](Issuer& i) { i.warm_up(*d->client, kWarmupOps); });
  return seconds_between(start, Clock::now());
}

void tear_down(Deployment* d) {
  if (d->client) d->client->close();
  if (d->pool) d->pool->crash_all();
  *d = Deployment{};
}

// --- measurements ------------------------------------------------------------

/// What the whole load did in one slice.
struct SliceStats {
  bool traced = false;
  double seconds = 0;
  std::uint64_t attempted = 0, failed = 0, acked_writes = 0;
  double client_cpu_s = 0, brick_cpu_s = 0;
  std::vector<std::int64_t> read_ns, write_ns;
};

std::vector<SliceStats> slice_stats(const Deployment& d,
                                    const std::vector<Sample>& samples,
                                    bool alternate) {
  std::vector<SliceStats> out(samples.size() - 1);
  for (std::size_t s = 0; s < out.size(); ++s) {
    SliceStats& st = out[s];
    const Sample& a = samples[s];
    const Sample& b = samples[s + 1];
    st.traced = alternate && (s & 1) != 0;
    st.seconds = seconds_between(a.at, b.at);
    st.client_cpu_s = b.client_cpu_s - a.client_cpu_s;
    for (std::size_t i = 0; i < a.bricks.size(); ++i)
      if (a.bricks[i] && b.bricks[i])
        st.brick_cpu_s += b.bricks[i]->cpu_s - a.bricks[i]->cpu_s;
    for (const auto& issuer : d.issuers) {
      const Tally& t = issuer->tallies()[s];
      st.attempted += t.attempted;
      st.failed += t.failed;
      st.acked_writes += t.acked_writes;
      st.read_ns.insert(st.read_ns.end(), t.read_ns.begin(), t.read_ns.end());
      st.write_ns.insert(st.write_ns.end(), t.write_ns.begin(),
                         t.write_ns.end());
    }
  }
  return out;
}

/// The end-to-end figures of the untraced or the traced slices: each is
/// computed per slice and the median over slices reported, so a burst of
/// interference in one slice does not move the result.
struct EndToEnd {
  double throughput = 0, read_p50 = 0, read_p99 = 0, write_p50 = 0,
         write_p99 = 0, client_cpu_us = 0, brick_cpu_us = 0;
  std::uint64_t attempted = 0, reads = 0, writes = 0;
};

EndToEnd end_to_end_of(std::vector<SliceStats>& slices, bool traced) {
  std::vector<double> tput, rp50, rp99, wp50, wp99, ccpu, bcpu;
  EndToEnd e;
  for (SliceStats& s : slices) {
    if (s.traced != traced || s.attempted == 0) continue;
    const double ops = static_cast<double>(s.attempted);
    e.attempted += s.attempted;
    e.reads += s.read_ns.size();
    e.writes += s.write_ns.size();
    tput.push_back(static_cast<double>(s.attempted - s.failed) / s.seconds);
    ccpu.push_back(s.client_cpu_s * 1e6 / ops);
    bcpu.push_back(s.brick_cpu_s * 1e6 / ops);
    if (!s.read_ns.empty()) {
      rp50.push_back(percentile_us(s.read_ns, 0.50));
      rp99.push_back(percentile_us(s.read_ns, 0.99));
    }
    if (!s.write_ns.empty()) {
      wp50.push_back(percentile_us(s.write_ns, 0.50));
      wp99.push_back(percentile_us(s.write_ns, 0.99));
    }
  }
  e.throughput = median(tput);
  e.read_p50 = median(rp50);
  e.read_p99 = median(rp99);
  e.write_p50 = median(wp50);
  e.write_p99 = median(wp99);
  e.client_cpu_us = median(ccpu);
  e.brick_cpu_us = median(bcpu);
  return e;
}

/// Counters of everything the bricks did between two samples.
struct BrickDelta {
  double busy_max = 0;  ///< highest single-brick CPU share of wall time
  double voluntary_ctx = 0;
  double wchar = 0;
  double hwm_mib = 0;
};

BrickDelta brick_delta(const Sample& a, const Sample& b) {
  BrickDelta d;
  const double wall = seconds_between(a.at, b.at);
  for (std::size_t i = 0; i < a.bricks.size(); ++i) {
    if (!a.bricks[i] || !b.bricks[i]) continue;
    const double cpu = b.bricks[i]->cpu_s - a.bricks[i]->cpu_s;
    d.busy_max = std::max(d.busy_max, ratio(cpu, wall));
    d.voluntary_ctx += static_cast<double>(b.bricks[i]->voluntary_ctx -
                                           a.bricks[i]->voluntary_ctx);
    d.wchar += static_cast<double>(b.bricks[i]->wchar - a.bricks[i]->wchar);
    d.hwm_mib += static_cast<double>(b.bricks[i]->hwm_kib) / 1024.0;
  }
  return d;
}

/// Sum of the sizes of a store's journal segments.
std::uintmax_t journal_bytes(const std::string& store) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(store, ec))
    if (entry.path().filename().string().rfind("journal", 0) == 0)
      bytes += entry.file_size(ec);
  return bytes;
}

/// Replays the stopped brick store with the most journal bytes (a copy of
/// it), falling back to the next when one holds nothing to replay.
bool replay_largest(const Deployment& d, const std::string& dir,
                    ReplayCosts* costs, std::string* error) {
  std::vector<std::pair<std::uintmax_t, std::uint32_t>> order;
  for (std::uint32_t i = 0; i < d.pool->size(); ++i)
    order.emplace_back(journal_bytes(d.pool->store(i)), i);
  std::sort(order.rbegin(), order.rend());
  const Geometry geometry{kBricks, kM, kBricks, kBlockSize};
  const std::string copy = dir + "/replay-store";
  const std::string scratch = dir + "/replay-scratch";
  for (const auto& [bytes, id] : order) {
    fs::remove_all(copy);
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    fs::copy(d.pool->store(id), copy, fs::copy_options::recursive);
    *costs = ReplayCosts{};
    const bool ok = replay_store(copy, scratch, id, geometry, costs, error);
    fs::remove_all(copy);
    fs::remove_all(scratch);
    if (ok) return true;
  }
  return false;
}

bool write_spans(const Deployment& d, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "id\tslice\tkind\tlba\tstart_ns\tend_ns\tok\n";
  for (const auto& issuer : d.issuers)
    for (const Span& s : issuer->spans())
      out << s.id << '\t' << s.slice << '\t' << (s.write ? "write" : "read")
          << '\t' << s.lba << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << (s.ok ? 1 : 0) << '\n';
  return static_cast<bool>(out);
}

int fail(const std::string& what) {
  std::fprintf(stderr, "fabbench: %s\n", what.c_str());
  return 1;
}

/// Protocol counters read from the client at one instant.
struct ClientCounters {
  fabec::core::CoordinatorStats coord;
  fabec::runtime::DatagramMuxStats mux;
  fabec::fab::ClientStats client;
};

/// Taken while no op is in flight. The mux counters are read unsynchronized
/// (VolumeClient hands out a reference to the loop's own struct), so a late
/// retransmit or GC reply may move them by a datagram or two.
ClientCounters client_counters(Deployment& d) {
  return {d.client->coordinator_stats(), d.client->mux_stats(),
          d.client->stats()};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s --workload read-mostly|write-heavy|degraded "
                 "--seed N --seconds T --trace 0|1 --brickd PATH --dir PATH "
                 "[--commit ID] [--spans FILE]\n"
                 "(--trace 1 needs --seconds >= %g)\n",
                 argv[0], 2 * kSliceSeconds);
    return 2;
  }
  print_provenance(flags);
  std::string error;

  // Set up several times and keep the last deployment; setup_s is the median.
  settle_disk(flags.dir);
  Deployment d;
  std::vector<double> setup_seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) {
      tear_down(&d);
      fs::remove_all(flags.dir + "/setup" + std::to_string(r - 1));
    }
    const double s =
        set_up(flags, flags.dir + "/setup" + std::to_string(r), &d, &error);
    if (s < 0) return fail(error);
    setup_seconds.push_back(s);
  }
  settle_disk(flags.dir);

  // A traced run reads the bricks' own counters from their clean-shutdown
  // line, so it restarts them cleanly here to count the window alone.
  if (flags.trace) {
    d.pool->stop_all();
    if (!d.pool->restart_stopped(d.victim, &error)) return fail(error);
  }

  const ClientCounters before = client_counters(d);
  const std::vector<Sample> samples = run_load(d, flags.seconds, flags.trace);
  const ClientCounters after = client_counters(d);

  std::vector<std::optional<BrickCounters>> counters;
  if (flags.trace) {
    counters = d.pool->stop_all();
    if (!d.pool->restart_stopped(d.victim, &error)) return fail(error);
  }

  // Correctness gate: crash every brick, bring all of them back (the victim
  // too), re-read every LBA written during the run, fsck every store.
  d.pool->crash_all();
  if (!d.pool->restart_stopped(std::nullopt, &error)) return fail(error);
  std::atomic<std::uint64_t> lost_writes{0};
  on_every_issuer(d, [&](Issuer& i) { lost_writes += i.reread(*d.client); });
  d.client->close();
  d.pool->stop_all();
  std::uint64_t mismatches = 0, written = 0;
  for (const auto& issuer : d.issuers) {
    mismatches += issuer->mismatches();
    written += issuer->written_lbas();
  }
  std::uint32_t damaged = 0;
  for (std::uint32_t i = 0; i < d.pool->size(); ++i)
    if (!fabec::core::PersistentState::fsck(fabec::storage::Env::real(),
                                            d.pool->store(i))
             .ok)
      ++damaged;
  const bool correct = mismatches == 0 && lost_writes == 0 && damaged == 0;
  std::printf("gate: %" PRIu64 " read mismatches, %" PRIu64 " of %" PRIu64
              " written LBAs lost or wrong after restart, %u damaged stores "
              "-> %s\n",
              mismatches, lost_writes.load(), written, damaged,
              correct ? "correct" : "INCORRECT");

  // --- end-to-end metrics ---------------------------------------------------
  std::vector<SliceStats> slices = slice_stats(d, samples, flags.trace);
  std::uint64_t attempted = 0, failed = 0, acked_writes = 0;
  for (const SliceStats& s : slices) {
    attempted += s.attempted;
    failed += s.failed;
    acked_writes += s.acked_writes;
  }
  const double ops = static_cast<double>(attempted);
  std::printf("slice throughput (1/s):");
  for (const SliceStats& s : slices)
    std::printf(" %.0f%s",
                static_cast<double>(s.attempted - s.failed) / s.seconds,
                s.traced ? "t" : "");
  std::printf("\n");
  const BrickDelta bricks = brick_delta(samples.front(), samples.back());
  const EndToEnd e2e = end_to_end_of(slices, false);

  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_seconds), "s", setup_seconds.size()},
      {"throughput_ops_s", e2e.throughput, "1/s", e2e.attempted},
      {"read_p50_us", e2e.read_p50, "us", e2e.reads},
      {"read_p99_us", e2e.read_p99, "us", e2e.reads},
      {"write_p50_us", e2e.write_p50, "us", e2e.writes},
      {"write_p99_us", e2e.write_p99, "us", e2e.writes},
      {"client_cpu_us_per_op", e2e.client_cpu_us, "us", e2e.attempted},
      {"brick_cpu_us_per_op", e2e.brick_cpu_us, "us", e2e.attempted},
      {"brick_write_bytes_per_user_byte",
       ratio(bricks.wchar, static_cast<double>(acked_writes) *
                               static_cast<double>(kBlockSize)),
       "ratio", acked_writes},
      {"brick_rss_mib", bricks.hwm_mib, "MiB",
       d.pool->size() - (d.victim ? 1u : 0u)},
  };
  // failed_op_frac travels as the result's attempted/failed pair; it is 0
  // on a healthy run, so it cannot carry a relative bound.
  std::vector<Metric> shown = end_to_end;
  shown.push_back({"failed_op_frac", ratio(failed, ops), "ratio", attempted});

  if (!flags.trace) {
    print_table(shown);
    print_result(correct, attempted, failed, end_to_end);
    return 0;
  }

  // --- per-layer metrics (traced run) ---------------------------------------
  const EndToEnd traced_e2e = end_to_end_of(slices, true);
  std::vector<std::int64_t> traced_reads, traced_writes;
  for (const SliceStats& s : slices) {
    if (!s.traced) continue;
    traced_reads.insert(traced_reads.end(), s.read_ns.begin(), s.read_ns.end());
    traced_writes.insert(traced_writes.end(), s.write_ns.begin(),
                         s.write_ns.end());
  }
  const double fab_read_us = mean_us(traced_reads);
  const double fab_write_us = mean_us(traced_writes);
  const double reads1 = static_cast<double>(traced_reads.size());
  const double writes1 = static_cast<double>(traced_writes.size());
  const double fab_op_us =
      ratio(fab_read_us * reads1 + fab_write_us * writes1, reads1 + writes1);

  using CS = fabec::core::CoordinatorStats;
  auto dc = [&](std::uint64_t CS::*field) {
    return static_cast<double>(after.coord.*field - before.coord.*field);
  };
  using MS = fabec::runtime::DatagramMuxStats;
  auto dm = [&](std::uint64_t MS::*field) {
    return static_cast<double>(after.mux.*field - before.mux.*field);
  };
  const double block_reads = dc(&CS::block_reads);
  const double block_writes = dc(&CS::block_writes);
  const double probes =
      dc(&CS::cached_read_hits) + dc(&CS::cached_read_fallbacks);
  const double datagrams =
      dm(&MS::datagrams_sent) + dm(&MS::datagrams_received);
  const double messages = dm(&MS::messages_sent) + dm(&MS::messages_received);
  const double window_s = seconds_between(samples.front().at,
                                          samples.back().at);

  BrickCounters total;
  std::uint64_t reporting = 0;
  for (const auto& c : counters) {
    if (!c) continue;
    ++reporting;
    total.requests += c->requests;
    total.journal_appends += c->journal_appends;
    total.duplicate_replies += c->duplicate_replies;
    total.compactions += c->compactions;
  }

  ReplayCosts replay;
  if (!replay_largest(d, flags.dir, &replay, &error))
    return fail("replay: " + error);
  const auto codec = fabec::erasure::make_code_family(
      fabec::erasure::CodeSpec{}, kM, kBricks);
  const CodecCosts codec_costs = time_codec(*codec, kBlockSize, flags.seed);
  constexpr int kPings = 2000;
  const double rtt_us = mux_rtt_us(kPings, kBlockSize);

  // Attribution: calls per op x time per call, per layer. Brick-side rows
  // sum the work of every brick an op touched, so they bound that layer's
  // share of the op's wall time from above; wait is what remains.
  const double requests_per_op = ratio(total.requests, ops);
  const double appends_per_op = ratio(total.journal_appends, ops);
  const double attr_replica = requests_per_op * replay.handle_ns_mean / 1e3;
  const double attr_journal = appends_per_op * replay.append_us;
  const double attr_wire =
      ratio(messages, ops) *
      (replay.encode_ns_per_record + replay.decode_ns_per_record) / 1e3;
  const double attr_codec =
      ratio(dc(&CS::degraded_reads) + dc(&CS::recoveries_started), ops) *
      codec_costs.decode_into_us;
  const double attr_compact =
      ratio(total.compactions, ops) * replay.compact_ms * 1e3;
  const double attr_wait = fab_op_us - attr_replica - attr_journal -
                           attr_wire - attr_codec - attr_compact;

  const auto n_reads = static_cast<std::uint64_t>(reads1);
  const auto n_writes = static_cast<std::uint64_t>(writes1);
  const auto n_block_reads = static_cast<std::uint64_t>(block_reads);
  const auto n_block_writes = static_cast<std::uint64_t>(block_writes);
  const std::uint64_t records = replay.records;
  const std::vector<Metric> layers = {
      {"fab.op_us.read", fab_read_us, "us", n_reads},
      {"fab.op_us.write", fab_write_us, "us", n_writes},
      {"fab.retries_per_op",
       ratio(static_cast<double>(after.client.retries - before.client.retries),
             ops),
       "count", attempted},
      {"fab.timeouts",
       static_cast<double>(after.client.timed_out - before.client.timed_out),
       "count", attempted},
      {"coord.fast_read_frac", ratio(dc(&CS::fast_read_hits), block_reads),
       "ratio", n_block_reads},
      {"coord.cache_hit_frac", ratio(dc(&CS::cached_read_hits), block_reads),
       "ratio", n_block_reads},
      {"coord.cache_fallback_frac",
       ratio(dc(&CS::cached_read_fallbacks), probes), "ratio",
       static_cast<std::uint64_t>(probes)},
      {"coord.cache_evictions_per_op", ratio(dc(&CS::cache_evictions), ops),
       "count", attempted},
      {"coord.fast_write_frac",
       ratio(dc(&CS::fast_block_write_hits), block_writes), "ratio",
       n_block_writes},
      {"coord.recoveries_per_op", ratio(dc(&CS::recoveries_started), ops),
       "count", attempted},
      {"coord.aborts_per_op", ratio(dc(&CS::aborts), ops), "count", attempted},
      {"coord.gc_messages_per_write", ratio(dc(&CS::gc_messages), block_writes),
       "count", n_block_writes},
      {"coord.degraded_reads_per_read",
       ratio(dc(&CS::degraded_reads), block_reads), "ratio", n_block_reads},
      {"coord.degraded_read_fallbacks", dc(&CS::degraded_read_fallbacks),
       "count", n_block_reads},
      {"coord.retransmit_rounds_per_op",
       ratio(dc(&CS::retransmit_rounds), ops), "count", attempted},
      {"coord.sends_suppressed_per_op", ratio(dc(&CS::sends_suppressed), ops),
       "count", attempted},
      {"mux.datagrams_sent_per_op", ratio(dm(&MS::datagrams_sent), ops),
       "count", attempted},
      {"mux.datagrams_received_per_op",
       ratio(dm(&MS::datagrams_received), ops), "count", attempted},
      {"mux.messages_per_datagram", ratio(messages, datagrams), "ratio",
       static_cast<std::uint64_t>(datagrams)},
      {"mux.send_failures_per_op", ratio(dm(&MS::send_failures), ops),
       "count", attempted},
      {"client.loop_busy_frac",
       ratio(samples.back().loop_cpu_s - samples.front().loop_cpu_s,
             window_s),
       "ratio", slices.size()},
      {"mux.rtt_us", rtt_us, "us", kPings},
      {"brick.requests_per_op", requests_per_op, "count", reporting},
      {"brick.journal_appends_per_op", appends_per_op, "count", reporting},
      {"brick.duplicate_replies_per_op", ratio(total.duplicate_replies, ops),
       "count", reporting},
      {"brick.compactions", static_cast<double>(total.compactions), "count",
       reporting},
      {"brick.ctx_switches_per_op", ratio(bricks.voluntary_ctx, ops), "count",
       attempted},
      {"brick.cpu_busy_frac_max", bricks.busy_max, "ratio", reporting},
      {"persist.recover_s", replay.recover_s, "s", records},
      {"replica.handle_ns", replay.handle_ns_mean, "ns", records},
      {"wire.encode_ns_per_kib", replay.encode_ns_per_kib, "ns",
       replay.wire_records},
      {"wire.decode_ns_per_kib", replay.decode_ns_per_kib, "ns",
       replay.wire_records},
      {"journal.append_us", replay.append_us, "us", replay.wire_records},
      {"journal.record_bytes", replay.record_bytes, "B", replay.wire_records},
      {"persist.compact_ms", replay.compact_ms, "ms", 1},
      {"erasure.modify_us", codec_costs.modify_us, "us", codec_costs.calls},
      {"erasure.decode_into_us", codec_costs.decode_into_us, "us",
       codec_costs.calls},
      {"erasure.encode_parity_us", codec_costs.encode_parity_us, "us",
       codec_costs.calls},
      {"attr.replica_us_per_op", attr_replica, "us", attempted},
      {"attr.journal_us_per_op", attr_journal, "us", attempted},
      {"attr.wire_us_per_op", attr_wire, "us", attempted},
      {"attr.codec_us_per_op", attr_codec, "us", attempted},
      {"attr.compact_us_per_op", attr_compact, "us", attempted},
      {"attr.wait_us_per_op", attr_wait, "us", attempted},
      {"trace.overhead_throughput_frac",
       ratio(traced_e2e.throughput - e2e.throughput, e2e.throughput), "ratio",
       attempted},
      {"trace.overhead_read_p50_frac",
       ratio(traced_e2e.read_p50 - e2e.read_p50, e2e.read_p50), "ratio",
       n_reads},
      {"trace.overhead_write_p50_frac",
       ratio(traced_e2e.write_p50 - e2e.write_p50, e2e.write_p50), "ratio",
       n_writes},
  };

  // Kinds are whatever the journal held, named by the replay.
  std::vector<Metric> kinds;
  for (const auto& [name, cost] : replay.by_kind)
    kinds.push_back({"replica.handle_ns." + name, cost.handle_ns_mean, "ns",
                     cost.records});
  if (!flags.spans.empty() && !write_spans(d, flags.spans))
    return fail("cannot write spans to " + flags.spans);

  shown.insert(shown.end(), layers.begin(), layers.end());
  shown.insert(shown.end(), kinds.begin(), kinds.end());
  print_table(shown);
  print_result(correct, attempted, failed, layers);
  return 0;
}
