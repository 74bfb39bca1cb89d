// A local pool of real brickd processes, and /proc sampling of them and of
// fabbench's own threads.
//
// The pool speaks to brickd only through its config file, its port file,
// its stderr log and signals: SIGKILL is the crash, SIGTERM the clean
// shutdown whose farewell line carries the brick's request/journal
// counters.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "runtime/brick_config.h"

namespace perfbench {

/// Cumulative resource counters of one process (or thread).
struct ProcSample {
  double cpu_s = 0;                    ///< utime + stime
  std::uint64_t voluntary_ctx = 0;     ///< voluntary context switches
  std::uint64_t wchar = 0;             ///< bytes passed to write(2) & co.
  std::uint64_t hwm_kib = 0;           ///< peak resident set (VmHWM)
};

/// Reads /proc/<pid>/{stat,status,io}; nullopt if the process is gone.
std::optional<ProcSample> sample_process(pid_t pid);
/// utime + stime of one of this process's threads, from /proc/self/task.
double thread_cpu_s(pid_t tid);
/// Thread ids of this process.
std::vector<pid_t> own_threads();

/// Counters from a brick's clean-shutdown line (cumulative since its start).
struct BrickCounters {
  std::uint64_t requests = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t duplicate_replies = 0;
  std::uint64_t compactions = 0;
};

class BrickPool {
 public:
  /// One brick per entry of `configs`, which supply everything but identity,
  /// listen port, port file and store path; stores live under
  /// `dir`/brick<i>.
  BrickPool(std::string brickd, std::string dir,
            std::vector<fabec::runtime::BrickConfig> configs);
  /// SIGKILLs and reaps every brick still running.
  ~BrickPool();

  BrickPool(const BrickPool&) = delete;
  BrickPool& operator=(const BrickPool&) = delete;

  /// Starts every brick on an ephemeral port, waits until each publishes
  /// its port, then pins the port in its config so restarts re-bind it.
  bool boot(std::string* error);
  /// Starts every brick that is not running (except `keep_down`) from its
  /// store and waits until each has recovered and is listening again.
  bool restart_stopped(std::optional<std::uint32_t> keep_down,
                       std::string* error);
  /// SIGKILLs one brick and reaps it.
  void crash(std::uint32_t id);
  /// SIGKILLs and reaps every running brick.
  void crash_all();
  /// SIGTERMs every running brick, reaps it and parses its farewell line;
  /// bricks that were not running (or printed no line) map to nullopt.
  std::vector<std::optional<BrickCounters>> stop_all();

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(bricks_.size());
  }
  bool running(std::uint32_t id) const { return bricks_[id].pid > 0; }
  pid_t pid(std::uint32_t id) const { return bricks_[id].pid; }
  std::string store(std::uint32_t id) const;
  std::map<fabec::ProcessId, fabec::runtime::Endpoint> peers() const;

 private:
  struct Brick {
    pid_t pid = -1;
    std::uint16_t port = 0;
    std::string config_path;
    std::string log_path;
    std::string port_file;
  };

  std::string config_text(std::uint32_t id, std::uint16_t port) const;
  pid_t spawn(const Brick& brick) const;
  bool wait_ready(std::string* error);

  std::string brickd_;
  std::string dir_;
  std::vector<fabec::runtime::BrickConfig> configs_;
  std::vector<Brick> bricks_;
};

}  // namespace perfbench
