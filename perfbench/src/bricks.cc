#include "bricks.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// utime + stime from a /proc .../stat file, in seconds.
std::optional<double> stat_cpu_s(const std::string& path) {
  const std::string text = read_text(path);
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const auto paren = text.rfind(')');
  if (paren == std::string::npos) return std::nullopt;
  std::istringstream fields(text.substr(paren + 1));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // After ')': field 3 (state) is index 0, so utime/stime (14/15) are 11/12.
  for (int i = 0; i <= 12 && fields >> field; ++i) {
    if (i == 11) utime = std::stoull(field);
    if (i == 12) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// The number after `key` in a "key: value" /proc file, or 0.
std::uint64_t keyed_value(const std::string& text, const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::optional<std::uint16_t> read_port(const std::string& path) {
  std::ifstream in(path);
  unsigned port = 0;
  if (!(in >> port) || port == 0 || port > 65535) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

void signal_and_reap(pid_t pid, int sig) {
  ::kill(pid, sig);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

std::optional<ProcSample> sample_process(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  const auto cpu = stat_cpu_s(base + "/stat");
  if (!cpu) return std::nullopt;
  ProcSample s;
  s.cpu_s = *cpu;
  const std::string status = read_text(base + "/status");
  s.voluntary_ctx = keyed_value(status, "\nvoluntary_ctxt_switches:");
  s.hwm_kib = keyed_value(status, "\nVmHWM:");
  s.wchar = keyed_value(read_text(base + "/io"), "wchar:");
  return s;
}

double thread_cpu_s(pid_t tid) {
  return stat_cpu_s("/proc/self/task/" + std::to_string(tid) + "/stat")
      .value_or(0.0);
}

std::vector<pid_t> own_threads() {
  std::vector<pid_t> tids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename())));
  return tids;
}

BrickPool::BrickPool(std::string brickd, std::string dir,
                     std::vector<fabec::runtime::BrickConfig> configs)
    : brickd_(std::move(brickd)),
      dir_(std::move(dir)),
      configs_(std::move(configs)),
      bricks_(configs_.size()) {
  for (std::uint32_t i = 0; i < size(); ++i) {
    const std::string stem = dir_ + "/brick" + std::to_string(i);
    bricks_[i].config_path = stem + ".conf";
    bricks_[i].log_path = stem + ".log";
    bricks_[i].port_file = stem + ".port";
  }
}

BrickPool::~BrickPool() { crash_all(); }

std::string BrickPool::store(std::uint32_t id) const {
  return dir_ + "/brick" + std::to_string(id);
}

std::string BrickPool::config_text(std::uint32_t id, std::uint16_t port) const {
  fabec::runtime::BrickConfig config = configs_[id];
  config.brick_id = id;
  config.listen = {"127.0.0.1", port};
  config.port_file = bricks_[id].port_file;
  config.store_path = store(id);
  return config.to_text();
}

pid_t BrickPool::spawn(const Brick& brick) const {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: only async-signal-safe calls until exec. A brick must not
  // outlive fabbench, whatever way fabbench ends.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  const int log =
      ::open(brick.log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log >= 0) {
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::close(log);
  }
  ::execl(brickd_.c_str(), brickd_.c_str(), brick.config_path.c_str(),
          static_cast<char*>(nullptr));
  ::_exit(127);
}

bool BrickPool::wait_ready(std::string* error) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (std::uint32_t i = 0; i < size(); ++i) {
    Brick& brick = bricks_[i];
    while (brick.pid > 0) {
      if (const auto port = read_port(brick.port_file)) {
        brick.port = *port;
        break;
      }
      int status = 0;
      if (::waitpid(brick.pid, &status, WNOHANG) == brick.pid) {
        brick.pid = -1;
        *error = "brick " + std::to_string(i) + " exited during start (see " +
                 brick.log_path + ")";
        return false;
      }
      if (Clock::now() > deadline) {
        *error = "brick " + std::to_string(i) + " never published its port";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

bool BrickPool::boot(std::string* error) {
  for (std::uint32_t i = 0; i < size(); ++i) {
    if (!write_file(bricks_[i].config_path, config_text(i, 0))) {
      *error = "cannot write " + bricks_[i].config_path;
      return false;
    }
    std::remove(bricks_[i].port_file.c_str());
    bricks_[i].pid = spawn(bricks_[i]);
  }
  if (!wait_ready(error)) return false;
  for (std::uint32_t i = 0; i < size(); ++i) {
    if (!write_file(bricks_[i].config_path, config_text(i, bricks_[i].port))) {
      *error = "cannot rewrite " + bricks_[i].config_path;
      return false;
    }
  }
  return true;
}

bool BrickPool::restart_stopped(std::optional<std::uint32_t> keep_down,
                                std::string* error) {
  for (std::uint32_t i = 0; i < size(); ++i) {
    Brick& brick = bricks_[i];
    if (brick.pid > 0 || keep_down == i) continue;
    std::remove(brick.port_file.c_str());
    brick.pid = spawn(brick);
  }
  return wait_ready(error);
}

void BrickPool::crash(std::uint32_t id) {
  if (bricks_[id].pid <= 0) return;
  signal_and_reap(bricks_[id].pid, SIGKILL);
  bricks_[id].pid = -1;
}

void BrickPool::crash_all() {
  for (std::uint32_t i = 0; i < size(); ++i) crash(i);
}

std::vector<std::optional<BrickCounters>> BrickPool::stop_all() {
  std::vector<std::optional<BrickCounters>> out(size());
  for (Brick& brick : bricks_)
    if (brick.pid > 0) ::kill(brick.pid, SIGTERM);
  for (std::uint32_t i = 0; i < size(); ++i) {
    Brick& brick = bricks_[i];
    if (brick.pid <= 0) continue;
    // A clean shutdown is prompt; one that is not becomes a crash.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    while (::waitpid(brick.pid, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        signal_and_reap(brick.pid, SIGKILL);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    brick.pid = -1;
    const std::string log = read_text(brick.log_path);
    const auto at = log.rfind("shut down cleanly (");
    if (at == std::string::npos) continue;
    unsigned long long req = 0, app = 0, dup = 0, comp = 0;
    if (std::sscanf(log.c_str() + at,
                    "shut down cleanly (%llu requests, %llu journal appends, "
                    "%llu duplicate replies, %llu compactions",
                    &req, &app, &dup, &comp) == 4)
      out[i] = BrickCounters{req, app, dup, comp};
  }
  return out;
}

std::map<fabec::ProcessId, fabec::runtime::Endpoint> BrickPool::peers() const {
  std::map<fabec::ProcessId, fabec::runtime::Endpoint> map;
  for (std::uint32_t i = 0; i < size(); ++i)
    map[i] = {"127.0.0.1", bricks_[i].port};
  return map;
}

}  // namespace perfbench
