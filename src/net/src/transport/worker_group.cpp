#include "dut/net/transport/worker_group.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>

#include "dut/net/transport/transport.hpp"

namespace dut::net {

WorkerGroup::WorkerGroup(ShmSession& session,
                         const std::function<void(std::uint32_t)>& fn)
    : session_(&session) {
  const std::uint32_t num_ranks = session.num_ranks();
  pids_.reserve(num_ranks - 1);
  for (std::uint32_t rank = 1; rank < num_ranks; ++rank) {
    const pid_t pid = fork();
    if (pid < 0) {
      // Partial group: tear down what was forked before reporting.
      try {
        finish();
      } catch (...) {
      }
      throw std::runtime_error("WorkerGroup: fork failed");
    }
    if (pid == 0) {
      // Child: run the worker loop and leave without touching the parent's
      // atexit chain or flushing its inherited stdio buffers.
      int code = 0;
      try {
        fn(rank);
      } catch (...) {
        session_->publish_abort(
            static_cast<std::uint64_t>(TransportAbortCode::kOther), rank);
        code = 1;
      }
      std::_Exit(code);
    }
    pids_.push_back(pid);
  }
}

void WorkerGroup::finish() {
  if (finished_) return;
  finished_ = true;
  session_->end_session();
  bool clean = true;
  for (const pid_t pid : pids_) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      clean = false;
    }
  }
  if (!clean) {
    throw std::runtime_error("WorkerGroup: a worker exited uncleanly");
  }
}

WorkerGroup::~WorkerGroup() {
  try {
    finish();
  } catch (...) {
  }
}

std::vector<pid_t> spawn_worker_processes(
    const std::string& exe, const std::string& shm_name,
    std::uint32_t num_ranks, const std::vector<std::string>& args) {
  std::vector<pid_t> pids;
  pids.reserve(num_ranks - 1);
  for (std::uint32_t rank = 1; rank < num_ranks; ++rank) {
    std::vector<std::string> argv_storage;
    argv_storage.push_back(exe);
    argv_storage.push_back("--worker");
    argv_storage.push_back(std::to_string(rank));
    argv_storage.push_back("--shm");
    argv_storage.push_back(shm_name);
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(argv_storage.size() + 1);
    for (std::string& s : argv_storage) argv.push_back(s.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
      throw std::runtime_error("spawn_worker_processes: fork failed");
    }
    if (pid == 0) {
      execv(exe.c_str(), argv.data());
      std::_Exit(127);  // execv only returns on failure
    }
    pids.push_back(pid);
  }
  return pids;
}

bool wait_worker_processes(const std::vector<pid_t>& pids) noexcept {
  bool clean = true;
  for (const pid_t pid : pids) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      clean = false;
    }
  }
  return clean;
}

}  // namespace dut::net
