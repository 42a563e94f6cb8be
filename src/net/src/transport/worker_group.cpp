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

}  // namespace dut::net
