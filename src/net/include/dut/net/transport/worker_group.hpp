#pragma once

// WorkerGroup: process management for ShmSession rank groups — the one way
// rank processes are started.
//
// The coordinator constructs the group over an anonymous session and a
// callable; the group forks one child per worker rank, each running
// `fn(rank)` against the inherited mapping and then exiting. The parent
// stays rank 0. `finish()` (or the destructor) shuts the session down and
// reaps every child. A child inherits only the forking thread, so `fn`
// must not rely on any other thread of the parent (a stats::TrialRunner
// pool, say, or a lock one of them held at the fork).

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "dut/net/transport/shm_session.hpp"

namespace dut::net {

class WorkerGroup {
 public:
  /// Forks ranks 1..num_ranks-1 of `session`; each child runs `fn(rank)`
  /// and exits (exit code 1 if `fn` throws, after publishing an abort).
  WorkerGroup(ShmSession& session, const std::function<void(std::uint32_t)>& fn);
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;
  ~WorkerGroup();

  /// Ends the session and reaps all workers; throws if any exited uncleanly.
  /// Idempotent (the destructor calls it too, swallowing the throw).
  void finish();

 private:
  ShmSession* session_;
  std::vector<pid_t> pids_;
  bool finished_ = false;
};

}  // namespace dut::net
