#pragma once

// A small thread-backed message-passing runtime with MPI-like semantics
// (ranks, tagged blocking send/recv, allreduce, barrier). This is the
// substrate for the Joule-cluster baseline: the distributed BiCGStab runs
// on it functionally, and its instrumentation (bytes, message counts,
// collective counts) drives the calibrated strong-scaling cost model that
// regenerates Figs. 7-8 at published scales.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

namespace wss::cluster {

/// Per-rank communication counters, for the cost model.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t allreduces = 0;
  std::uint64_t barriers = 0;

  CommStats& operator+=(const CommStats& o) {
    messages_sent += o.messages_sent;
    bytes_sent += o.bytes_sent;
    allreduces += o.allreduces;
    barriers += o.barriers;
    return *this;
  }
};

class World;

/// Per-rank communicator handle. Valid only inside World::run.
class Comm {
public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Buffered (non-blocking-complete) send: copies the payload and returns.
  void send(int dst, int tag, std::span<const double> data);

  /// Blocking receive matching (src, tag). Payload size must match exactly.
  void recv(int src, int tag, std::span<double> data);

  /// Global sum; all ranks must call. Returns the same value everywhere.
  double allreduce_sum(double value);

  void barrier();

  [[nodiscard]] const CommStats& stats() const { return stats_; }

private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
  CommStats stats_;
};

/// Owns the rank threads and the mailboxes.
class World {
public:
  explicit World(int nranks);

  /// Run `fn` on every rank concurrently; returns when all finish.
  /// Exceptions thrown by any rank are rethrown (first one wins).
  void run(const std::function<void(Comm&)>& fn);

  [[nodiscard]] int size() const { return nranks_; }

  /// Aggregate stats from the last run.
  [[nodiscard]] const std::vector<CommStats>& rank_stats() const {
    return last_stats_;
  }
  [[nodiscard]] CommStats total_stats() const;

private:
  friend class Comm;

  struct Message {
    int src;
    int tag;
    std::vector<double> data;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  void deliver(int dst, Message msg);
  Message take(int dst, int src, int tag);
  double allreduce(int rank, double value);
  void barrier_wait(int rank);

  int nranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<CommStats> last_stats_;

  // allreduce / barrier shared state
  std::mutex coll_mu_;
  std::condition_variable coll_cv_;
  int coll_arrived_ = 0;
  std::uint64_t coll_generation_ = 0;
  std::vector<double> coll_values_; ///< one slot per rank, this round
  double coll_result_ = 0.0;
};

} // namespace wss::cluster
