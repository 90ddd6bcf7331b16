#include "cluster/comm.hpp"

#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

namespace wss::cluster {

int Comm::size() const { return world_->size(); }

void Comm::send(int dst, int tag, std::span<const double> data) {
  World::Message msg{rank_, tag, std::vector<double>(data.begin(), data.end())};
  world_->deliver(dst, std::move(msg));
  ++stats_.messages_sent;
  stats_.bytes_sent += data.size_bytes();
}

void Comm::recv(int src, int tag, std::span<double> data) {
  World::Message msg = world_->take(rank_, src, tag);
  if (msg.data.size() != data.size()) {
    throw std::runtime_error("recv size mismatch");
  }
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = msg.data[i];
}

double Comm::allreduce_sum(double value) {
  ++stats_.allreduces;
  return world_->allreduce(rank_, value);
}

void Comm::barrier() {
  ++stats_.barriers;
  world_->barrier_wait(rank_);
}

World::World(int nranks) : nranks_(nranks) {
  if (nranks < 1) throw std::invalid_argument("need at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void World::run(const std::function<void(Comm&)>& fn) {
  last_stats_.assign(static_cast<std::size_t>(nranks_), CommStats{});
  // Fresh collective state per run.
  coll_arrived_ = 0;
  coll_generation_ = 0;
  coll_values_.assign(static_cast<std::size_t>(nranks_), 0.0);

  std::vector<std::thread> threads;
  std::exception_ptr error;
  std::mutex error_mu;
  threads.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
      last_stats_[static_cast<std::size_t>(r)] = comm.stats();
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

CommStats World::total_stats() const {
  CommStats total;
  for (const auto& s : last_stats_) total += s;
  return total;
}

void World::deliver(int dst, Message msg) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  {
    const std::lock_guard<std::mutex> lock(box.mu);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

World::Message World::take(int dst, int src, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        Message msg = std::move(*it);
        box.messages.erase(it);
        return msg;
      }
    }
    box.cv.wait(lock);
  }
}

double World::allreduce(int rank, double value) {
  std::unique_lock<std::mutex> lock(coll_mu_);
  const std::uint64_t my_generation = coll_generation_;
  coll_values_[static_cast<std::size_t>(rank)] = value;
  ++coll_arrived_;
  if (coll_arrived_ == nranks_) {
    // Sum in rank order, not arrival order, so the rounding of the result
    // is the same on every run.
    double sum = 0.0;
    for (const double v : coll_values_) sum += v;
    coll_result_ = sum;
    coll_arrived_ = 0;
    ++coll_generation_;
    coll_cv_.notify_all();
    return coll_result_;
  }
  coll_cv_.wait(lock, [&] { return coll_generation_ != my_generation; });
  return coll_result_;
}

void World::barrier_wait(int rank) { (void)allreduce(rank, 0.0); }

} // namespace wss::cluster
