// The live workload: a writer node (WriterNode + ServingScheduler +
// NetServer) on loopback TCP, driven by one writer connection sending
// insert+erase batches and a few reader connections sending queries, all
// closed-loop (each connection sends its next request when the previous one
// is answered). The benchmark keeps its own history of the batches it sent,
// so any generation's point set can be rebuilt afterwards and every Nth
// TCP response compared with a local one-shot Dbscan of that set.
#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "pdbscan/pdbscan.h"

namespace perfbench {

struct LiveConfig {
  double eps = 0;
  std::vector<size_t> round_minpts;  // Each round draws one of these.
  size_t readers = 3;
  size_t batch = 0;      // Inserts and erases per update batch.
  bool traced = false;   // Reader queries carry trace ids.
  uint64_t seed = 0;
};

// Queries per reader per round. With three readers, 3 of a round's 12
// queries miss the cache, so p90 falls inside the computed queries.
constexpr size_t kQueriesPerRound = 4;
// Queries are numbered round by round, reader by reader; every
// this-many-th is kept for checking. 25 is coprime with the 12 queries of
// a round, so the kept ones cycle through every reader and query position:
// the query computed alone, the two coalesced ones and the cache hits.
constexpr size_t kCheckEvery = 25;
// Peak RSS is read right after this round, so it covers the same
// operations on every run, however many rounds the run completes.
constexpr size_t kRssRound = 8;

// One update batch as sent; `generation` is the one it produced.
template <int D>
struct SentBatch {
  uint64_t generation = 0;
  uint64_t first_id = 0;
  std::vector<pdbscan::Point<D>> inserts;
  std::vector<uint64_t> erases;
};

struct KeptResponse {
  size_t min_pts = 0;
  pdbscan::net::QueryResponse resp;
};

template <int D>
struct LiveOutcome {
  std::vector<double> update_ms;
  std::vector<double> rtt_ms;
  double window_s = 0;  // Time spent in rounds.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<SentBatch<D>> batches;
  std::vector<KeptResponse> kept;
  // (generation, num_points) of every answered query.
  std::vector<std::pair<uint64_t, uint64_t>> answered;
  // Traced queries only.
  std::vector<double> serve_request_ms, wire_ms, queue_wait_ms, sweep_ms;
  std::vector<double> response_bytes;
  double peak_rss_mb = 0;  // VmHWM once kRssRound rounds are done.
};

// Applies one acknowledged batch to a mirror of the writer's point set,
// held in ascending id order: drops the erased ids, then appends the
// inserts under the ids the writer gave them (first_id, first_id + 1, ...).
template <int D>
void ApplyBatch(const SentBatch<D>& b, std::vector<uint64_t>& ids,
                std::vector<pdbscan::Point<D>>& pts) {
  std::vector<uint64_t> gone = b.erases;
  std::sort(gone.begin(), gone.end());
  size_t w = 0, next = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    while (next < gone.size() && gone[next] < ids[i]) ++next;
    if (next < gone.size() && gone[next] == ids[i]) continue;
    ids[w] = ids[i];
    pts[w] = pts[i];
    ++w;
  }
  ids.resize(w);
  pts.resize(w);
  for (size_t k = 0; k < b.inserts.size(); ++k) {
    ids.push_back(b.first_id + k);
    pts.push_back(b.inserts[k]);
  }
}

// Per-batch accounting read on the server's update path.
struct UpdateAccounting {
  std::vector<double> recount_ms, cells_rebuilt, cells_retained;
  std::vector<double> journal_bytes;  // Journal bytes in the directory.
};

inline double JournalBytes(const std::string& dir) {
  double total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".pdbjnl") {
      total += static_cast<double>(e.file_size(ec));
    }
  }
  return total;
}

template <int D>
class LiveService {
 public:
  // Starts an empty writer in `dir`, loads `points` as its first batch
  // (ids 0..n-1, generation 2) and opens the TCP front-end.
  LiveService(const std::string& dir, double eps, size_t counts_cap,
              std::span<const pdbscan::Point<D>> points)
      : dir_(dir) {
    std::filesystem::remove_all(dir_);
    writer_ = std::make_unique<pdbscan::WriterNode<D>>(
        dir_, eps, counts_cap, pdbscan::Options(), pdbscan::WriterOptions(),
        &stats_);
    writer_->ApplyUpdates(points, {});
    load_generation_ = writer_->generation();
    scheduler_ =
        std::make_unique<pdbscan::ServingScheduler<D>>(writer_->pool());
    server_ = std::make_unique<pdbscan::NetServer<D>>(
        *scheduler_, writer_->pool(), eps, counts_cap,
        pdbscan::NetServerOptions(),
        [this](std::span<const pdbscan::Point<D>> ins,
               std::span<const uint64_t> del) { return OnUpdate(ins, del); });
    server_->Start();
  }

  ~LiveService() {
    scheduler_->Shutdown();
    server_->Stop();
    server_.reset();
    scheduler_.reset();
    writer_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  uint16_t port() const { return server_->port(); }
  uint64_t load_generation() const { return load_generation_; }
  const pdbscan::ServingScheduler<D>& scheduler() const { return *scheduler_; }
  void set_account_journal(bool on) { account_journal_ = on; }

  UpdateAccounting TakeAccounting() {
    std::lock_guard<std::mutex> lock(mu_);
    UpdateAccounting out = std::move(accounting_);
    accounting_ = UpdateAccounting();
    return out;
  }

 private:
  pdbscan::net::UpdateResponse OnUpdate(
      std::span<const pdbscan::Point<D>> inserts,
      std::span<const uint64_t> erases) {
    pdbscan::net::UpdateResponse resp;
    resp.first_id = writer_->ApplyUpdates(inserts, erases);
    resp.generation = writer_->generation();
    const auto& u = writer_->index().last_update();
    std::lock_guard<std::mutex> lock(mu_);
    accounting_.recount_ms.push_back(u.recount_seconds * 1e3);
    accounting_.cells_rebuilt.push_back(static_cast<double>(u.cells_rebuilt));
    accounting_.cells_retained.push_back(
        static_cast<double>(u.cells_retained));
    if (account_journal_) accounting_.journal_bytes.push_back(JournalBytes(dir_));
    return resp;
  }

  std::string dir_;
  pdbscan::dbscan::PipelineStats stats_;
  std::unique_ptr<pdbscan::WriterNode<D>> writer_;
  std::unique_ptr<pdbscan::ServingScheduler<D>> scheduler_;
  std::unique_ptr<pdbscan::NetServer<D>> server_;
  uint64_t load_generation_ = 0;
  std::atomic<bool> account_journal_{false};
  std::mutex mu_;
  UpdateAccounting accounting_;
};

// Self-time of the first span named `name` in a traced response, or -1.
inline double SpanMs(const pdbscan::net::QueryResponse& r, const char* name) {
  for (const auto& s : r.spans) {
    if (s.name == name) return static_cast<double>(s.duration_nanos) / 1e6;
  }
  return -1;
}

// Drives the closed loop against `service` in rounds. Each round the
// writer sends one update batch and waits for its acknowledgement; then
// every reader sends kQueriesPerRound queries at the round's min_pts, a
// seeded draw from the list. Reader 0 goes first; the others send their first
// query once reader 0's has been admitted, so they arrive while it is being
// computed and are coalesced into the next execution. Each round thus has
// the same make-up: three cache misses (one query computed alone, two
// computed together after it) and hits for the rest, whatever the speed of
// the machine. The loop keeps the writer's view of the dataset (ids
// ascending), the round count and the outcome across calls, so rounds can
// be interleaved with other work.
template <int D>
class LiveLoop {
 public:
  LiveLoop(LiveService<D>& service, LiveConfig cfg,
             const std::vector<pdbscan::Point<D>>& loaded)
      : service_(service),
        cfg_(std::move(cfg)),
        rng_(SubSeed(cfg_.seed, 99)),
        live_pts_(loaded),
        live_ids_(loaded.size()) {
    for (size_t i = 0; i < live_ids_.size(); ++i) live_ids_[i] = i;
  }

  LiveLoop(const LiveLoop&) = delete;
  LiveLoop& operator=(const LiveLoop&) = delete;

  const LiveOutcome<D>& outcome() const { return out_; }
  LiveOutcome<D>& outcome() { return out_; }
  uint64_t rounds_done() const { return rounds_done_; }

  // Runs `rounds` whole rounds on fresh connections.
  void RunRounds(size_t rounds) {
    std::mutex mu;  // Guards out_ and the round state below.
    std::condition_variable cv;
    uint64_t round = 0;       // Rounds published so far.
    uint64_t round_index = 0; // The current round's number over all calls.
    size_t round_minpts = 0;  // The current round's min_pts.
    size_t misses_base = 0;   // Scheduler cache misses when it was published.
    size_t readers_done = 0;  // Readers finished with the current round.
    bool stop = false;
    const double start = NowSeconds();

    auto reader = [&](size_t r) {
      LiveOutcome<D> mine;
      uint64_t seen = 0;
      std::optional<pdbscan::NetClient> client;
      try {
        client.emplace(service_.port());
      } catch (const std::exception&) {
        ++mine.failed;
      }
      for (;;) {
        size_t mp = 0;
        size_t base = 0;
        uint64_t first_query = 0;  // Number of this reader's first query.
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&]() { return stop || round > seen; });
          if (stop) break;
          seen = round;
          mp = round_minpts;
          base = misses_base;
          first_query = (round_index * cfg_.readers + r) * kQueriesPerRound;
        }
        if (r > 0) {
          const double give_up = NowSeconds() + 1.0;
          while (service_.scheduler().serving_stats().cache_misses.load() <=
                     base &&
                 NowSeconds() < give_up) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (size_t q = 0; q < kQueriesPerRound && client; ++q) {
          Query(*client, first_query + q, mp, mine);
        }
        std::lock_guard<std::mutex> lock(mu);
        ++readers_done;
        cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(mu);
      Merge(std::move(mine));
    };

    std::vector<std::thread> readers;
    for (size_t r = 0; r < cfg_.readers; ++r) readers.emplace_back(reader, r);

    // The writer runs on the calling thread.
    LiveOutcome<D> mine;
    std::optional<pdbscan::NetClient> client;
    try {
      client.emplace(service_.port());
    } catch (const std::exception&) {
      ++mine.failed;
    }
    for (size_t k = 0; k < rounds && client; ++k) {
      if (!Update(*client, mine)) client.reset();
      std::unique_lock<std::mutex> lock(mu);
      round_minpts = cfg_.round_minpts[rng_.Below(cfg_.round_minpts.size())];
      misses_base = service_.scheduler().serving_stats().cache_misses.load();
      readers_done = 0;
      round_index = rounds_done_;
      ++round;
      cv.notify_all();
      cv.wait(lock, [&]() { return readers_done == cfg_.readers; });
      if (++rounds_done_ == kRssRound) mine.peak_rss_mb = PeakRssMb();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
      cv.notify_all();
    }
    for (std::thread& t : readers) t.join();
    mine.window_s = NowSeconds() - start;
    Merge(std::move(mine));
  }

 private:
  void Query(pdbscan::NetClient& client, uint64_t number, size_t mp,
             LiveOutcome<D>& mine) {
    const uint64_t trace = cfg_.traced ? pdbscan::telemetry::NewTraceId() : 0;
    ++mine.attempted;
    const double t0 = NowSeconds();
    pdbscan::net::QueryResponse resp;
    try {
      resp = client.Query(mp, trace);
    } catch (const std::exception&) {
      ++mine.failed;  // Refused, timed out, or the connection was lost.
      return;
    }
    const double rtt = (NowSeconds() - t0) * 1e3;
    mine.rtt_ms.push_back(rtt);
    mine.answered.emplace_back(resp.generation, resp.num_points);
    if (cfg_.traced) {
      const double s = SpanMs(resp, "serve_request");
      if (s >= 0) {
        mine.serve_request_ms.push_back(s);
        mine.wire_ms.push_back(rtt - s);
      }
      const double w = SpanMs(resp, "queue_wait");
      if (w >= 0) mine.queue_wait_ms.push_back(w);
      const double sw = SpanMs(resp, "coalesced_sweep");
      if (sw >= 0) mine.sweep_ms.push_back(sw);
      resp.spans.clear();
      mine.response_bytes.push_back(static_cast<double>(
          pdbscan::net::EncodeQueryResponse(resp).size()));
    }
    if (number % kCheckEvery == 0) {
      mine.kept.push_back(KeptResponse{mp, std::move(resp)});
    }
  }

  // Erases `batch` distinct live ids and inserts as many points, each a
  // small jitter of a live point, so the data keeps its shape. Returns
  // false when the connection is lost.
  bool Update(pdbscan::NetClient& client, LiveOutcome<D>& mine) {
    pdbscan::net::UpdateRequest<D> req;
    std::unordered_set<size_t> pos;
    while (pos.size() < cfg_.batch) pos.insert(rng_.Below(live_ids_.size()));
    std::vector<size_t> sorted(pos.begin(), pos.end());
    std::sort(sorted.begin(), sorted.end());
    for (const size_t p : sorted) req.erases.push_back(live_ids_[p]);
    for (size_t k = 0; k < cfg_.batch; ++k) {
      pdbscan::Point<D> p = live_pts_[rng_.Below(live_pts_.size())];
      for (int d = 0; d < D; ++d) p[d] += (rng_.Unit() - 0.5) * cfg_.eps;
      req.inserts.push_back(p);
    }
    ++mine.attempted;
    const double t0 = NowSeconds();
    pdbscan::net::UpdateResponse resp;
    try {
      resp = client.Update<D>(req);
    } catch (const pdbscan::RemoteError&) {
      ++mine.failed;
      return true;
    } catch (const std::exception&) {
      ++mine.failed;
      return false;
    }
    mine.update_ms.push_back((NowSeconds() - t0) * 1e3);
    mine.batches.push_back(SentBatch<D>{resp.generation, resp.first_id,
                                        std::move(req.inserts),
                                        std::move(req.erases)});
    ApplyBatch(mine.batches.back(), live_ids_, live_pts_);
    return true;
  }

  void Merge(LiveOutcome<D>&& m) {
    auto append = [](auto& dst, auto& src) {
      for (auto& x : src) dst.push_back(std::move(x));
    };
    append(out_.update_ms, m.update_ms);
    append(out_.rtt_ms, m.rtt_ms);
    append(out_.batches, m.batches);
    append(out_.kept, m.kept);
    append(out_.answered, m.answered);
    append(out_.serve_request_ms, m.serve_request_ms);
    append(out_.wire_ms, m.wire_ms);
    append(out_.queue_wait_ms, m.queue_wait_ms);
    append(out_.sweep_ms, m.sweep_ms);
    append(out_.response_bytes, m.response_bytes);
    out_.window_s += m.window_s;
    out_.peak_rss_mb = std::max(out_.peak_rss_mb, m.peak_rss_mb);
    out_.attempted += m.attempted;
    out_.failed += m.failed;
  }

  LiveService<D>& service_;
  const LiveConfig cfg_;
  Rng rng_;
  std::vector<pdbscan::Point<D>> live_pts_;
  std::vector<uint64_t> live_ids_;
  uint64_t rounds_done_ = 0;
  LiveOutcome<D> out_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
