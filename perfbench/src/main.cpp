// perfbench_harness: the benchmark's load generator. One process generates
// the workload's points from --seed, drives the library through its public
// API (one-shot Dbscan, CellIndex + EnginePool, and a WriterNode served
// over loopback TCP), checks every output it can, and prints one JSON
// result line. See perfbench/README.md for the workloads and metrics.
//
//   perfbench_harness --workload varden-2d --seed 1 --seconds 50 --trace 0
//
// --trace 0 prints the end-to-end metrics (tracing off throughout);
// --trace 1 prints the per-layer metrics, from spans, PipelineStats
// counters and public-API microtimings. --workers 1,2,4 sets the worker
// counts of the per-layer stage metrics (default 1,4).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "common.h"
#include "data/seed_spreader.h"
#include "kernels/kernel_api.h"
#include "live.h"
#include "pdbscan/pdbscan.h"

namespace perfbench {
namespace {

using pdbscan::Clustering;
namespace telemetry = pdbscan::telemetry;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::vector<int> workers = {1, 4};
};

// A workload: the input and the parameters every part of a run uses.
struct Spec {
  int dim = 2;
  std::string generator;  // varden | simden
  size_t n = 0;
  double eps = 0;
  size_t min_pts = 0;                // One-shot Dbscan and checks.
  size_t counts_cap = 0;             // CellIndex / writer counts cap.
  std::vector<size_t> pool_minpts;   // Each pool round queries these.
  std::vector<size_t> live_minpts;   // Live rounds draw one of these.
  size_t live_n = 0;                 // Points loaded into the writer.
  size_t batch = 0;                  // Live update batch (inserts = erases).
  size_t live_rounds = 0;            // Live rounds per round of the others.
  size_t small_min_pts = 0;          // Full-check instance (kSmallN points).
};

constexpr size_t kSmallN = 3000;

std::optional<Spec> SpecFor(const std::string& name) {
  Spec s;
  s.n = 1000000;
  s.batch = 1000;
  if (name == "varden-2d") {
    s.dim = 2;
    s.generator = "varden";
    s.eps = 300;
    s.min_pts = 100;
    s.counts_cap = 100;
    s.pool_minpts = {50, 100};
    s.live_minpts = {25, 50, 75, 100};
    s.live_n = 250000;
    s.live_rounds = 2;
    s.small_min_pts = 20;
    return s;
  }
  if (name == "live-3d") {
    s.dim = 3;
    s.generator = "simden";
    s.eps = 200;
    s.min_pts = 100;
    s.counts_cap = 100;
    s.pool_minpts = {50, 100};
    s.live_minpts = {25, 50, 75, 100};
    s.live_n = 1000000;
    s.live_rounds = 3;
    s.small_min_pts = 200;
    return s;
  }
  return std::nullopt;
}

// SS-varden random walks. data::SsVarden uses 10; then the density classes
// drawn for a handful of clusters decide the cost, and seeds 1-5 give
// between 3.4k and 28.8k cells at eps 300 on 1M points. With 1,000 walks
// the cell count stays within a few percent from seed to seed, on the 1M
// input (85k-91k cells) as on the 250k live set (45k-47k; 250 walks gave
// 25k-30k).
constexpr double kWalks = 1000;

template <int D>
std::vector<pdbscan::Point<D>> Generate(const Spec& s, size_t n, uint64_t seed,
                                        double walks = kWalks) {
  if (s.generator == "varden") {
    pdbscan::data::SeedSpreaderParams p;
    p.n = n;
    p.seed = seed;
    p.variable_density = true;
    p.restart_expected = walks;
    return pdbscan::data::SeedSpreader<D>(p);
  }
  return pdbscan::data::SsSimden<D>(n, seed);
}

// Sets the scheduler's worker count for the scope; a single worker runs
// pinned to one CPU. Pinning happens after the pool shrinks to the calling
// thread, and is undone before any wider pool is created.
class Workers {
 public:
  explicit Workers(int w) {
    if (pdbscan::parallel::num_workers() != w) {
      pdbscan::parallel::set_num_workers(w);
    }
    if (w == 1) pin_.emplace(true);
  }

 private:
  std::optional<ScopedPin> pin_;
};

// FNV-1a over the full labelling: primary clusters, core flags and every
// membership list.
uint64_t LabelHash(const Clustering& c) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  mix(c.cluster.data(), c.cluster.size() * sizeof(int64_t));
  mix(c.is_core.data(), c.is_core.size());
  mix(c.membership_offsets.data(), c.membership_offsets.size() * sizeof(size_t));
  mix(c.membership_ids.data(), c.membership_ids.size() * sizeof(int64_t));
  return h;
}

// Self-time per span name over one collected trace, plus the untraced gap
// between the end of `mark_core` and the start of `cluster_core`.
struct TraceBreakdown {
  std::map<std::string, double> self_ms;
  double total_self_ms = 0;
  double core_index_gap_ms = -1;

  double Self(const std::string& name) const {
    const auto it = self_ms.find(name);
    return it != self_ms.end() ? it->second : 0;
  }
};

TraceBreakdown Breakdown(uint64_t trace_id) {
  const std::vector<telemetry::SpanRecord> spans =
      telemetry::GlobalTraceRing().CollectTrace(trace_id);
  const std::vector<telemetry::SpanNode> nodes =
      telemetry::BuildSpanTree(spans);
  TraceBreakdown out;
  uint64_t mark_end = 0, core_start = 0;
  for (const telemetry::SpanNode& node : nodes) {
    const std::string name = node.rec.name != nullptr ? node.rec.name : "?";
    out.self_ms[name] += static_cast<double>(node.self_nanos) / 1e6;
    if (name == "mark_core") mark_end = node.rec.end_nanos;
    if (name == "cluster_core") core_start = node.rec.start_nanos;
  }
  out.total_self_ms = static_cast<double>(telemetry::TotalSelfNanos(nodes)) / 1e6;
  if (mark_end != 0 && core_start >= mark_end) {
    out.core_index_gap_ms = static_cast<double>(core_start - mark_end) / 1e6;
  }
  return out;
}

std::string Suffix(int w) { return "_t" + std::to_string(w); }

template <int D>
class Bench {
 public:
  Bench(Spec spec, Args args, double t_start)
      : spec_(std::move(spec)), args_(std::move(args)), t_start_(t_start) {}

  // Repeats {one one-shot round, one pool round, `live_rounds` live
  // rounds, one more 1-worker one-shot call and pool pass} until --seconds
  // have passed, and at least four times so the traced run has traced and
  // untraced pool pairs, so every metric's samples spread over the whole
  // run (the extra steps double the 1-worker samples, the noisiest, and put
  // them at both ends of the round); then adds live rounds until the query
  // samples reach 100 (ten above p90) and peak RSS has been read.
  void Run(Result& r) {
    Setup(r);
    if (args_.trace) Microbenchmarks(r);
    const double start = NowSeconds();
    for (size_t round = 0;
         round < 4 || NowSeconds() - start < args_.seconds; ++round) {
      OneshotRound(r, round);
      PoolRound(r, round);
      LiveRounds(spec_.live_rounds);
      OneshotCall(r, 1, false);
      PoolPass(r, 1, round, false);
    }
    while ((live_loop_->outcome().rtt_ms.size() < kMinRttSamples &&
            NowSeconds() - start < 3 * args_.seconds) ||
           live_loop_->rounds_done() < kRssRound) {
      LiveRounds(1);
    }
    ReportOneshot(r);
    ReportPool(r);
    ReportLive(r);
    live_.reset();
    Checks(r);
  }

 private:
  static constexpr size_t kMinRttSamples = 100;

  std::vector<int> TimedWorkers() const {
    return args_.trace ? args_.workers : std::vector<int>{1, 4};
  }

  // Worker counts of one round, in the order they run: reversed on odd
  // rounds so neither count always runs first.
  std::vector<int> RoundOrder(size_t round) const {
    std::vector<int> ws = TimedWorkers();
    if (round % 2 == 1) std::reverse(ws.begin(), ws.end());
    return ws;
  }

  void Setup(Result& r) {
    pdbscan::parallel::set_num_workers(4);
    points_ = Generate<D>(spec_, spec_.n, args_.seed);
    index_ = pdbscan::CellIndex<D>::Build(points_, spec_.eps, spec_.counts_cap);
    pool_ = std::make_unique<pdbscan::EnginePool<D>>(index_);
    pool_->Run(spec_.min_pts);  // Allocates the context's workspace.
    live_points_ = spec_.live_n == spec_.n
                       ? points_
                       : Generate<D>(spec_, spec_.live_n, SubSeed(args_.seed, 11));
    live_ = std::make_unique<LiveService<D>>(".bench_run/live", spec_.eps,
                                             spec_.counts_cap, live_points_);
    live_generation_ = live_->load_generation();
    LiveConfig cfg;
    cfg.eps = spec_.eps;
    cfg.round_minpts = spec_.live_minpts;
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    cfg.readers = std::min<size_t>(3, hw - 1);
    cfg.batch = spec_.batch;
    cfg.traced = args_.trace;
    cfg.seed = SubSeed(args_.seed, 7);
    live_loop_ =
        std::make_unique<LiveLoop<D>>(*live_, std::move(cfg), live_points_);
    const pdbscan::dbscan::PipelineStats& ss = live_->scheduler().serving_stats();
    coalesced0_ = ss.requests_coalesced.load();
    hits0_ = ss.cache_hits.load();
    misses0_ = ss.cache_misses.load();
    if (!args_.trace) r.Metric("setup_s", NowSeconds() - t_start_, "s");
  }

  // Public-API microtimings: the distance kernel on one cell-sized batch
  // and the scheduler's primitives with empty bodies.
  void Microbenchmarks(Result& r) {
    constexpr size_t kBatch = 256;
    std::vector<std::vector<double>> lanes(D, std::vector<double>(kBatch));
    for (size_t i = 0; i < kBatch; ++i) {
      for (int d = 0; d < D; ++d) lanes[d][i] = points_[i][d];
    }
    const double* lane_ptrs[D];
    for (int d = 0; d < D; ++d) lane_ptrs[d] = lanes[d].data();
    double q[D];
    for (int d = 0; d < D; ++d) q[d] = points_[0][d];
    const auto& ops = pdbscan::kernels::Ops();
    std::vector<double> ns;
    volatile size_t sink = 0;
    for (int rep = 0; rep < 21; ++rep) {
      constexpr int kCalls = 20000;
      const double t0 = NowSeconds();
      for (int c = 0; c < kCalls; ++c) {
        q[0] += 0.0;
        sink = sink + ops.count_within(lane_ptrs, 1, D, kBatch, q,
                                       spec_.eps * spec_.eps, kBatch, nullptr);
      }
      ns.push_back((NowSeconds() - t0) * 1e9 / (double(kCalls) * kBatch));
    }
    r.Metric("kernels.count_within_ns_per_point", Median(ns), "ns");

    Workers w4(4);
    std::vector<double> pf, pf1, fj;
    for (int rep = 0; rep < 31; ++rep) {
      double t0 = NowSeconds();
      pdbscan::parallel::parallel_for(0, 100000, [](size_t) {});
      pf.push_back((NowSeconds() - t0) * 1e6);
      t0 = NowSeconds();
      pdbscan::parallel::parallel_for(0, 1000, [](size_t) {}, 1);
      pf1.push_back((NowSeconds() - t0) * 1e6);
      t0 = NowSeconds();
      for (int k = 0; k < 100; ++k) {
        pdbscan::parallel::fork_join([]() {}, []() {});
      }
      fj.push_back((NowSeconds() - t0) * 1e6 / 100);
    }
    r.Metric("parallel.parallel_for_us_t4", Median(pf), "us");
    r.Metric("parallel.parallel_for_grain1_us_t4", Median(pf1), "us");
    r.Metric("parallel.fork_join_us_t4", Median(fj), "us");
  }

  // One one-shot pdbscan::Dbscan on the full input per worker count.
  void OneshotRound(Result& r, size_t round) {
    for (const int w : RoundOrder(round)) OneshotCall(r, w, round == 0);
  }

  // One one-shot call at `w` workers; `first_round` marks the call whose
  // kernel counters the traced run reports.
  void OneshotCall(Result& r, int w, bool first_round) {
    if (args_.trace) telemetry::SetTraceEnabled(true);
    Workers scope(w);
    const uint64_t trace = args_.trace ? telemetry::NewTraceId() : 0;
    pdbscan::dbscan::PipelineStats& g = pdbscan::dbscan::GlobalStats();
    const size_t batches0 = g.kernel_batches.load();
    const size_t pruned0 =
        g.kernel_points_pruned_box.load() + g.kernel_points_pruned_norm.load();
    double dt = 0;
    Clustering c;
    {
      telemetry::ScopedTraceContext ctx(trace);
      const double t0 = NowSeconds();
      c = pdbscan::Dbscan<D>(points_, spec_.eps, spec_.min_pts);
      dt = NowSeconds() - t0;
    }
    ++r.attempted;
    oneshot_s_[w].push_back(dt);
    if (args_.trace) {
      const TraceBreakdown b = Breakdown(trace);
      build_stage_[w]["build_grid"].push_back(b.Self("build_grid"));
      build_stage_[w]["range_count"].push_back(
          b.Self("range_count_scan") + b.Self("range_count_quadtree"));
      if (w == 1 && first_round) {
        r.Metric("kernels.batches",
                 static_cast<double>(g.kernel_batches.load() - batches0),
                 "count");
        r.Metric("kernels.points_pruned",
                 static_cast<double>(g.kernel_points_pruned_box.load() +
                                     g.kernel_points_pruned_norm.load() -
                                     pruned0),
                 "count");
      }
    }
    const uint64_t h = LabelHash(c);
    if (!oneshot_hash_) {
      oneshot_hash_ = h;
      oneshot_ = std::move(c);
    } else if (h != *oneshot_hash_) {
      r.Fail("one-shot labels differ between calls (" + std::to_string(w) +
             " workers)");
    }
    telemetry::SetTraceEnabled(false);
  }

  // EnginePool::Run over the frozen index for each min_pts of the list, per
  // worker count; one sample is a pass's mean time per query. In the
  // traced run, pairs of rounds alternate between traced and untraced, so
  // both worker orders of RoundOrder have traced and untraced samples.
  void PoolRound(Result& r, size_t round) {
    for (const int w : RoundOrder(round)) PoolPass(r, w, round, round == 0);
  }

  // One pass over the min_pts list at `w` workers; `first_round` marks the
  // pass whose BCP counters the traced run reports.
  void PoolPass(Result& r, int w, size_t round, bool first_round) {
    const bool traced = args_.trace && (round / 2) % 2 == 1;
    Workers scope(w);
    double total_ms = 0;
    for (const size_t mp : spec_.pool_minpts) {
      const bool count_bcp =
          args_.trace && w == 1 && mp == spec_.min_pts && first_round;
      pdbscan::dbscan::PipelineStats before;
      if (count_bcp) pool_->AggregateStats(before);
      const uint64_t trace = traced ? telemetry::NewTraceId() : 0;
      if (traced) telemetry::SetTraceEnabled(true);
      double dt = 0;
      Clustering c;
      {
        telemetry::ScopedTraceContext ctx(trace);
        const double t0 = NowSeconds();
        c = pool_->Run(mp);
        dt = (NowSeconds() - t0) * 1e3;
      }
      telemetry::SetTraceEnabled(false);
      ++r.attempted;
      total_ms += dt;
      if (traced) {
        const TraceBreakdown b = Breakdown(trace);
        for (const char* name :
             {"mark_core", "cluster_core", "cluster_border", "finalize"}) {
          query_stage_[w][name].push_back(b.Self(name));
        }
        query_stage_[w]["core_index_gap"].push_back(
            std::max(0.0, b.core_index_gap_ms));
        query_stage_[w]["span_coverage"].push_back(b.total_self_ms / dt);
      }
      if (count_bcp) {
        pdbscan::dbscan::PipelineStats after;
        pool_->AggregateStats(after);
        r.Metric("dbscan.bcp_queries",
                 static_cast<double>(after.connectivity_queries.load() -
                                     before.connectivity_queries.load()),
                 "count");
        r.Metric("dbscan.bcp_successful",
                 static_cast<double>(after.successful_queries.load() -
                                     before.successful_queries.load()),
                 "count");
      }
      const uint64_t h = LabelHash(c);
      const auto [it, fresh] = pool_hash_.emplace(mp, h);
      if (!fresh && it->second != h) {
        r.Fail("pool labels differ between queries at min_pts " +
               std::to_string(mp));
      }
      if (fresh && mp == spec_.min_pts) pool_result_ = std::move(c);
    }
    (traced ? pool_traced_ms_ : pool_ms_)[w].push_back(
        total_ms / static_cast<double>(spec_.pool_minpts.size()));
  }

  void LiveRounds(size_t rounds) {
    Workers scope(4);
    if (args_.trace) {
      telemetry::SetTraceEnabled(true);
      live_->set_account_journal(true);
    }
    live_loop_->RunRounds(rounds);
    telemetry::SetTraceEnabled(false);
  }

  void ReportOneshot(Result& r) {
    if (args_.trace) {
      for (const int w : TimedWorkers()) {
        r.Metric("dbscan.build_grid_ms" + Suffix(w),
                 Median(build_stage_[w]["build_grid"]), "ms");
        r.Metric("dbscan.range_count_ms" + Suffix(w),
                 Median(build_stage_[w]["range_count"]), "ms");
      }
    } else {
      // The first quartile, not the median: identical one-shot calls run
      // in a fast mode and, in host contention episodes lasting seconds, a
      // mode up to 1.5x slower (CPU time equal to wall time, the machine
      // otherwise idle), and the median flips between the two from run to
      // run. The first quartile stays in the fast mode unless most of the
      // run is slow.
      r.Metric("cluster_s_t1", Quantile(oneshot_s_[1], 0.25), "s");
      r.Metric("cluster_s_t4", Quantile(oneshot_s_[4], 0.25), "s");
    }
  }

  void ReportPool(Result& r) {
    if (!pool_hash_.count(spec_.min_pts) || !oneshot_hash_ ||
        pool_hash_.at(spec_.min_pts) != *oneshot_hash_) {
      r.Fail("engine (one-shot) and pool labels differ");
    }
    if (!args_.trace) {
      // The first quartile, for the reason given in ReportOneshot.
      r.Metric("query_ms_t1", Quantile(pool_ms_[1], 0.25), "ms");
      r.Metric("query_ms_t4", Quantile(pool_ms_[4], 0.25), "ms");
      return;
    }
    r.Metric("dbscan.cells", static_cast<double>(index_->num_cells()), "count");
    double plain_sum = 0, traced_sum = 0;
    for (const int w : TimedWorkers()) {
      const std::string t = Suffix(w);
      auto& st = query_stage_[w];
      r.Metric("dbscan.mark_core_ms" + t, Median(st["mark_core"]), "ms");
      r.Metric("dbscan.core_index_gap_ms" + t, Median(st["core_index_gap"]),
               "ms");
      r.Metric("dbscan.cluster_core_ms" + t, Median(st["cluster_core"]), "ms");
      r.Metric("dbscan.cluster_border_ms" + t, Median(st["cluster_border"]),
               "ms");
      r.Metric("dbscan.finalize_ms" + t, Median(st["finalize"]), "ms");
      r.Metric("dbscan.span_coverage" + t, Median(st["span_coverage"]),
               "ratio");
      plain_sum += Median(pool_ms_[w]);
      traced_sum += Median(pool_traced_ms_[w]);
    }
    r.Metric("telemetry.trace_overhead_pct",
             plain_sum > 0 ? (traced_sum / plain_sum - 1) * 100 : 0, "%");
  }

  void ReportLive(Result& r) {
    const LiveOutcome<D>& o = live_loop_->outcome();
    r.attempted += o.attempted;
    r.failed += o.failed;
    std::fprintf(stderr,
                 "perfbench: live: %zu updates, %zu queries in %.2fs\n",
                 o.update_ms.size(), o.rtt_ms.size(), o.window_s);
    if (!args_.trace) {
      r.Metric("update_ms", Median(o.update_ms), "ms");
      r.Metric("rtt_ms_p50", Median(o.rtt_ms), "ms");
      r.Metric("rtt_ms_p90", Quantile(o.rtt_ms, 0.9), "ms");
      r.Metric("served_qps",
               static_cast<double>(o.rtt_ms.size()) / std::max(o.window_s, 1e-9),
               "1/s");
      r.Metric("peak_rss_mb", o.peak_rss_mb, "MB");
      return;
    }
    const pdbscan::dbscan::PipelineStats& ss = live_->scheduler().serving_stats();
    r.Metric("serving.queue_wait_ms", Median(o.queue_wait_ms), "ms");
    r.Metric("serving.sweep_ms", Median(o.sweep_ms), "ms");
    r.Metric("serving.coalesced",
             static_cast<double>(ss.requests_coalesced.load() - coalesced0_),
             "count");
    r.Metric("serving.cache_hits",
             static_cast<double>(ss.cache_hits.load() - hits0_), "count");
    r.Metric("serving.cache_misses",
             static_cast<double>(ss.cache_misses.load() - misses0_), "count");
    r.Metric("net.serve_request_ms", Median(o.serve_request_ms), "ms");
    r.Metric("net.wire_ms", Median(o.wire_ms), "ms");
    r.Metric("net.response_bytes", Median(o.response_bytes), "bytes");
    const UpdateAccounting acc = live_->TakeAccounting();
    r.Metric("streaming.recount_ms", Median(acc.recount_ms), "ms");
    r.Metric("streaming.cells_rebuilt", Median(acc.cells_rebuilt), "count");
    r.Metric("streaming.cells_retained", Median(acc.cells_retained), "count");
    std::vector<double> deltas;
    for (size_t i = 1; i < acc.journal_bytes.size(); ++i) {
      if (acc.journal_bytes[i] > acc.journal_bytes[i - 1]) {
        deltas.push_back(acc.journal_bytes[i] - acc.journal_bytes[i - 1]);
      }
    }
    r.Metric("persist.journal_bytes_per_update", Median(deltas), "bytes");
  }

  void Checks(Result& r) {
    Workers scope(4);
    const std::span<const pdbscan::Point<D>> pts(points_);
    std::string why;

    // Sampled brute-force check of the one-shot and pool labellings.
    if (!oneshot_hash_) {
      r.Fail("no one-shot result to check");
      return;
    }
    const std::vector<size_t> sample =
        PickSample(oneshot_, SubSeed(args_.seed, 3), 96, 48);
    if (SampledCheck<D>(pts, spec_.eps, spec_.min_pts, oneshot_, sample,
                        &why) != 0) {
      r.Fail("sampled check of the one-shot labelling: " + why);
    }
    why.clear();
    if (SampledCheck<D>(pts, spec_.eps, spec_.min_pts, pool_result_, sample,
                        &why) != 0) {
      r.Fail("sampled check of the pool labelling: " + why);
    }
    // The sampled check must reject a flipped core flag at a sampled point.
    const std::vector<size_t> one(sample.begin(), sample.begin() + 1);
    if (SampledCheck<D>(pts, spec_.eps, spec_.min_pts,
                        FlipCoreFlag(oneshot_, one[0]), one, nullptr) == 0) {
      r.Fail("negative check: sampled check accepted a flipped core flag");
    }

    // Full brute-force check on a small instance of the same generator (10
    // walks of 300 points), plus the negative checks on it.
    const std::vector<pdbscan::Point<D>> small =
        Generate<D>(spec_, kSmallN, args_.seed, 10);
    const BruteClustering ref =
        BruteDbscan<D>(small, spec_.eps, spec_.small_min_pts);
    const Clustering lib =
        pdbscan::Dbscan<D>(small, spec_.eps, spec_.small_min_pts);
    why.clear();
    if (!FullCheck(ref, lib, &why)) {
      r.Fail("full check on small instance: " + why);
    }
    if (FullCheck(ref, FlipCoreFlag(lib, 0), &why)) {
      r.Fail("negative check: full check accepted a flipped core flag");
    }
    if (ref.num_clusters >= 2 &&
        FullCheck(ref, MergeClusters(lib, 1, 0), &why)) {
      r.Fail("negative check: full check accepted two merged clusters");
    }

    // Live: every answered query names a generation the writer produced
    // with the right size; every kept response equals, up to renaming of
    // cluster ids, a local one-shot Dbscan of the benchmark's own mirror of
    // that generation. Bit-identical ids are counted but not required: the
    // writer's grid is anchored at the origin, the one-shot grid at the
    // bounding box, and the two number clusters differently when a border
    // point is the first point of two clusters (see CHANGES.md, FOUND).
    LiveOutcome<D>& o = live_loop_->outcome();
    std::map<uint64_t, const SentBatch<D>*> by_gen;
    for (const SentBatch<D>& b : o.batches) by_gen[b.generation] = &b;
    const uint64_t load_gen = live_generation_;
    for (const auto& [gen, num] : o.answered) {
      if (num != spec_.live_n || (gen != load_gen && !by_gen.count(gen))) {
        r.Fail("live response at unknown generation " + std::to_string(gen));
        break;
      }
    }
    std::vector<KeptResponse*> kept;
    for (KeptResponse& k : o.kept) kept.push_back(&k);
    std::sort(kept.begin(), kept.end(), [](const auto* a, const auto* b) {
      return a->resp.generation < b->resp.generation;
    });
    std::vector<uint64_t> ids(live_points_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::vector<pdbscan::Point<D>> mirror = live_points_;
    uint64_t at = load_gen;
    auto it = by_gen.begin();
    size_t identical = 0;
    for (const KeptResponse* k : kept) {
      while (at < k->resp.generation && it != by_gen.end()) {
        ApplyBatch(*it->second, ids, mirror);
        at = it->first;
        ++it;
      }
      if (at != k->resp.generation) {
        r.Fail("cannot rebuild generation " + std::to_string(k->resp.generation));
        break;
      }
      const Clustering local = pdbscan::Dbscan<D>(mirror, spec_.eps, k->min_pts);
      why.clear();
      if (!SameUpToRenaming(k->resp.cluster, k->resp.is_core, local, &why)) {
        r.Fail("live response at generation " +
               std::to_string(k->resp.generation) +
               " disagrees with a local one-shot Dbscan: " + why);
      }
      identical += local.cluster == k->resp.cluster ? 1 : 0;
    }
    std::fprintf(stderr,
                 "perfbench: %zu live responses agree with local one-shot "
                 "runs, %zu of them with identical cluster ids\n",
                 kept.size(), identical);
  }

  Spec spec_;
  Args args_;
  double t_start_;
  std::vector<pdbscan::Point<D>> points_;
  std::shared_ptr<const pdbscan::CellIndex<D>> index_;
  std::unique_ptr<pdbscan::EnginePool<D>> pool_;
  std::unique_ptr<LiveService<D>> live_;
  uint64_t live_generation_ = 0;
  std::vector<pdbscan::Point<D>> live_points_;
  std::optional<uint64_t> oneshot_hash_;
  Clustering oneshot_;
  Clustering pool_result_;
  std::unique_ptr<LiveLoop<D>> live_loop_;
  size_t coalesced0_ = 0, hits0_ = 0, misses0_ = 0;
  // Samples per worker count.
  std::map<int, std::vector<double>> oneshot_s_, pool_ms_, pool_traced_ms_;
  std::map<int, std::map<std::string, std::vector<double>>> build_stage_,
      query_stage_;
  std::map<size_t, uint64_t> pool_hash_;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload varden-2d|live-3d"
               " --seed N --seconds S --trace 0|1 [--workers 1,2,4]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v != "0";
    } else if (flag == "--workers") {
      a.workers.clear();
      for (size_t p = 0; p < v.size();) {
        const size_t e = v.find(',', p);
        const int w = std::atoi(v.substr(p, e - p).c_str());
        if (w < 1 || w > 64) Usage("--workers takes counts between 1 and 64");
        a.workers.push_back(w);
        p = e == std::string::npos ? v.size() : e + 1;
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double t_start = perfbench::NowSeconds();
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const std::optional<perfbench::Spec> spec = perfbench::SpecFor(args.workload);
  if (!spec) perfbench::Usage("unknown workload");
  perfbench::Result result;
  try {
    if (spec->dim == 2) {
      perfbench::Bench<2>(*spec, args, t_start).Run(result);
    } else {
      perfbench::Bench<3>(*spec, args, t_start).Run(result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: fatal: %s\n", e.what());
    return 1;
  }
  result.Print();
  return 0;
}
