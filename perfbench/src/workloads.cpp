#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "geom/spatial_hash.h"
#include "mobility/process.h"
#include "mobility/shape.h"
#include "net/network.h"
#include "net/traffic.h"
#include "probe.h"
#include "reference.h"
#include "rng/rng.h"
#include "routing/scheme_a.h"
#include "routing/scheme_b.h"
#include "sched/sstar.h"
#include "sim/engine.h"
#include "sim/flowsim.h"
#include "sim/metrics.h"
#include "sim/slotsim.h"
#include "sim/sweep.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace manetcap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Kind { kSlots, kFluid };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kSlots;
  std::size_t n = 0;  // slot workloads: the population
  /// Slot workloads: the run_slot_sim horizon. Fluid: the flow engine's
  /// per-run horizon (EngineOptions defaults).
  std::size_t slots = 0;
  std::size_t warmup = 0;
  std::vector<std::size_t> sizes;  // fluid: sweep sizes
  std::size_t trials = 0;          // fluid: trials per size
};

/// The strong-regime parameter set at population n.
net::ScalingParams strong_params(std::size_t n) {
  net::ScalingParams p;
  p.n = n;
  p.alpha = 0.35;
  p.with_bs = true;
  p.K = 0.7;
  p.M = 1.0;
  return p;
}

/// Timed repetitions per run never drop below this, even when one
/// repetition outlasts --seconds: a median needs at least three values.
constexpr std::size_t kMinTimedOps = 3;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The measuring window of one run (--seconds, set-up included). Another
/// repetition starts only while it is expected to end no later than half a
/// repetition past the window, so a run's length tracks --seconds.
class Window {
 public:
  explicit Window(double seconds) : end_(Clock::now() + to_duration(seconds)) {}
  bool room_for(double rep_seconds) const {
    return Clock::now() + to_duration(0.5 * rep_seconds) < end_;
  }

 private:
  Clock::time_point end_;
};

/// The timed operations of an untraced run, with a host probe before the
/// first and after each one; their seconds are reported scaled by the
/// run's host_scale (probe.h). Only operations that passed their checks
/// feed the metrics. The unscaled seconds and every probe go to the
/// manifest.
class ScaledTimes {
 public:
  explicit ScaledTimes(HostProbe& probe)
      : probe_(probe), probes_{probe.seconds()} {}

  /// Probes after an operation of `op_seconds`; returns the time the
  /// operation and its probe took.
  double add(double op_seconds, bool passed) {
    if (passed) raw_.push_back(op_seconds);
    probes_.push_back(probe_.seconds());
    return op_seconds + probes_.back();
  }

  /// sweep_s (scaled seconds per operation) and slots_per_s (`slots` per
  /// operation over those seconds).
  void report(Report& rep, double slots) const {
    const double scale = host_scale(probes_);
    std::vector<double> secs, rates;
    for (const double s : raw_) {
      secs.push_back(s * scale);
      rates.push_back(slots / secs.back());
    }
    rep.metric("slots_per_s", "1/s", rates);
    rep.metric("sweep_s", "s", secs);
    rep.manifest_entry("op_seconds_unscaled", json_numbers(raw_));
    rep.manifest_entry("probe_seconds", json_numbers(probes_));
    rep.manifest_entry("host_scale", json_number(scale));
  }

 private:
  HostProbe& probe_;
  std::vector<double> probes_;
  std::vector<double> raw_;
};

struct Instance {
  net::Network net;
  std::vector<std::uint32_t> dest;
};

/// The instance draw bench/slotsim_scale and bench/flowsim_speed use.
Instance make_instance(std::size_t n, std::uint64_t seed,
                       SpanRecorder& rec) {
  const net::ScalingParams p = strong_params(n);
  std::optional<net::Network> net;
  {
    ScopedSpan s(rec, "net.build");
    net.emplace(net::Network::build(p, mobility::ShapeKind::kUniformDisk,
                                    net::BsPlacement::kClusteredMatched,
                                    seed));
  }
  ScopedSpan s(rec, "net.traffic");
  rng::Xoshiro256 g(sim::traffic_seed(seed));
  auto dest = net::permutation_traffic(p.n, g);
  return {std::move(*net), std::move(dest)};
}

std::string instance_error(const Instance& inst, std::size_t n) {
  if (inst.net.num_ms() != n)
    return "instance has " + std::to_string(inst.net.num_ms()) +
           " MSs, expected " + std::to_string(n);
  if (inst.net.num_bs() == 0) return "instance has no base stations";
  if (!net::is_valid_permutation_traffic(inst.dest))
    return "traffic draw is not a valid permutation";
  return "";
}

/// Compares each operation's fields with the committed reference for the
/// seed; without one, with the first operation of this run.
class OutputCheck {
 public:
  explicit OutputCheck(const RunRequest& req)
      : committed_(load_reference(
            req.reference_dir + "/" + req.workload + ".ref", req.seed)) {}

  bool committed() const { return committed_.has_value(); }

  std::string check(const Fields& got) {
    if (committed_) return mismatch(*committed_, got);
    if (!first_) {
      first_ = got;
      return "";
    }
    return mismatch(*first_, got);
  }

 private:
  std::optional<Fields> committed_;
  std::optional<Fields> first_;
};

/// Runs `op` and returns "" or the reason it failed (an exception counts).
template <class Op>
std::string guarded(Op&& op) {
  try {
    return op();
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

// --- slot workloads --------------------------------------------------------

struct SlotOp {
  sim::SlotSimResult res;
  sim::Metrics metrics;
  double seconds = 0.0;
};

SlotOp run_slot_op(const Instance& inst, const WorkloadSpec& w,
                   std::uint64_t seed) {
  sim::SlotSimOptions o;
  o.scheme = sim::SlotScheme::kSchemeB;
  o.mobility = sim::SlotMobility::kIid;
  o.slots = w.slots;
  o.warmup = w.warmup;
  o.seed = seed;
  o.shards = 1;
  SlotOp op;
  o.metrics = &op.metrics;
  const auto t0 = Clock::now();
  op.res = sim::run_slot_sim(inst.net, inst.dest, o);
  op.seconds = seconds_since(t0);
  return op;
}

Fields slot_fields(const sim::SlotSimResult& r) {
  Fields f;
  add_double(f, "mean_flow_rate", r.mean_flow_rate);
  add_double(f, "min_flow_rate", r.min_flow_rate);
  add_double(f, "p10_flow_rate", r.p10_flow_rate);
  add_double(f, "pairs_per_slot", r.pairs_per_slot);
  add_count(f, "injected", r.injected);
  add_count(f, "delivered_lifetime", r.delivered_lifetime);
  add_count(f, "queued_end", r.queued_end);
  add_count(f, "state_bytes", r.state_bytes);
  return f;
}

struct ReplayTotals {
  std::uint64_t candidate_pairs = 0;
  std::uint64_t feasible_pairs = 0;
  std::uint64_t moves = 0;    // SpatialHash::move calls
  std::uint64_t crosses = 0;  // of those, MSs whose bucket changed
  double wall_s = 0.0;
};

/// The serial slot loop's public layer calls, in its order, for the
/// run's horizon: hash move of every MS → S* feasible_pairs_into (the
/// serial loop's scan: begin_scan, the id-order lone scan, extract_pairs)
/// → mobility step. Transfers, wired_step and the audit are what it
/// leaves out. To split the scan, extract_pairs runs a second time on the
/// same workspace (same input, same work; its stats are not counted):
/// lone-scan time = scan span − that extract span. The row-order
/// lone_scan_rows the sharded loop uses is not timed here: on one thread
/// it is 5–10 % slower than the id-order scan, so it would not describe
/// the serial program the end-to-end numbers measure.
ReplayTotals replay_slots(const Instance& inst, const WorkloadSpec& w,
                          std::uint64_t seed, SpanRecorder& rec) {
  const sim::SlotSimOptions defaults;  // ct, Δ as the run uses them
  const std::size_t n = inst.net.num_ms();
  const std::size_t k = inst.net.num_bs();
  const auto t0 = Clock::now();
  ScopedSpan root(rec, "replay");
  std::optional<mobility::IidStationaryMobility> process;
  {
    ScopedSpan s(rec, "mobility.init");
    process.emplace(inst.net.ms_home(), inst.net.shape(),
                    1.0 / inst.net.params().f(), seed);
  }
  sched::SStarScheduler sstar(defaults.ct, defaults.delta);
  sched::SStarScheduler::Workspace ws;
  geom::SpatialHash hash((1.0 + defaults.delta) * sstar.range_for(n + k),
                         n + k);
  std::vector<geom::Point> pos(n + k);
  std::copy(inst.net.bs_pos().begin(), inst.net.bs_pos().end(),
            pos.begin() + static_cast<std::ptrdiff_t>(n));
  const auto g = static_cast<double>(hash.grid_side());
  const auto bucket = [&](geom::Point p) {
    const double top = g - 1.0;
    return std::make_pair(std::clamp(std::floor(p.x * g), 0.0, top),
                          std::clamp(std::floor(p.y * g), 0.0, top));
  };
  ReplayTotals tot;
  for (std::size_t t = 0; t < w.slots; ++t) {
    const std::vector<geom::Point>& mpos = process->positions();
    if (t == 0) {
      std::copy(mpos.begin(), mpos.end(), pos.begin());
      ScopedSpan s(rec, "geom.hash_build");
      hash.build(pos);
    } else {
      for (std::size_t i = 0; i < n; ++i)
        tot.crosses += bucket(pos[i]) != bucket(mpos[i]) ? 1 : 0;
      tot.moves += n;
      ScopedSpan s(rec, "geom.hash_move");
      for (std::uint32_t i = 0; i < n; ++i) {
        hash.move(i, pos[i], mpos[i]);
        pos[i] = mpos[i];
      }
    }
    sched::ScheduleStats stats;
    {
      ScopedSpan s(rec, "sched.scan");
      sstar.feasible_pairs_into(pos, hash, ws, &stats);
    }
    {
      ScopedSpan s(rec, "sched.extract");
      sstar.extract_pairs(pos, ws);
    }
    tot.candidate_pairs += stats.candidate_pairs;
    tot.feasible_pairs += stats.feasible_pairs;
    ScopedSpan s(rec, "mobility.step");
    process->step();
  }
  tot.wall_s = seconds_since(t0);
  return tot;
}

/// Layer spans of the replay whose self times sum to the replayed work of
/// the run (the repeated extraction is left out).
const char* const kReplayPhases[] = {"mobility.init", "geom.hash_build",
                                     "geom.hash_move", "sched.scan",
                                     "mobility.step"};

void run_slots(const RunRequest& req, const WorkloadSpec& w, Report& rep,
               SpanRecorder& rec) {
  const Window window(req.seconds);
  OutputCheck out(req);
  const std::size_t build_mark = rec.mark();
  {
    ScopedSpan s(rec, "mobility.shape");
    mobility::Shape shape(mobility::ShapeKind::kUniformDisk);
  }
  const Instance inst = make_instance(w.n, req.seed, rec);
  const std::size_t build_end = rec.mark();
  if (const std::string e = instance_error(inst, w.n); !e.empty())
    throw std::runtime_error(e);

  auto slot_op = [&](SlotOp& op) {
    return guarded([&] {
      op = run_slot_op(inst, w, req.seed);
      const std::string e = out.check(slot_fields(op.res));
      return e.empty() ? e : "run_slot_sim output: " + e;
    });
  };

  if (!req.trace) {
    HostProbe probe;  // its helper builds the chain during the warm-up
    // One untimed repetition first: page faults, allocator growth and
    // cold caches land there, not in the medians.
    SlotOp warm;
    rep.operation(slot_op(warm));
    ScaledTimes times(probe);
    std::vector<double> bytes;
    double last_s = 0.0;
    for (std::size_t ops = 0; ops < kMinTimedOps || window.room_for(last_s);
         ++ops) {
      SlotOp op;
      const std::string e = slot_op(op);
      rep.operation(e);
      last_s = times.add(op.seconds, e.empty());
      if (e.empty())
        bytes.push_back(static_cast<double>(op.res.state_bytes) /
                        static_cast<double>(w.n));
    }
    times.report(rep, static_cast<double>(w.slots));
    rep.metric("bytes_per_ms", "B/MS", bytes);
    return;
  }

  // Traced run: rounds of {run_slot_sim, traced replay, the same replay
  // with spans off}, interleaved so host drift hits all three alike.
  // A round whose run_slot_sim failed its checks is counted as failed and
  // contributes no sample.
  SpanRecorder off(false);
  std::vector<double> op_s, rest_s, overhead;
  std::map<std::string, std::vector<double>> self_s;
  std::optional<SlotOp> first;
  ReplayTotals totals;
  double round_s = 0.0;
  for (std::size_t round = 0; round < 2 || window.room_for(round_s);
       ++round) {
    const auto round_start = Clock::now();
    SlotOp op;
    const std::string e = slot_op(op);
    rep.operation(e);
    if (!e.empty()) {
      round_s = seconds_since(round_start);
      continue;
    }
    op_s.push_back(op.seconds);
    if (!first) first = std::move(op);

    const std::size_t mark = rec.mark();
    totals = replay_slots(inst, w, req.seed, rec);
    const auto self = self_seconds_by_name(rec.spans(), mark, rec.mark());
    double phases = 0.0;
    for (const char* phase : kReplayPhases) {
      const auto it = self.find(phase);
      phases += it == self.end() ? 0.0 : it->second;
    }
    rest_s.push_back(op_s.back() - phases);
    for (const char* name : {"geom.hash_move", "mobility.step",
                             "sched.extract"})
      self_s[name].push_back(self.at(name));
    self_s["sched.lone_scan"].push_back(self.at("sched.scan") -
                                        self.at("sched.extract"));
    overhead.push_back(totals.wall_s /
                       replay_slots(inst, w, req.seed, off).wall_s);

    // Replay fidelity: the per-layer shares describe the measured program
    // only if the replay scheduled exactly the pairs the run did.
    const std::uint64_t run_cand =
        first->metrics.count(sim::Counter::kSchedCandidatePairs);
    const std::uint64_t run_feas =
        first->metrics.count(sim::Counter::kSchedFeasiblePairs);
    if (totals.candidate_pairs != run_cand ||
        totals.feasible_pairs != run_feas)
      rep.fail("replay fidelity: replay S* pairs " +
               std::to_string(totals.feasible_pairs) + "/" +
               std::to_string(totals.candidate_pairs) + " != run " +
               std::to_string(run_feas) + "/" + std::to_string(run_cand));
    round_s = seconds_since(round_start);
  }
  if (!first) return;  // every round failed; run.py reports the gaps

  const auto& m = first->metrics;
  const auto count = [&](sim::Counter c) {
    return static_cast<double>(m.count(c));
  };
  const double stall = count(sim::Counter::kWiredCreditStall);
  const double fwd = count(sim::Counter::kWiredForwarded);
  rep.metric("sched.lone_scan_s", "s", self_s["sched.lone_scan"]);
  rep.metric("sched.extract_s", "s", self_s["sched.extract"]);
  rep.metric("sched.candidate_pairs", "count",
             static_cast<double>(totals.candidate_pairs));
  rep.metric("sched.feasible_pairs", "count",
             static_cast<double>(totals.feasible_pairs));
  rep.metric("sched.feasible_ratio", "ratio",
             totals.candidate_pairs == 0
                 ? 0.0
                 : static_cast<double>(totals.feasible_pairs) /
                       static_cast<double>(totals.candidate_pairs));
  rep.metric("geom.hash_move_s", "s", self_s["geom.hash_move"]);
  rep.metric("geom.cross_ratio", "ratio",
             totals.moves == 0 ? 0.0
                               : static_cast<double>(totals.crosses) /
                                     static_cast<double>(totals.moves));
  rep.metric("mobility.step_s", "s", self_s["mobility.step"]);
  rep.metric("sim.slot_rest_s", "s", rest_s);
  rep.metric("sim.delivered", "count", count(sim::Counter::kDelivered));
  rep.metric("sim.relayed", "count", count(sim::Counter::kRelayed));
  rep.metric("sim.wired_forwarded", "count", fwd);
  rep.metric("sim.wired_credit_stall", "count", stall);
  rep.metric("sim.wired_stall_ratio", "ratio",
             stall + fwd == 0.0 ? 0.0 : stall / (stall + fwd));
  const auto built = self_seconds_by_name(rec.spans(), build_mark, build_end);
  rep.metric("net.build_s", "s", built.at("net.build"));
  rep.metric("mobility.shape_s", "s", built.at("mobility.shape"));
  rep.metric("routing.scheme_a_s", "s", 0.0);
  rep.metric("routing.scheme_b_s", "s", 0.0);
  rep.metric("routing.rows", "count", 0.0);
  rep.metric("routing.incid_nnz", "count", 0.0);
  rep.metric("sim.flow_alloc_s", "s", 0.0);
  rep.metric("trace.overhead_ratio", "ratio", overhead);
  rep.manifest_entry("op_seconds", json_numbers(op_s));
}

// --- fluid workload --------------------------------------------------------

struct SweepOp {
  Fields fields;                // per-cell λ, then the fitted exponent
  std::vector<double> lambdas;  // per cell, in cell order
  double seconds = 0.0;
};

SweepOp run_sweep_op(const WorkloadSpec& w, std::uint64_t seed) {
  sim::EngineOptions eopt;
  eopt.slots = w.slots;
  eopt.warmup = w.warmup;
  const auto inner = sim::make_engine_evaluator(sim::EngineKind::kFluid, eopt);
  SweepOp op;
  const sim::SweepEvaluator eval = [&](const sim::EvalContext& ctx) {
    const double l = inner(ctx);
    op.lambdas.push_back(l);
    return l;
  };
  sim::SweepOptions so;
  so.num_threads = 1;
  so.seed0 = seed;
  const auto t0 = Clock::now();
  const sim::SweepResult r =
      sim::run_sweep(strong_params(w.sizes.front()), w.sizes, w.trials, eval,
                     so);
  op.seconds = seconds_since(t0);
  for (std::size_t c = 0; c < op.lambdas.size(); ++c)
    add_double(op.fields,
               "lambda_n" + std::to_string(w.sizes[c / w.trials]) + "_t" +
                   std::to_string(c % w.trials),
               op.lambdas[c]);
  add_double(op.fields, "exponent", r.fit_valid ? r.fit.exponent : 0.0);
  return op;
}

sim::FlowSimOptions fluid_flow_options(const WorkloadSpec& w,
                                       std::uint64_t cell_seed,
                                       sim::FlowScheme scheme) {
  // What measure_instance sets for the strong regime under the protocol
  // model: squarelet grouping, no derate (survival ratio 1).
  sim::FlowSimOptions o;
  o.scheme = scheme;
  o.slots = w.slots;
  o.warmup = w.warmup;
  o.grouping = routing::BsGrouping::kSquarelet;
  o.seed = cell_seed;
  o.bandwidth_share = 1.0;
  return o;
}

struct FluidReplay {
  std::vector<double> lambdas;  // per cell, measure_instance's composition
  std::uint64_t rows = 0;
  std::uint64_t incid_nnz = 0;
  sim::Metrics metrics;
  double cell_wall_s = 0.0;  // sum of the measure_instance-equivalent spans
};

/// Per cell: the calls measure_instance makes (build, traffic draw, one
/// run_flow_sim per scheme), then standalone evaluator calls given a
/// RateStructure, so evaluation can be split from allocation.
FluidReplay replay_fluid(const WorkloadSpec& w, std::uint64_t seed,
                         SpanRecorder& rec) {
  FluidReplay out;
  const std::size_t mark = rec.mark();
  for (std::size_t si = 0; si < w.sizes.size(); ++si) {
    for (std::size_t t = 0; t < w.trials; ++t) {
      const std::uint64_t cs = sim::trial_seed(seed, si, t);
      std::optional<Instance> inst;
      double lambda = 0.0;
      {
        ScopedSpan cell(rec, "fluid.cell");
        inst.emplace(make_instance(w.sizes[si], cs, rec));
        const auto rate = [&](sim::FlowScheme s, const char* span) {
          auto o = fluid_flow_options(w, cs, s);
          o.metrics = &out.metrics;
          ScopedSpan f(rec, span);
          auto r = sim::run_flow_sim(inst->net, inst->dest, o);
          if (s == sim::FlowScheme::kSchemeA && r.degenerate) {
            o.scheme = sim::FlowScheme::kTwoHop;
            r = sim::run_flow_sim(inst->net, inst->dest, o);
          }
          return r.mean_flow_rate;
        };
        lambda = rate(sim::FlowScheme::kSchemeA, "sim.flow_a") +
                 rate(sim::FlowScheme::kSchemeB, "sim.flow_b");
      }
      out.lambdas.push_back(lambda);

      ScopedSpan standalone(rec, "fluid.standalone");
      {
        ScopedSpan s(rec, "mobility.shape");
        mobility::Shape shape(mobility::ShapeKind::kUniformDisk);
      }
      routing::RateStructure ra, rb;
      {
        ScopedSpan s(rec, "routing.scheme_a");
        routing::SchemeA().evaluate(inst->net, inst->dest, nullptr, 1.0, &ra);
      }
      {
        ScopedSpan s(rec, "routing.scheme_b");
        routing::SchemeB(routing::BsGrouping::kSquarelet)
            .evaluate(inst->net, inst->dest, nullptr, 1.0, &rb);
      }
      out.rows += ra.constraints.size() + rb.constraints.size();
      out.incid_nnz += ra.incid_cid.size() + rb.incid_cid.size();
    }
  }
  out.cell_wall_s = total_seconds(rec.spans(), "fluid.cell", mark, rec.mark());
  return out;
}

void run_fluid(const RunRequest& req, const WorkloadSpec& w, Report& rep,
               SpanRecorder& rec) {
  const Window window(req.seconds);
  OutputCheck out(req);
  auto sweep_op = [&](SweepOp& op) {
    return guarded([&] {
      op = run_sweep_op(w, req.seed);
      const std::string e = out.check(op.fields);
      return e.empty() ? e : "run_sweep output: " + e;
    });
  };

  if (!req.trace) {
    HostProbe probe;  // its helper builds the chain during the next step
    // bytes/MS of the top-size cell, measured first; it also warms the
    // allocator and caches before the timed sweeps.
    const std::size_t top = w.sizes.size() - 1;
    const std::uint64_t cs = sim::trial_seed(req.seed, top, 0);
    SpanRecorder off(false);
    const Instance inst = make_instance(w.sizes[top], cs, off);
    std::uint64_t bytes = 0;
    for (auto s : {sim::FlowScheme::kSchemeA, sim::FlowScheme::kSchemeB})
      bytes = std::max(bytes, sim::run_flow_sim(inst.net, inst.dest,
                                                fluid_flow_options(w, cs, s))
                                  .state_bytes);
    ScaledTimes times(probe);
    double last_s = 0.0;
    for (std::size_t ops = 0; ops < kMinTimedOps || window.room_for(last_s);
         ++ops) {
      SweepOp op;
      const std::string e = sweep_op(op);
      rep.operation(e);
      last_s = times.add(op.seconds, e.empty());
    }
    // The flow-engine slot horizon one sweep covers.
    times.report(rep, static_cast<double>(w.sizes.size() * w.trials * 2 *
                                          w.slots));
    rep.metric("bytes_per_ms", "B/MS",
               static_cast<double>(bytes) /
                   static_cast<double>(w.sizes[top]));
    return;
  }

  std::vector<double> sweep_s, overhead;
  std::map<std::string, std::vector<double>> self_s;
  FluidReplay last;
  double round_s = 0.0;
  for (std::size_t round = 0; round < 1 || window.room_for(round_s);
       ++round) {
    const auto round_start = Clock::now();
    SweepOp op;
    const std::string e = sweep_op(op);
    rep.operation(e);
    if (!e.empty()) {
      round_s = seconds_since(round_start);
      continue;
    }
    sweep_s.push_back(op.seconds);

    const std::size_t mark = rec.mark();
    last = replay_fluid(w, req.seed, rec);
    // Same round, same cells: the traced calls against the untraced sweep.
    overhead.push_back(last.cell_wall_s / op.seconds);
    const auto self = self_seconds_by_name(rec.spans(), mark, rec.mark());
    for (const char* name :
         {"net.build", "mobility.shape", "routing.scheme_a",
          "routing.scheme_b"})
      self_s[name].push_back(self.count(name) ? self.at(name) : 0.0);
    const double flow = total_seconds(rec.spans(), "sim.flow_a", mark,
                                      rec.mark()) +
                        total_seconds(rec.spans(), "sim.flow_b", mark,
                                      rec.mark());
    self_s["sim.flow_alloc"].push_back(
        flow - self_s["routing.scheme_a"].back() -
        self_s["routing.scheme_b"].back());

    // Replay fidelity: every cell's λ must equal the sweep's, bit for bit.
    if (last.lambdas.size() != op.lambdas.size() ||
        !std::equal(last.lambdas.begin(), last.lambdas.end(),
                    op.lambdas.begin(), [](double a, double b) {
                      return bits_of(a) == bits_of(b);
                    }))
      rep.fail("replay fidelity: replayed cell rates differ from the sweep");
    round_s = seconds_since(round_start);
  }

  if (sweep_s.empty()) return;  // every round failed; run.py reports the gaps

  const auto& m = last.metrics;
  const auto count = [&](sim::Counter c) {
    return static_cast<double>(m.count(c));
  };
  const double stall = count(sim::Counter::kWiredCreditStall);
  const double fwd = count(sim::Counter::kWiredForwarded);
  for (const char* zero :
       {"sched.lone_scan_s", "sched.extract_s", "geom.hash_move_s",
        "mobility.step_s", "sim.slot_rest_s"})
    rep.metric(zero, "s", 0.0);
  rep.metric("sched.candidate_pairs", "count", 0.0);
  rep.metric("sched.feasible_pairs", "count", 0.0);
  rep.metric("sched.feasible_ratio", "ratio", 0.0);
  rep.metric("geom.cross_ratio", "ratio", 0.0);
  rep.metric("sim.delivered", "count", count(sim::Counter::kDelivered));
  rep.metric("sim.relayed", "count", count(sim::Counter::kRelayed));
  rep.metric("sim.wired_forwarded", "count", fwd);
  rep.metric("sim.wired_credit_stall", "count", stall);
  rep.metric("sim.wired_stall_ratio", "ratio",
             stall + fwd == 0.0 ? 0.0 : stall / (stall + fwd));
  rep.metric("net.build_s", "s", self_s["net.build"]);
  rep.metric("mobility.shape_s", "s", self_s["mobility.shape"]);
  rep.metric("routing.scheme_a_s", "s", self_s["routing.scheme_a"]);
  rep.metric("routing.scheme_b_s", "s", self_s["routing.scheme_b"]);
  rep.metric("routing.rows", "count", static_cast<double>(last.rows));
  rep.metric("routing.incid_nnz", "count",
             static_cast<double>(last.incid_nnz));
  rep.metric("sim.flow_alloc_s", "s", self_s["sim.flow_alloc"]);
  rep.metric("trace.overhead_ratio", "ratio", overhead);
  rep.manifest_entry("op_seconds", json_numbers(sweep_s));
}

std::string json_sizes(const std::vector<std::size_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + std::to_string(v[i]);
  return s + "]";
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> v(3);
    v[0].name = "slots-b-large";
    v[0].kind = Kind::kSlots;
    v[0].n = 100000;
    v[0].slots = 40;
    v[0].warmup = 4;
    v[1].name = "slots-b-steady";
    v[1].kind = Kind::kSlots;
    v[1].n = 5000;
    // 1500 slots: queues fill and deliver, and the wired-credit table
    // stays below a capacity doubling it straddles near 2000 slots (there
    // bytes/MS reads 615.6 or 1035.0 depending on the seed).
    v[1].slots = 1500;
    v[1].warmup = 150;
    v[2].name = "fluid-strong";
    v[2].kind = Kind::kFluid;
    v[2].slots = 2000;  // EngineOptions defaults
    v[2].warmup = 200;
    v[2].sizes = sim::geometric_sizes(50000 / 16, 2.0, 5);
    v[2].trials = 2;
    v[2].n = v[2].sizes.back();
    return v;
  }();
  return all;
}

/// Throws std::runtime_error naming the valid workloads when unknown.
const WorkloadSpec& find_workload(const std::string& name) {
  std::string known;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::runtime_error("unknown workload '" + name + "' (known: " +
                           known + ")");
}

}  // namespace

Report run_workload(const RunRequest& req) {
  const WorkloadSpec& w = find_workload(req.workload);
  Report rep;
  SpanRecorder rec(req.trace);
  const auto t0 = Clock::now();
  const double calib_start = calibration_ms();
  if (w.kind == Kind::kSlots)
    run_slots(req, w, rep, rec);
  else
    run_fluid(req, w, rep, rec);
  const double calib_end = calibration_ms();
  if (!req.trace) rep.metric("peak_rss_mb", "MB", peak_rss_mb());

  rep.manifest_entry("workload", json_string(w.name));
  rep.manifest_entry("seed", std::to_string(req.seed));
  rep.manifest_entry("trace", req.trace ? "true" : "false");
  rep.manifest_entry("threads", "1");
  rep.manifest_entry("shards", "1");
  rep.manifest_entry("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
  rep.manifest_entry("compiler", json_string(PERFBENCH_COMPILER));
  rep.manifest_entry("build_type", json_string(PERFBENCH_BUILD_TYPE));
  rep.manifest_entry("git_describe", json_string(req.git_describe));
  rep.manifest_entry("horizon_slots", std::to_string(w.slots));
  rep.manifest_entry("warmup_slots", std::to_string(w.warmup));
  rep.manifest_entry("sizes", w.kind == Kind::kSlots
                                  ? json_sizes({w.n})
                                  : json_sizes(w.sizes));
  if (w.kind == Kind::kFluid)
    rep.manifest_entry("trials", std::to_string(w.trials));
  rep.manifest_entry("reference",
                     json_string(OutputCheck(req).committed() ? "committed"
                                                              : "absent"));
  rep.manifest_entry("calibration_start_ms", json_number(calib_start));
  rep.manifest_entry("calibration_end_ms", json_number(calib_end));
  rep.manifest_entry("run_wall_s", json_number(seconds_since(t0)));
  if (req.trace) {
    rep.manifest_entry("spans", std::to_string(rec.spans().size()));
    if (!req.spans_out.empty()) {
      std::ofstream f(req.spans_out);
      rec.write_tsv(f);
      if (!f) rep.fail("cannot write spans to " + req.spans_out);
    }
  }
  return rep;
}

double setup_seconds(const std::string& workload, std::uint64_t seed,
                     std::string& error) {
  const WorkloadSpec& w = find_workload(workload);
  // Fluid: the sweep's top-size cell (trial 0), the largest build a
  // fluid-strong run pays.
  const std::uint64_t s =
      w.kind == Kind::kSlots ? seed
                             : sim::trial_seed(seed, w.sizes.size() - 1, 0);
  SpanRecorder off(false);
  const auto t0 = Clock::now();
  const Instance inst = make_instance(w.n, s, off);
  const double secs = seconds_since(t0);
  error = instance_error(inst, w.n);
  return secs;
}

std::string reference_line(const std::string& workload, std::uint64_t seed) {
  const WorkloadSpec& w = find_workload(workload);
  Fields f;
  if (w.kind == Kind::kSlots) {
    SpanRecorder off(false);
    const Instance inst = make_instance(w.n, seed, off);
    f = slot_fields(run_slot_op(inst, w, seed).res);
  } else {
    f = run_sweep_op(w, seed).fields;
  }
  return std::to_string(seed) + " " + format_fields(f);
}

}  // namespace perfbench
