// txcperf — the `txq` workload: 3 pinned threads share one transactional
// Michael–Scott queue and one transactional Treiber stack on TL2 +
// Grace(RRW) (requestor wins, the paper's Theorem 5).  Each thread cycles
// enqueue / dequeue / push / pop; every call allocates or frees a TxPool
// block and touches a hot head or tail cell.  Both structures hold 2,048
// resident values, so no dequeue or pop finds its structure empty, and each
// pool has room for 8,192 nodes, so freed nodes still in their reclamation
// grace do not exhaust it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ds/tx_queue.hpp"
#include "ds/tx_stack.hpp"
#include "mem/tx_pool.hpp"
#include "sim/rng.hpp"
#include "stm/tl2.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kThreads = 3;
constexpr std::size_t kResident = 2048;
constexpr std::size_t kPoolCapacity = 8192;
constexpr std::size_t kStreamLen = std::size_t{1} << 16;  // values per thread
constexpr std::size_t kInstances = 20;  // fresh structures per untraced run
constexpr double kWarmupS = 0.2;
constexpr std::uint64_t kMaxRefusals = 1000000;

enum OpType : std::size_t { kEnqueue, kDequeue, kPush, kPop, kOpTypes };
constexpr const char* kOpNames[kOpTypes] = {"enqueue", "dequeue", "push",
                                            "pop"};
constexpr SpanName kOpSpans[kOpTypes] = {SpanName::kDsEnqueue,
                                         SpanName::kDsDequeue,
                                         SpanName::kDsPush, SpanName::kDsPop};

using Queue = txc::ds::TxMichaelScottQueue<txc::stm::Stm>;
using Stack = txc::ds::TxTreiberStack<txc::stm::Stm>;

/// The substrate and the two structures, destroyed in reverse order (the
/// structures' regions stay registered for the substrate's lifetime).
struct Structures {
  txc::stm::Stm stm;
  Queue queue;
  Stack stack;

  explicit Structures(
      std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter)
      : stm(std::move(arbiter)),
        queue(stm, kPoolCapacity),
        stack(stm, kPoolCapacity) {}
};

/// Seeded inputs: the resident values loaded at set-up and each thread's
/// value stream.
struct TxqInputs {
  std::vector<std::uint64_t> resident_queue, resident_stack;
  std::vector<std::vector<std::uint64_t>> streams;
};

TxqInputs generate(std::uint64_t seed) {
  TxqInputs inputs;
  txc::sim::Rng rng{seed * 0x9E3779B97F4A7C15ULL + 0x747871};
  inputs.resident_queue.resize(kResident);
  inputs.resident_stack.resize(kResident);
  for (auto& value : inputs.resident_queue) value = rng();
  for (auto& value : inputs.resident_stack) value = rng();
  inputs.streams.assign(kThreads, std::vector<std::uint64_t>(kStreamLen));
  for (auto& stream : inputs.streams) {
    for (auto& value : stream) value = rng();
  }
  return inputs;
}

/// Values in and out, kept per thread; conservation is checked on the sums.
struct Ledger {
  std::uint64_t count = 0, sum = 0, xor_all = 0;
  void add(std::uint64_t value) noexcept {
    ++count;
    sum += value;
    xor_all ^= value;
  }
  void merge(const Ledger& other) noexcept {
    count += other.count;
    sum += other.sum;
    xor_all ^= other.xor_all;
  }
};

struct PoolSnapshot {
  double allocs = 0, abort_recycles = 0, frees = 0, reclaimed = 0,
         exhaustion = 0, epoch_advances = 0;

  static PoolSnapshot capture(const txc::mem::TxPool& a,
                              const txc::mem::TxPool& b) {
    const auto load = [](const std::atomic<std::uint64_t>& x,
                         const std::atomic<std::uint64_t>& y) {
      return static_cast<double>(x.load(std::memory_order_relaxed) +
                                 y.load(std::memory_order_relaxed));
    };
    const auto& sa = a.stats();
    const auto& sb = b.stats();
    return PoolSnapshot{load(sa.allocs, sb.allocs),
                        load(sa.abort_recycles, sb.abort_recycles),
                        load(sa.frees, sb.frees),
                        load(sa.reclaimed, sb.reclaimed),
                        load(sa.exhaustion_failures, sb.exhaustion_failures),
                        load(sa.epoch_advances, sb.epoch_advances)};
  }
  PoolSnapshot operator-(const PoolSnapshot& e) const {
    return PoolSnapshot{allocs - e.allocs,
                        abort_recycles - e.abort_recycles,
                        frees - e.frees,
                        reclaimed - e.reclaimed,
                        exhaustion - e.exhaustion,
                        epoch_advances - e.epoch_advances};
  }
};

struct Snapshot {
  StmSnapshot stm;
  PoolSnapshot pool;
  CounterSnapshot trace{};
};

/// One worker's results, written by the worker only.
struct alignas(64) Worker {
  Histogram latency;
  std::uint64_t completed = 0;
  std::vector<Histogram> by_type;  // per op type, traced
  Ledger in, out;
  std::uint64_t failed_timed = 0;  // operations failed after kMaxRefusals
  std::uint64_t refusals = 0;       // pool refusals, each one called again
  std::uint64_t longest_streak = 0;  // most refusals before one insert
  std::uint64_t loop_ticks = 0, op_ticks = 0, ops = 0;  // traced only
};

/// What the instances of one measurement produced.  Counter deltas and
/// per-type histograms are those of the last instance (traced measurements
/// run one).
struct TxqMeasurement {
  std::vector<InstanceResult> instances;
  std::vector<Histogram> by_type;
  std::uint64_t attempted = 0, failed = 0;
  Snapshot delta;
  double limbo_depth = 0;
  double gen_ticks = 0, gen_ops = 0;
  std::uint64_t refusals = 0;  // pool refusals over the whole measurement
  std::uint64_t longest_streak = 0;
};

class TxqBench {
 public:
  TxqBench(const TxqInputs& inputs, std::uint64_t seed,
           const Placement& placement, TickClock& clock, Report& report)
      : inputs_(inputs),
        seed_(seed),
        placement_(placement),
        clock_(clock),
        report_(report) {}

  /// Measure `instances` fresh substrates and structures in turn, `seconds`
  /// of timed window in all: each is set up (timed), warmed up, measured,
  /// drained and checked, then torn down before the next one is built.
  TxqMeasurement measure(double seconds, std::size_t instances,
                         double warmup_s, Tracer* tracer) {
    TxqMeasurement result;
    std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter =
        grace_arbiter(txc::core::StrategyKind::kRandWins,
                      /*requestor_aborts=*/false);
    if (tracer != nullptr) {
      arbiter = std::make_shared<TracingArbiter>(std::move(arbiter), *tracer);
    }
    for (std::size_t i = 0; i < instances; ++i) {
      txc::core::AttemptProfile profile;
      InstanceResult instance;
      Ledger loaded;
      const auto begin = std::chrono::steady_clock::now();
      const Placed<Structures> s{layout_draw(seed_, i), arbiter};
      for (const std::uint64_t value : inputs_.resident_queue) {
        if (!s->queue.enqueue(value)) report_.fail("txq set-up: queue full");
        loaded.add(value);
      }
      for (const std::uint64_t value : inputs_.resident_stack) {
        if (!s->stack.push(value)) report_.fail("txq set-up: stack full");
        loaded.add(value);
      }
      instance.setup_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
      if (tracer != nullptr) s->stm.attach_profile(&profile);
      const double timed_s = seconds / static_cast<double>(instances);
      run(*s, warmup_s, timed_s, tracer,
          tracer != nullptr ? &profile : nullptr, instance, result);
      check(*s, loaded);
      result.instances.push_back(instance);
    }
    return result;
  }

 private:
  Snapshot capture(Structures& s, const txc::core::AttemptProfile* profile,
                   const Tracer* tracer) {
    Snapshot snap;
    snap.stm = StmSnapshot::capture(s.stm.stats(), profile);
    snap.pool = PoolSnapshot::capture(s.queue.pool(), s.stack.pool());
    if (tracer != nullptr) snap.trace = tracer->totals();
    return snap;
  }

  /// One structure call, timed when it ends in the timed window; recorded as a
  /// span when `sampled`.
  template <typename Call>
  void timed_op(Worker& worker, const WindowPlan& plan, OpType type,
                ThreadTrace* trace, bool sampled, Call&& call) {
    const std::uint64_t span = sampled ? trace->new_id() : 0;
    current_span() = span;
    const std::uint64_t start = ticks();
    const bool ok = call();
    const std::uint64_t end = ticks();
    current_span() = 0;
    if (plan.timed(end)) {
      worker.latency.record(end - start);
      ++worker.completed;
      if (!ok) ++worker.failed_timed;
      if (trace != nullptr) {
        worker.by_type[type].record(end - start);
        worker.op_ticks += end - start;
        ++worker.ops;
      }
    }
    if (span != 0) trace->record(Span{span, 0, start, end, kOpSpans[type]});
  }

  /// Insert `value` with `insert`, calling again while the pool refuses (a
  /// refusal is transient: freed nodes return once their reclamation grace
  /// has passed).  The operation fails only after kMaxRefusals refusals in
  /// a row.
  template <typename Insert>
  bool insist(Worker& worker, Insert&& insert, std::uint64_t value) {
    for (std::uint64_t refusals = 0; refusals < kMaxRefusals; ++refusals) {
      if (insert()) {
        worker.in.add(value);
        worker.longest_streak = std::max(worker.longest_streak, refusals);
        return true;
      }
      ++worker.refusals;
    }
    worker.longest_streak = kMaxRefusals;
    return false;
  }

  /// One thread's closed loop of enqueue / dequeue / push / pop until the
  /// plan ends.  When `at_warmup_end` is given, the thread also captures the
  /// layer counters when the warm-up ends.
  void work(Structures& s, std::size_t index, const WindowPlan& plan,
            Tracer* tracer, Worker& worker, Snapshot* at_warmup_end,
            const txc::core::AttemptProfile* profile) {
    ThreadTrace* trace = tracer != nullptr ? &tracer->local() : nullptr;
    const std::vector<std::uint64_t>& stream = inputs_.streams[index];
    std::uint64_t cycles = 0;
    std::size_t next = 0;
    bool warm = false;
    while (true) {
      const std::uint64_t cycle_start = ticks();
      if (cycle_start >= plan.end) break;
      if (!warm && cycle_start >= plan.warmup_end) {
        if (at_warmup_end != nullptr) {
          *at_warmup_end = capture(s, profile, tracer);
        }
        warm = true;
      }
      const std::uint64_t a = stream[next];
      const std::uint64_t b = stream[next + 1];
      next = (next + 2) & (kStreamLen - 1);
      // One cycle in kSampleEvery is traced, all four of its calls.
      const bool sampled =
          trace != nullptr && cycles++ % Tracer::kSampleEvery == 0;
      timed_op(worker, plan, kEnqueue, trace, sampled, [&] {
        return insist(worker, [&] { return s.queue.enqueue(a); }, a);
      });
      timed_op(worker, plan, kDequeue, trace, sampled, [&] {
        const std::optional<std::uint64_t> value = s.queue.dequeue();
        if (value) worker.out.add(*value);
        return true;  // an empty dequeue is an answer, not a failure
      });
      timed_op(worker, plan, kPush, trace, sampled, [&] {
        return insist(worker, [&] { return s.stack.push(b); }, b);
      });
      timed_op(worker, plan, kPop, trace, sampled, [&] {
        const std::optional<std::uint64_t> value = s.stack.pop();
        if (value) worker.out.add(*value);
        return true;
      });
      if (trace != nullptr && warm) worker.loop_ticks += ticks() - cycle_start;
    }
  }

  /// One instance: three pinned threads (this one and two spawned) run the
  /// loop for the warm-up and the timed window.
  void run(Structures& s, double warmup_s, double timed_s, Tracer* tracer,
           const txc::core::AttemptProfile* profile, InstanceResult& instance,
           TxqMeasurement& result) {
    std::vector<Worker> workers(kThreads);
    if (tracer != nullptr) {
      for (Worker& worker : workers) worker.by_type.resize(kOpTypes);
    }
    // Thread 0 is this (already pinned) thread; the others pin themselves
    // and wait until the plan is fixed.
    std::atomic<std::size_t> ready{0};
    std::atomic<const WindowPlan*> published{nullptr};
    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        pin_current_thread(placement_.cpus[t]);
        ready.fetch_add(1);
        const WindowPlan* plan = nullptr;
        while ((plan = published.load(std::memory_order_acquire)) == nullptr) {
        }
        work(s, t, *plan, tracer, workers[t], nullptr, profile);
      });
    }
    while (ready.load() != kThreads - 1) {
    }
    const WindowPlan plan{ticks(), clock_.estimate(), warmup_s, timed_s};
    published.store(&plan, std::memory_order_release);
    Snapshot at_warmup_end;
    work(s, 0, plan, tracer, workers[0], &at_warmup_end, profile);
    for (std::thread& thread : threads) thread.join();
    const Snapshot at_end = capture(s, profile, tracer);

    const double cycles_per_us = clock_.cycles_per_us();
    Histogram latency;
    std::uint64_t completed = 0;
    result.by_type.assign(kOpTypes, Histogram{});
    result.gen_ticks = 0;
    result.gen_ops = 0;
    for (Worker& worker : workers) {
      latency.merge(worker.latency);
      completed += worker.completed;
      result.failed += worker.failed_timed;
      result.refusals += worker.refusals;
      result.longest_streak =
          std::max(result.longest_streak, worker.longest_streak);
      in_.merge(worker.in);
      out_.merge(worker.out);
      if (tracer != nullptr) {
        for (std::size_t type = 0; type < kOpTypes; ++type) {
          result.by_type[type].merge(worker.by_type[type]);
        }
        result.gen_ticks +=
            static_cast<double>(worker.loop_ticks - worker.op_ticks);
        result.gen_ops += static_cast<double>(worker.ops);
      }
    }
    instance.ops_per_s = static_cast<double>(completed) /
                         (plan.timed_us(cycles_per_us) * 1e-6);
    instance.p50_us = latency.quantile(0.50) / cycles_per_us;
    instance.p99_us = latency.quantile(0.99) / cycles_per_us;
    result.attempted += completed;
    result.delta.stm = at_end.stm - at_warmup_end.stm;
    result.delta.pool = at_end.pool - at_warmup_end.pool;
    result.delta.trace = at_end.trace - at_warmup_end.trace;
    result.limbo_depth = at_end.pool.frees - at_end.pool.reclaimed;
  }

  /// Drain both structures and check that every value put in came out
  /// exactly once: equal counts, sums and xors.
  void check(Structures& s, const Ledger& loaded) {
    Ledger in = loaded;
    in.merge(in_);
    Ledger out = out_;
    while (const auto value = s.queue.dequeue()) out.add(*value);
    while (const auto value = s.stack.pop()) out.add(*value);
    if (in.count != out.count || in.sum != out.sum ||
        in.xor_all != out.xor_all) {
      report_.fail("txq: values taken out differ from values put in");
    }
    in_ = Ledger{};
    out_ = Ledger{};
  }

  const TxqInputs& inputs_;
  std::uint64_t seed_;
  const Placement& placement_;
  TickClock& clock_;
  Report& report_;
  Ledger in_, out_;
};

}  // namespace

Report run_txq(const Options& options) {
  Report report;
  std::printf(
      "workload txq: TL2 + Grace(RRW), 3 threads cycling enqueue / dequeue / "
      "push / pop on one TxMichaelScottQueue and one TxTreiberStack, %zu "
      "resident values each, pool capacity %zu nodes each\n",
      kResident, kPoolCapacity);
  const Placement placement = plan_placement(kThreads);
  pin_current_thread(placement.cpus[0]);
  TickClock clock;
  const TxqInputs inputs = generate(options.seed);
  TxqBench bench{inputs, options.seed, placement, clock, report};

  std::printf("  placement: txq threads on cpus %s%s\n",
              placement.describe().c_str(),
              placement.shared ? " (fewer CPUs than threads: shared)" : "");
  if (!options.trace) {
    const TxqMeasurement m =
        bench.measure(options.seconds, kInstances, kWarmupS, nullptr);
    report.attempted = m.attempted;
    report.failed = m.failed;
    report_end_to_end(report, m.instances);
    note("pool refusals", static_cast<double>(m.refusals), "count",
         "(each insert is called again until the pool accepts it)");
    note("longest refusal streak", static_cast<double>(m.longest_streak),
         "count");
    return report;
  }

  const double half = options.seconds / 2.0;
  const TxqMeasurement plain = bench.measure(half, 1, kWarmupS, nullptr);
  Tracer tracer;
  const TxqMeasurement m = bench.measure(half, 1, kWarmupS, &tracer);
  report.attempted = m.attempted;
  report.failed = m.failed;
  const double cycles_per_us = clock.cycles_per_us();
  const Snapshot& d = m.delta;
  const auto ops = static_cast<double>(m.attempted);

  report_stm_layer(report, d.stm, ops);
  report_conflict_layer(report, d.trace, d.stm.commits, cycles_per_us);

  report.show("mem.recycle_frac", ratio(d.pool.abort_recycles, d.pool.allocs),
              "ratio",
              ratio_detail("abort recycles", d.pool.abort_recycles, "allocs",
                           d.pool.allocs));
  const double alloc_attempts = d.pool.allocs + d.pool.exhaustion;
  report.show("mem.exhaustion_frac", ratio(d.pool.exhaustion, alloc_attempts),
              "ratio",
              ratio_detail("refused", d.pool.exhaustion, "alloc attempts",
                           alloc_attempts));
  report.show("mem.limbo_depth", m.limbo_depth, "blocks",
              "(frees - reclaimed)");
  const double advances_per_kop = ratio(d.pool.epoch_advances, ops) * 1000.0;
  report.show("mem.epoch_advances_per_kop", advances_per_kop, "1/kop",
              ratio_detail("epoch advances", d.pool.epoch_advances, "ops",
                           ops));

  for (std::size_t type = 0; type < kOpTypes; ++type) {
    const Histogram& h = m.by_type[type];
    const std::string base = std::string("ds.") + kOpNames[type];
    const std::string detail =
        "(n " + std::to_string(h.count()) + ")";
    report.show(base + "_p50_us", h.quantile(0.50) / cycles_per_us, "us",
                detail);
    report.show(base + "_p99_us", h.quantile(0.99) / cycles_per_us, "us",
                detail);
  }

  const double gen_ns = ratio(m.gen_ticks, m.gen_ops) * 1000.0 / cycles_per_us;
  report.show("bench.gen_ns_per_op", gen_ns, "ns",
              ratio_detail("loop ticks outside calls", m.gen_ticks, "ops",
                           m.gen_ops));
  report_trace(report, tracer, m.instances.front().ops_per_s,
               plain.instances.front().ops_per_s, options, cycles_per_us);
  return report;
}

}  // namespace perfbench
