// txcperf — shared machinery of the repository benchmark: clocks, the
// client-side latency histogram, thread placement, the measurement window
// plan, tracing (span logs, per-thread counters, the timing arbiter
// decorator) and the result report.
//
// The benchmark drives the library only through its public API; everything
// here belongs to the benchmark, so the library is measured exactly as a
// user would run it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "conflict/arbiter.hpp"
#include "core/policy.hpp"
#include "core/profiler.hpp"
#include "stm/tl2.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------------

/// Raw timestamp-counter tick (the library's own attempt clock).
[[nodiscard]] inline std::uint64_t ticks() noexcept {
  return txc::core::cycle_now();
}

/// Ticks-per-microsecond measured against steady_clock from construction
/// (at start-up) to each cycles_per_us() call (at report time).  A run of
/// several seconds pins the rate to well under 0.01%.
class TickClock {
 public:
  TickClock();
  /// Rough rate from a short busy wait; used only to place window ends.
  [[nodiscard]] double estimate() const noexcept { return estimate_; }
  /// Rate over the span from construction until now.
  [[nodiscard]] double cycles_per_us() const;

 private:
  std::uint64_t tick0_ = 0;
  std::chrono::steady_clock::time_point wall0_;
  double estimate_ = 0.0;
};

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Single-writer log-linear histogram of tick counts: 128 linear
/// sub-buckets per octave (under 0.8% bucket width), quantiles interpolated
/// inside the bucket.  One instance per thread; merged after the threads
/// joined.  The library's core::LatencyHistogram is the service's own
/// instrument (atomic, about 3% buckets); the client side is measured with
/// code that is not under test.
class Histogram {
 public:
  static constexpr std::size_t kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  Histogram() : buckets_(kBuckets, 0) {}

  void record(std::uint64_t value) noexcept {
    ++buckets_[index(value)];
    ++count_;
  }
  void merge(const Histogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Value at quantile q in [0, 1] (ticks); 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  [[nodiscard]] static std::size_t index(std::uint64_t value) noexcept {
    if (value < kSub) return static_cast<std::size_t>(value);
    const auto width = static_cast<std::size_t>(64 - __builtin_clzll(value));
    const std::size_t octave = width - kSubBits;
    const auto sub =
        static_cast<std::size_t>((value >> (octave - 1)) & (kSub - 1));
    return octave * kSub + sub;
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Thread placement
// ---------------------------------------------------------------------------

/// The CPUs the benchmark's threads run on: the process's allowed CPUs
/// minus the lowest one (it takes the virtio interrupts), one CPU per
/// thread.  With fewer allowed CPUs than threads the list wraps and
/// `shared` is set.
struct Placement {
  std::vector<int> cpus;  // cpus[i]: the CPU of benchmark thread i
  bool shared = false;
  std::string describe() const;
};
[[nodiscard]] Placement plan_placement(std::size_t threads);

/// Pin the calling thread to `cpu`.  Throws on failure.
void pin_current_thread(int cpu);
/// Pin thread `tid` (a Linux task id of this process) to `cpu`.
void pin_task(int tid, int cpu);
/// Task ids of this process's threads, ascending.
[[nodiscard]] std::vector<int> task_ids();

/// Restrict the calling thread to `cpus` for the scope's lifetime, so that
/// threads spawned meanwhile are born confined to them; the previous mask
/// is restored on destruction.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(const std::vector<int>& cpus);
  ~ScopedAffinity();
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

 private:
  alignas(8) unsigned char saved_[128] = {};
};

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// One workload instance's top-level object, built at a seeded random
/// cache-line offset inside 64 KiB of fresh memory.  Which cache lines (and
/// lock stripes) an instance's hottest words land on changes its speed by
/// several percent; varying the placement from instance to instance lets
/// the median over instances average that out instead of fixing one
/// arbitrary layout per process.
template <typename T>
class Placed {
 public:
  static constexpr std::size_t kSpan = std::size_t{64} << 10;
  static_assert(alignof(T) <= 64);

  template <typename... Args>
  explicit Placed(std::uint64_t layout, Args&&... args)
      : memory_(std::aligned_alloc(4096, kSpan + round_up(sizeof(T)))) {
    if (memory_ == nullptr) throw std::bad_alloc();
    const std::size_t offset = (layout % (kSpan / 64)) * 64;
    try {
      object_ = new (static_cast<char*>(memory_) + offset)
          T(std::forward<Args>(args)...);
    } catch (...) {
      std::free(memory_);
      throw;
    }
  }
  ~Placed() {
    object_->~T();
    std::free(memory_);
  }
  Placed(const Placed&) = delete;
  Placed& operator=(const Placed&) = delete;

  T& operator*() const noexcept { return *object_; }
  T* operator->() const noexcept { return object_; }

 private:
  static std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + 4095) / 4096 * 4096;
  }
  void* memory_;
  T* object_ = nullptr;
};

/// The layout draw of instance `instance` of a run seeded with `seed`.
[[nodiscard]] std::uint64_t layout_draw(std::uint64_t seed,
                                        std::size_t instance);

// ---------------------------------------------------------------------------
// Measurement windows
// ---------------------------------------------------------------------------

/// Tick boundaries of one instance's measurement: an untimed warm-up, then
/// the timed window.
struct WindowPlan {
  std::uint64_t warmup_end = 0;
  std::uint64_t end = 0;

  WindowPlan(std::uint64_t start, double cycles_per_us, double warmup_s,
             double timed_s);
  [[nodiscard]] bool timed(std::uint64_t now) const noexcept {
    return now >= warmup_end && now < end;
  }
  [[nodiscard]] double timed_us(double cycles_per_us) const noexcept {
    return static_cast<double>(end - warmup_end) / cycles_per_us;
  }
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Span names recorded by the benchmark, one per layer boundary it wraps.
enum class SpanName : std::uint32_t {
  kKvRequest,  // client: submit() start until the response slot is seen
  kKvSubmit,   // KvService::submit()
  kDsEnqueue,  // TxMichaelScottQueue::enqueue()
  kDsDequeue,  // TxMichaelScottQueue::dequeue()
  kDsPush,     // TxTreiberStack::push()
  kDsPop,      // TxTreiberStack::pop()
  kDecide,     // ConflictArbiter::decide()
  kCount
};
[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no recorded cause
  std::uint64_t start = 0;   // ticks
  std::uint64_t end = 0;
  SpanName name = SpanName::kCount;
};

/// Per-thread trace counters, summed over threads at window boundaries.
enum Counter : std::size_t {
  kDecideCalls,
  kDecideTicks,
  kVerdictSelf,
  kVerdictEnemy,
  kFeedbackTotal,
  kFeedbackWon,
  kFeedbackWaitedSpins,
  kSubmitCalls,
  kSubmitTicks,
  kGenOps,
  kGenTicks,
  kCounterCount
};

using CounterSnapshot = std::array<std::uint64_t, kCounterCount>;

/// One thread's trace state: counters written only by the owner (relaxed
/// load + store, no read-modify-write) and a preallocated span buffer that
/// stops recording, counting drops, when full.
struct alignas(64) ThreadTrace {
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  std::uint64_t next_id = 0;
  std::uint32_t slot = 0;

  void add(Counter counter, std::uint64_t amount) noexcept {
    auto& cell = counters[counter];
    cell.store(cell.load(std::memory_order_relaxed) + amount,
               std::memory_order_relaxed);
  }
  /// A fresh span id, unique across threads.
  [[nodiscard]] std::uint64_t new_id() noexcept {
    return (static_cast<std::uint64_t>(slot + 1) << 48) | ++next_id;
  }
  void record(const Span& span) noexcept {
    if (spans.size() < spans.capacity()) {
      spans.push_back(span);
    } else {
      ++dropped;
    }
  }
};

/// The trace of one measurement: a fixed set of preallocated per-thread
/// slots.  Threads the benchmark owns bind explicitly; service workers the
/// library spawns bind on their first traced call.
class Tracer {
 public:
  static constexpr std::size_t kMaxThreads = 8;
  /// Spans kept per thread; one request in kSampleEvery is traced.
  static constexpr std::size_t kSpansPerThread = std::size_t{1} << 18;
  static constexpr std::uint64_t kSampleEvery = 128;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's slot, bound on first use.
  [[nodiscard]] ThreadTrace& local();
  [[nodiscard]] CounterSnapshot totals() const noexcept;
  /// Write every recorded span as CSV; returns spans written.
  std::size_t write_csv(const std::string& path, double cycles_per_us) const;
  /// Mean duration and mean self time (duration minus the child spans
  /// recorded on the same thread) per span name, in ns.
  void print_self_times(double cycles_per_us) const;
  [[nodiscard]] std::uint64_t dropped() const noexcept;

 private:
  std::array<ThreadTrace, kMaxThreads> slots_;
  std::atomic<std::uint32_t> bound_{0};
  std::uint64_t generation_;
};

/// Id of the traced operation the calling thread is inside (0: none or
/// unsampled) — the parent recorded on decide() spans.
[[nodiscard]] std::uint64_t& current_span() noexcept;

/// Forwarding ConflictArbiter decorator (shaped like
/// adversary::ArbiterProbe): times every decide() call, counts verdicts,
/// sums what feedback() reports, and records decide() spans.
class TracingArbiter final : public txc::conflict::ConflictArbiter {
 public:
  TracingArbiter(std::shared_ptr<const txc::conflict::ConflictArbiter> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] txc::conflict::Decision decide(
      const txc::conflict::ConflictView& view,
      txc::sim::Rng& rng) const override;
  [[nodiscard]] std::uint64_t wait_quantum(
      const txc::conflict::ConflictView& view) const noexcept override {
    return inner_->wait_quantum(view);
  }
  [[nodiscard]] txc::conflict::GraceGrant grace_grant(
      const txc::conflict::ConflictView& view,
      txc::sim::Rng& rng) const override {
    return inner_->grace_grant(view, rng);
  }
  [[nodiscard]] bool needs_seniority() const noexcept override {
    return inner_->needs_seniority();
  }
  void feedback(const txc::core::ConflictOutcome& outcome) const noexcept
      override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const txc::conflict::ConflictArbiter> inner_;
  Tracer& tracer_;
};

/// Grace(policy) as a ConflictArbiter.  `requestor_aborts` pins the
/// requestor-aborts flavor, which is what the substrates' policy-taking
/// constructors build; without it the policy's own flavor applies
/// (requestor-wins policies kill the holder when the grace expires).
[[nodiscard]] std::shared_ptr<const txc::conflict::ConflictArbiter>
grace_arbiter(txc::core::StrategyKind kind, bool requestor_aborts);

// ---------------------------------------------------------------------------
// Options and report
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;  // empty: spans are not written out
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports.  `metrics` are the machine-read figures (the
/// end-to-end set untraced, the per-layer set traced); `notes` are printed
/// for people only — ratio bases, counts, placement.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// add() and print the metric with `detail` (a ratio's base, a count).
  void show(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
  void fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

/// One instance's end-to-end figures.
struct InstanceResult {
  double setup_s = 0, ops_per_s = 0, p50_us = 0, p99_us = 0;
};
/// Print each instance and add the end-to-end metrics: medians over the
/// instances, and the process's peak resident memory.  Also prints
/// failed_frac from the report's counts.
void report_end_to_end(Report& report,
                       const std::vector<InstanceResult>& instances);
/// The traced run's closing metrics: trace.overhead (traced over untraced
/// ops/s), the spans' self times, and the span file when requested.
void report_trace(Report& report, const Tracer& tracer, double traced_ops,
                  double untraced_ops, const Options& options,
                  double cycles_per_us);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);
/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peak_rss_mb();
/// Printed line "  <name> = <value> <unit>  [<detail>]".
void note(const std::string& name, double value, const std::string& unit,
          const std::string& detail = "");
/// "num / den" detail string for ratio metrics.
[[nodiscard]] std::string ratio_detail(const char* num_name, double num,
                                       const char* den_name, double den);
[[nodiscard]] inline double ratio(double num, double den) noexcept {
  return den == 0.0 ? 0.0 : num / den;
}

// ---------------------------------------------------------------------------
// Layer counters shared by every workload
// ---------------------------------------------------------------------------

/// A substrate's StmStats plus the attached AttemptProfile (sums, not
/// means), captured at a window boundary.  Differences of two snapshots are
/// the counts of the interval between them.
struct StmSnapshot {
  double commits = 0, aborts = 0, lock_waits = 0, remote_kills = 0,
         kill_recoveries = 0, false_conflicts = 0, snapshot_commits = 0,
         snapshot_restarts = 0, snapshot_reads = 0, instrumented_reads = 0;
  double profile_commits = 0, profile_aborts = 0, commit_cycles = 0,
         abort_cycles = 0;

  static StmSnapshot capture(const txc::stm::StmStats& stats,
                             const txc::core::AttemptProfile* profile);
  [[nodiscard]] StmSnapshot operator-(const StmSnapshot& earlier) const;
};

/// Per-layer metrics of the `stm` layer over an interval that completed
/// `ops` operations.
void report_stm_layer(Report& report, const StmSnapshot& delta, double ops);
/// Per-layer metrics of the `conflict` layer (from the TracingArbiter's
/// counters) over an interval with `commits` instrumented commits.
void report_conflict_layer(Report& report, const CounterSnapshot& delta,
                           double commits, double cycles_per_us);
[[nodiscard]] CounterSnapshot operator-(const CounterSnapshot& later,
                                        const CounterSnapshot& earlier);

/// Workload entry points (kv_workloads.cpp, txq_workload.cpp).
Report run_kv_read(const Options& options);
Report run_kv_write(const Options& options);
Report run_txq(const Options& options);

}  // namespace perfbench
