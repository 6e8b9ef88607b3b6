// txcperf — shared machinery (see bench.hpp).
#include "bench.hpp"

#include <sched.h>
#include <dirent.h>
#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "conflict/grace.hpp"
#include "sim/rng.hpp"

namespace perfbench {

// -- Clocks ------------------------------------------------------------------

TickClock::TickClock()
    : tick0_(ticks()), wall0_(std::chrono::steady_clock::now()) {
  while (std::chrono::steady_clock::now() - wall0_ <
         std::chrono::milliseconds(20)) {
  }
  estimate_ = cycles_per_us();
}

double TickClock::cycles_per_us() const {
  const std::uint64_t elapsed_ticks = ticks() - tick0_;
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - wall0_)
                        .count();
  return static_cast<double>(elapsed_ticks) / us;
}

// -- Histogram ---------------------------------------------------------------

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the sample, then its position inside its bucket.
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t here = buckets_[i];
    if (here == 0 || static_cast<double>(before + here) < rank) {
      before += here;
      continue;
    }
    double lo = static_cast<double>(i);
    double width = 1.0;
    if (i >= kSub) {
      const std::size_t octave = i / kSub;
      const std::size_t sub = i % kSub;
      width = std::ldexp(1.0, static_cast<int>(octave) - 1);
      lo = static_cast<double>(kSub + sub) * width;
    }
    const double within =
        (rank - static_cast<double>(before) - 0.5) / static_cast<double>(here);
    return lo + within * width;
  }
  return 0.0;
}

// -- Placement ---------------------------------------------------------------

std::string Placement::describe() const {
  std::string text;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i) text += ",";
    text += std::to_string(cpus[i]);
  }
  return text;
}

Placement plan_placement(std::size_t threads) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
  }
  // Leave the lowest allowed CPU to the kernel's interrupt work whenever
  // that still leaves one CPU per thread.
  if (allowed.size() > threads) allowed.erase(allowed.begin());
  Placement placement;
  placement.shared = allowed.size() < threads;
  for (std::size_t i = 0; i < threads; ++i) {
    placement.cpus.push_back(allowed[i % allowed.size()]);
  }
  return placement;
}

void pin_current_thread(int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  if (pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) != 0) {
    throw std::runtime_error("cannot pin thread to cpu " +
                             std::to_string(cpu));
  }
}

void pin_task(int tid, int cpu) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  if (sched_setaffinity(tid, sizeof(mask), &mask) != 0) {
    throw std::runtime_error("cannot pin task " + std::to_string(tid) +
                             " to cpu " + std::to_string(cpu));
  }
}

std::vector<int> task_ids() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      ids.push_back(std::atoi(entry->d_name));
    }
  }
  closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

ScopedAffinity::ScopedAffinity(const std::vector<int>& cpus) {
  static_assert(sizeof(cpu_set_t) <= sizeof(saved_));
  cpu_set_t saved;
  if (pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) != 0) {
    throw std::runtime_error("pthread_getaffinity_np failed");
  }
  std::memcpy(saved_, &saved, sizeof(saved));
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int cpu : cpus) CPU_SET(cpu, &mask);
  if (pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) != 0) {
    throw std::runtime_error("cannot restrict affinity");
  }
}

ScopedAffinity::~ScopedAffinity() {
  cpu_set_t saved;
  std::memcpy(&saved, saved_, sizeof(saved));
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

// -- Layout ----------------------------------------------------------------

std::uint64_t layout_draw(std::uint64_t seed, std::size_t instance) {
  txc::sim::Rng rng{seed * 0x2545F4914F6CDD1DULL + instance};
  return rng();
}

// -- Windows -----------------------------------------------------------------

WindowPlan::WindowPlan(std::uint64_t start, double cycles_per_us,
                       double warmup_s, double timed_s) {
  const double per_s = cycles_per_us * 1e6;
  warmup_end = start + static_cast<std::uint64_t>(warmup_s * per_s);
  end = warmup_end + static_cast<std::uint64_t>(timed_s * per_s);
}

// -- Tracing -----------------------------------------------------------------

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kKvRequest: return "kv.request";
    case SpanName::kKvSubmit: return "kv.submit";
    case SpanName::kDsEnqueue: return "ds.enqueue";
    case SpanName::kDsDequeue: return "ds.dequeue";
    case SpanName::kDsPush: return "ds.push";
    case SpanName::kDsPop: return "ds.pop";
    case SpanName::kDecide: return "conflict.decide";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {
std::atomic<std::uint64_t> g_tracer_generation{0};

struct Binding {
  std::uint64_t generation = 0;
  ThreadTrace* trace = nullptr;
};
thread_local Binding t_binding;
}  // namespace

std::uint64_t& current_span() noexcept {
  thread_local std::uint64_t id = 0;
  return id;
}

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1) + 1) {
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    slots_[i].slot = static_cast<std::uint32_t>(i);
    slots_[i].spans.reserve(kSpansPerThread);
  }
}

ThreadTrace& Tracer::local() {
  if (t_binding.generation != generation_) {
    const std::uint32_t slot = bound_.fetch_add(1);
    if (slot >= kMaxThreads) {
      throw std::runtime_error("more traced threads than trace slots");
    }
    t_binding = Binding{generation_, &slots_[slot]};
  }
  return *t_binding.trace;
}

CounterSnapshot Tracer::totals() const noexcept {
  CounterSnapshot sum{};
  for (const ThreadTrace& slot : slots_) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      sum[c] += slot.counters[c].load(std::memory_order_relaxed);
    }
  }
  return sum;
}

std::uint64_t Tracer::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const ThreadTrace& slot : slots_) total += slot.dropped;
  return total;
}

std::size_t Tracer::write_csv(const std::string& path,
                              double cycles_per_us) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  std::uint64_t origin = ~std::uint64_t{0};
  for (const ThreadTrace& slot : slots_) {
    for (const Span& span : slot.spans) origin = std::min(origin, span.start);
  }
  out << "id,parent,name,thread,start_ns,end_ns\n";
  std::size_t written = 0;
  const double ns_per_tick = 1000.0 / cycles_per_us;
  for (const ThreadTrace& slot : slots_) {
    for (const Span& span : slot.spans) {
      out << span.id << ',' << span.parent << ',' << span_name(span.name)
          << ',' << slot.slot << ','
          << static_cast<double>(span.start - origin) * ns_per_tick << ','
          << static_cast<double>(span.end - origin) * ns_per_tick << '\n';
      ++written;
    }
  }
  return written;
}

void Tracer::print_self_times(double cycles_per_us) const {
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  std::array<double, kNames> total{};
  std::array<double, kNames> self{};
  std::array<std::uint64_t, kNames> count{};
  for (const ThreadTrace& slot : slots_) {
    // Children are recorded on their parent's thread, so a per-thread
    // index is enough to subtract them.
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(slot.spans.size());
    for (std::size_t i = 0; i < slot.spans.size(); ++i) {
      index.emplace(slot.spans[i].id, i);
    }
    std::vector<double> covered(slot.spans.size(), 0.0);
    for (const Span& span : slot.spans) {
      if (span.parent == 0) continue;
      const auto parent = index.find(span.parent);
      if (parent != index.end()) {
        covered[parent->second] += static_cast<double>(span.end - span.start);
      }
    }
    for (std::size_t i = 0; i < slot.spans.size(); ++i) {
      const Span& span = slot.spans[i];
      const auto name = static_cast<std::size_t>(span.name);
      const double duration = static_cast<double>(span.end - span.start);
      total[name] += duration;
      self[name] += duration - covered[i];
      ++count[name];
    }
  }
  const double ns_per_tick = 1000.0 / cycles_per_us;
  for (std::size_t name = 0; name < kNames; ++name) {
    if (count[name] == 0) continue;
    const auto n = static_cast<double>(count[name]);
    std::printf("  span %-16s n=%-8llu mean %.1f ns, self %.1f ns\n",
                span_name(static_cast<SpanName>(name)),
                static_cast<unsigned long long>(count[name]),
                total[name] / n * ns_per_tick, self[name] / n * ns_per_tick);
  }
}

txc::conflict::Decision TracingArbiter::decide(
    const txc::conflict::ConflictView& view, txc::sim::Rng& rng) const {
  ThreadTrace& trace = tracer_.local();
  const std::uint64_t start = ticks();
  const txc::conflict::Decision verdict = inner_->decide(view, rng);
  const std::uint64_t end = ticks();
  trace.add(kDecideCalls, 1);
  trace.add(kDecideTicks, end - start);
  if (verdict == txc::conflict::Decision::kAbortSelf) {
    trace.add(kVerdictSelf, 1);
  } else if (verdict == txc::conflict::Decision::kAbortEnemy) {
    trace.add(kVerdictEnemy, 1);
  }
  // Record the call when it runs inside a sampled operation, or — on
  // service workers, which carry no operation id — one call in
  // kSampleEvery.
  const std::uint64_t parent = current_span();
  const std::uint64_t calls =
      trace.counters[kDecideCalls].load(std::memory_order_relaxed);
  if (parent != 0 || calls % Tracer::kSampleEvery == 0) {
    trace.record(Span{trace.new_id(), parent, start, end, SpanName::kDecide});
  }
  return verdict;
}

void TracingArbiter::feedback(
    const txc::core::ConflictOutcome& outcome) const noexcept {
  ThreadTrace& trace = tracer_.local();
  trace.add(kFeedbackTotal, 1);
  if (outcome.committed) trace.add(kFeedbackWon, 1);
  trace.add(kFeedbackWaitedSpins,
            static_cast<std::uint64_t>(std::llround(outcome.waited)));
  inner_->feedback(outcome);
}

std::shared_ptr<const txc::conflict::ConflictArbiter> grace_arbiter(
    txc::core::StrategyKind kind, bool requestor_aborts) {
  auto policy = txc::core::make_policy(kind);
  if (requestor_aborts) {
    return std::make_shared<txc::conflict::GraceArbiter>(
        std::move(policy), txc::core::ResolutionMode::kRequestorAborts);
  }
  return std::make_shared<txc::conflict::GraceArbiter>(std::move(policy));
}

// -- Layer counters ----------------------------------------------------------

StmSnapshot StmSnapshot::capture(const txc::stm::StmStats& stats,
                                 const txc::core::AttemptProfile* profile) {
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return static_cast<double>(counter.load(std::memory_order_relaxed));
  };
  StmSnapshot snap;
  snap.commits = load(stats.commits);
  snap.aborts = load(stats.aborts);
  snap.lock_waits = load(stats.lock_waits);
  snap.remote_kills = load(stats.remote_kills);
  snap.kill_recoveries = load(stats.kill_recoveries);
  snap.false_conflicts = load(stats.false_conflicts);
  snap.snapshot_commits = load(stats.snapshot_commits);
  snap.snapshot_restarts = load(stats.snapshot_restarts);
  snap.snapshot_reads = load(stats.snapshot_reads);
  snap.instrumented_reads = load(stats.instrumented_reads);
  if (profile != nullptr) {
    snap.profile_commits = static_cast<double>(profile->commits());
    snap.profile_aborts = static_cast<double>(profile->aborts());
    snap.commit_cycles = profile->mean_commit_cycles() * snap.profile_commits;
    snap.abort_cycles = profile->mean_abort_cycles() * snap.profile_aborts;
  }
  return snap;
}

StmSnapshot StmSnapshot::operator-(const StmSnapshot& earlier) const {
  StmSnapshot d;
  d.commits = commits - earlier.commits;
  d.aborts = aborts - earlier.aborts;
  d.lock_waits = lock_waits - earlier.lock_waits;
  d.remote_kills = remote_kills - earlier.remote_kills;
  d.kill_recoveries = kill_recoveries - earlier.kill_recoveries;
  d.false_conflicts = false_conflicts - earlier.false_conflicts;
  d.snapshot_commits = snapshot_commits - earlier.snapshot_commits;
  d.snapshot_restarts = snapshot_restarts - earlier.snapshot_restarts;
  d.snapshot_reads = snapshot_reads - earlier.snapshot_reads;
  d.instrumented_reads = instrumented_reads - earlier.instrumented_reads;
  d.profile_commits = profile_commits - earlier.profile_commits;
  d.profile_aborts = profile_aborts - earlier.profile_aborts;
  d.commit_cycles = commit_cycles - earlier.commit_cycles;
  d.abort_cycles = abort_cycles - earlier.abort_cycles;
  return d;
}

CounterSnapshot operator-(const CounterSnapshot& later,
                          const CounterSnapshot& earlier) {
  CounterSnapshot d{};
  for (std::size_t c = 0; c < kCounterCount; ++c) d[c] = later[c] - earlier[c];
  return d;
}

void report_stm_layer(Report& report, const StmSnapshot& d, double ops) {
  const double attempts = d.commits + d.aborts;
  report.show("stm.commit_ratio", ratio(d.commits, attempts), "ratio",
              ratio_detail("commits", d.commits, "attempts", attempts));
  const double commit_cycles = ratio(d.commit_cycles, d.profile_commits);
  const double abort_cycles = ratio(d.abort_cycles, d.profile_aborts);
  report.show("stm.commit_cycles", commit_cycles, "cycles",
              ratio_detail("cycles", d.commit_cycles, "committed attempts",
                           d.profile_commits));
  report.show("stm.abort_cycles", abort_cycles, "cycles",
              ratio_detail("cycles", d.abort_cycles, "aborted attempts",
                           d.profile_aborts));
  const double all_cycles = d.commit_cycles + d.abort_cycles;
  report.show("stm.wasted_frac", ratio(d.abort_cycles, all_cycles), "ratio",
              ratio_detail("aborted cycles", d.abort_cycles,
                           "all attempt cycles", all_cycles));
  const double snapshots = d.snapshot_commits + d.snapshot_restarts;
  report.show("stm.snapshot_restart_ratio",
              ratio(d.snapshot_restarts, snapshots), "ratio",
              ratio_detail("restarts", d.snapshot_restarts, "snapshot attempts",
                           snapshots));
  report.show("stm.reads_per_commit", ratio(d.instrumented_reads, d.commits),
              "reads/commit",
              ratio_detail("instrumented reads", d.instrumented_reads,
                           "commits", d.commits));
  report.show("stm.snapshot_reads_per_op", ratio(d.snapshot_reads, ops),
              "reads/op",
              ratio_detail("snapshot reads", d.snapshot_reads, "ops", ops));
  const std::pair<const char*, double> counts[] = {
      {"stm.lock_waits", d.lock_waits},
      {"stm.remote_kills", d.remote_kills},
      {"stm.kill_recoveries", d.kill_recoveries},
      {"stm.false_conflicts", d.false_conflicts},
  };
  for (const auto& [name, value] : counts) {
    report.show(name, value, "count");
  }
}

void report_conflict_layer(Report& report, const CounterSnapshot& d,
                           double commits, double cycles_per_us) {
  const auto calls = static_cast<double>(d[kDecideCalls]);
  report.show("conflict.decide_per_commit", ratio(calls, commits),
              "calls/commit",
              ratio_detail("decide() calls", calls, "commits", commits));
  const double decide_ns =
      ratio(static_cast<double>(d[kDecideTicks]), calls) * 1000.0 /
      cycles_per_us;
  report.show("conflict.decide_ns", decide_ns, "ns",
              ratio_detail("ticks", static_cast<double>(d[kDecideTicks]),
                           "calls", calls));
  const auto outcomes = static_cast<double>(d[kFeedbackTotal]);
  const auto won = static_cast<double>(d[kFeedbackWon]);
  report.show("conflict.wait_won_frac", ratio(won, outcomes), "ratio",
              ratio_detail("enemy committed", won, "outcomes", outcomes));
  const auto spins = static_cast<double>(d[kFeedbackWaitedSpins]);
  report.show("conflict.waited_spins_per_commit", ratio(spins, commits),
              "spins/commit", ratio_detail("spins", spins, "commits", commits));
  const auto kills = static_cast<double>(d[kVerdictEnemy]);
  const auto selfs = static_cast<double>(d[kVerdictSelf]);
  report.show("conflict.kill_frac", ratio(kills, calls), "ratio",
              ratio_detail("kill verdicts", kills, "decide() calls", calls));
  report.show("conflict.self_abort_frac", ratio(selfs, calls), "ratio",
              ratio_detail("self-abort verdicts", selfs, "decide() calls",
                           calls));
}

// -- Report ------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void note(const std::string& name, double value, const std::string& unit,
          const std::string& detail) {
  std::printf("  %-34s = %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              detail.empty() ? "" : "  ", detail.c_str());
}

void report_end_to_end(Report& report,
                       const std::vector<InstanceResult>& instances) {
  std::vector<double> setup, ops, p50, p99;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const InstanceResult& r = instances[i];
    std::printf("  instance %zu: set-up %.6f s, %.5g ops/s, p50 %.3f us, "
                "p99 %.3f us\n",
                i, r.setup_s, r.ops_per_s, r.p50_us, r.p99_us);
    setup.push_back(r.setup_s);
    ops.push_back(r.ops_per_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
  }
  report.add("setup_s", median(setup), "s");
  report.add("ops_per_s", median(ops), "ops/s");
  report.add("p50_us", median(p50), "us");
  report.add("p99_us", median(p99), "us");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  const auto failed = static_cast<double>(report.failed);
  const auto attempted = static_cast<double>(report.attempted);
  note("failed_frac", ratio(failed, attempted), "ratio",
       ratio_detail("failed", failed, "attempted", attempted));
}

void report_trace(Report& report, const Tracer& tracer, double traced_ops,
                  double untraced_ops, const Options& options,
                  double cycles_per_us) {
  report.show("trace.overhead", ratio(traced_ops, untraced_ops), "ratio",
              ratio_detail("traced ops/s", traced_ops, "untraced ops/s",
                           untraced_ops));
  tracer.print_self_times(cycles_per_us);
  if (options.span_dir.empty()) return;
  const std::string path = options.span_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".csv";
  const std::size_t written = tracer.write_csv(path, cycles_per_us);
  std::printf("  spans: %zu written to %s, %llu dropped (buffers full)\n",
              written, path.c_str(),
              static_cast<unsigned long long>(tracer.dropped()));
}

void Report::show(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  add(name, value, unit);
  note(name, value, unit, detail);
}

std::string ratio_detail(const char* num_name, double num,
                         const char* den_name, double den) {
  char text[160];
  std::snprintf(text, sizeof(text), "(%s %.0f / %s %.0f)", num_name, num,
                den_name, den);
  return text;
}

}  // namespace perfbench
