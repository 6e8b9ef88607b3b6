// txcperf — the `kv-read` and `kv-write` workloads: a closed loop of 16
// virtual clients, driven by one pinned generator thread, against a 2-shard
// KvService whose two workers are pinned to CPUs of their own.
//
//   kv-read   TL2 + Grace(RRA), 95% get / 5% put, Zipf 0.9 over 2^21 keys
//             in 2 x 2^21 buckets (about 128 MiB with the stripe tables).
//   kv-write  NOrec + Grace(RRA), 20% get / 40% rmw_add / 40% two-key swap,
//             Zipf 0.99 over 4,096 keys in a 64 KiB table.
//
// Each client keeps one request in flight: the generator submits, polls the
// client's response slot, and submits that client's next request only after
// the response arrived.  The request stream is generated from the seed
// before set-up and replayed in order.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/profiler.hpp"
#include "kv/service.hpp"
#include "sim/rng.hpp"
#include "stm/norec.hpp"
#include "stm/tl2.hpp"
#include "workload/zipf.hpp"

namespace perfbench {
namespace {

using txc::kv::OpKind;

/// One pre-generated request: `arg` is the second key of a swap, the value
/// of a put and the delta of an rmw_add.
struct KvOp {
  std::uint32_t key_a = 0;
  std::uint32_t arg = 0;
  OpKind op = OpKind::kGet;
};

struct KvSpec {
  const char* name;
  std::size_t capacity_per_shard;
  std::uint32_t keys;  // power of two; keys are 1..keys
  double zipf;
  unsigned get_pct, put_pct, rmw_pct;  // the rest are swaps
  std::size_t stream_len;
  std::size_t instances;  // fresh services per untraced run
  double warmup_s;        // untimed warm-up of each instance
  bool tagged_values;     // values encode their key (kv-read's get check)
};

constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 16;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kLoadBatch = 512;
/// Values of tagged workloads keep the key in their low bits.
constexpr std::uint32_t kKeyBits = 22;
constexpr std::uint32_t kKeyMask = (std::uint32_t{1} << kKeyBits) - 1;

constexpr KvSpec kKvRead{"kv-read", std::size_t{1} << 21, 1u << 21, 0.9,
                         95, 5, 0, std::size_t{1} << 21, 6, 0.6, true};
constexpr KvSpec kKvWrite{"kv-write", 4096, 4096, 0.99, 20, 0, 40,
                          std::size_t{1} << 20, 20, 0.2, false};

struct KvInputs {
  std::vector<std::uint32_t> values;  // values[key - 1]: initial value
  std::vector<KvOp> stream;
  std::uint64_t initial_sum = 0;
};

/// Zipf rank -> key: a fixed odd-multiplier bijection on [0, keys), so the
/// hot keys are the same for every seed and scattered over both shards.
std::uint32_t key_of_rank(std::uint32_t rank, std::uint32_t keys) {
  return ((rank * 0x9E3779B1u) & (keys - 1)) + 1;
}

std::uint32_t tagged_value(std::uint32_t key, txc::sim::Rng& rng) {
  return (static_cast<std::uint32_t>(rng() >> 54) << kKeyBits) | key;
}

KvInputs generate(const KvSpec& spec, std::uint64_t seed) {
  KvInputs inputs;
  txc::sim::Rng rng{seed * 0x9E3779B97F4A7C15ULL + 0x6b76};
  inputs.values.resize(spec.keys);
  for (std::uint32_t key = 1; key <= spec.keys; ++key) {
    const std::uint32_t value = spec.tagged_values
                                    ? tagged_value(key, rng)
                                    : 1 + static_cast<std::uint32_t>(
                                              rng.uniform_below(1024));
    inputs.values[key - 1] = value;
    inputs.initial_sum += value;
  }
  const txc::workload::ZipfSampler zipf{spec.keys, spec.zipf};
  inputs.stream.resize(spec.stream_len);
  for (KvOp& op : inputs.stream) {
    op.key_a = key_of_rank(zipf.sample(rng), spec.keys);
    const auto pick = static_cast<unsigned>(rng.uniform_below(100));
    if (pick < spec.get_pct) {
      op.op = OpKind::kGet;
    } else if (pick < spec.get_pct + spec.put_pct) {
      op.op = OpKind::kPut;
      op.arg = tagged_value(op.key_a, rng);
    } else if (pick < spec.get_pct + spec.put_pct + spec.rmw_pct) {
      op.op = OpKind::kRmwAdd;
      op.arg = 1 + static_cast<std::uint32_t>(rng.uniform_below(16));
    } else {
      op.op = OpKind::kSwap;
      do {
        op.arg = key_of_rank(zipf.sample(rng), spec.keys);
      } while (op.arg == op.key_a);
    }
  }
  return inputs;
}

/// Service counters captured at a window boundary.
struct ServiceSnapshot {
  double rejected = 0, completed = 0, batches = 0, read_segments = 0,
         write_segments = 0, shard_full = 0;

  static ServiceSnapshot capture(const txc::kv::ServiceStats& stats) {
    const auto load = [](const std::atomic<std::uint64_t>& counter) {
      return static_cast<double>(counter.load(std::memory_order_relaxed));
    };
    return ServiceSnapshot{load(stats.rejected),      load(stats.completed),
                           load(stats.batches),       load(stats.read_segments),
                           load(stats.write_segments), load(stats.shard_full)};
  }
  ServiceSnapshot operator-(const ServiceSnapshot& e) const {
    return ServiceSnapshot{rejected - e.rejected,
                           completed - e.completed,
                           batches - e.batches,
                           read_segments - e.read_segments,
                           write_segments - e.write_segments,
                           shard_full - e.shard_full};
  }
};

struct Snapshot {
  ServiceSnapshot service;
  StmSnapshot stm;
  CounterSnapshot trace{};
};

/// One virtual client: its response slot (written by a service worker) on
/// a cache line of its own, plus generator-private bookkeeping.
struct alignas(64) Client {
  std::atomic<std::uint64_t> slot{0};
  const KvOp* op = nullptr;
  std::uint64_t start = 0;
  std::uint64_t span = 0;  // traced request id, 0 when not sampled
  enum class State { kIdle, kBusy, kDone } state = State::kIdle;
};

/// What the instances of one measurement produced.  Counter deltas and
/// the service histogram quantiles are those of the last instance (traced
/// measurements run one).
struct KvMeasurement {
  std::vector<InstanceResult> instances;
  std::uint64_t attempted = 0, failed = 0;
  Snapshot delta;  // counters over the timed window
  double svc_p50_ticks = 0, svc_p99_ticks = 0;
};

template <typename Substrate>
class KvBench {
 public:
  using Service = txc::kv::KvService<Substrate>;

  KvBench(const KvSpec& spec, const KvInputs& inputs, std::uint64_t seed,
          const Placement& placement, TickClock& clock, Report& report)
      : spec_(spec),
        inputs_(inputs),
        seed_(seed),
        placement_(placement),
        clock_(clock),
        report_(report) {}

  /// Measure `instances` fresh services in turn, `seconds` of timed window
  /// in all: each is set up (timed), warmed up, measured, drained and
  /// checked, then torn down before the next one is built.
  KvMeasurement measure(double seconds, std::size_t instances,
                        double warmup_s, Tracer* tracer) {
    KvMeasurement result;
    std::shared_ptr<const txc::conflict::ConflictArbiter> arbiter =
        grace_arbiter(txc::core::StrategyKind::kRandAborts,
                      /*requestor_aborts=*/true);
    if (tracer != nullptr) {
      arbiter = std::make_shared<TracingArbiter>(std::move(arbiter), *tracer);
    }
    for (std::size_t i = 0; i < instances; ++i) {
      txc::core::AttemptProfile profile;
      InstanceResult instance;
      const std::uint64_t layout = layout_draw(seed_, i);
      // The clients' response slots are as hot as the service's own words.
      // They outlive the service, whose workers write them.
      const Placed<std::array<Client, kClients>> clients{layout >> 32};
      const auto begin = std::chrono::steady_clock::now();
      const Placed<Service> service{layout, service_config(), arbiter};
      load(*service);
      instance.setup_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
      if (tracer != nullptr) {
        service->store().substrate().attach_profile(&profile);
      }
      start_workers(*service, i == 0);
      const WindowPlan plan{ticks(), clock_.estimate(), warmup_s,
                            seconds / static_cast<double>(instances)};
      run_loop(*service, *clients, plan, tracer,
               tracer != nullptr ? &profile : nullptr, instance, result);
      service->stop();
      txc::core::LatencyHistogram svc_latency;
      service->merge_latency(svc_latency);
      result.svc_p50_ticks = static_cast<double>(svc_latency.quantile(0.50));
      result.svc_p99_ticks = static_cast<double>(svc_latency.quantile(0.99));
      check_store(*service);
      result.instances.push_back(instance);
    }
    return result;
  }

 private:
  typename Service::Config service_config() const {
    typename Service::Config config;
    config.store.shards = kShards;
    config.store.capacity_per_shard = spec_.capacity_per_shard;
    config.queue_capacity = kQueueCapacity;
    config.max_batch = kMaxBatch;
    return config;
  }

  /// The second half of the timed set-up, after constructing the service
  /// (store, substrate, queues): load every key, 512 puts per transaction.
  void load(Service& service) {
    auto& store = service.store();
    for (std::uint32_t first = 1; first <= spec_.keys; first += kLoadBatch) {
      const std::uint32_t last = std::min<std::uint32_t>(
          spec_.keys, first + static_cast<std::uint32_t>(kLoadBatch) - 1);
      bool loaded = true;
      store.substrate().atomically(
          [&](typename Substrate::TxContext& tx) {
            loaded = true;
            for (std::uint32_t key = first; key <= last; ++key) {
              if (store.put(tx, key, inputs_.values[key - 1]) !=
                  txc::kv::OpStatus::kOk) {
                loaded = false;
              }
            }
          });
      if (!loaded) throw std::runtime_error("kv set-up: a shard is full");
    }
  }

  /// Spawn the workers confined to the service CPUs, then pin each to one.
  void start_workers(Service& service, bool print) {
    const std::vector<int> worker_cpus(placement_.cpus.begin() + 1,
                                       placement_.cpus.end());
    // A process's first thread creation can start runtime helper threads (a
    // sanitizer's, for one): create a thread first, so that only the
    // service's workers are new in the task list.
    std::thread([] {}).join();
    const std::vector<int> before = task_ids();
    {
      ScopedAffinity confine{worker_cpus};
      service.start();
    }
    std::vector<int> workers;
    for (const int tid : task_ids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        workers.push_back(tid);
      }
    }
    if (workers.size() != kShards) {
      throw std::runtime_error("kv: expected one new thread per shard");
    }
    std::string placed = "  placement: generator cpu " +
                         std::to_string(placement_.cpus[0]);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      pin_task(workers[i], worker_cpus[i]);
      placed += ", worker tid " + std::to_string(workers[i]) + " cpu " +
                std::to_string(worker_cpus[i]);
    }
    if (print) {
      std::printf("%s%s\n", placed.c_str(),
                  placement_.shared ? " (fewer CPUs than threads: shared)"
                                    : "");
    }
  }

  Snapshot capture(Service& service, const txc::core::AttemptProfile* profile,
                   const Tracer* tracer) {
    Snapshot snap;
    snap.service = ServiceSnapshot::capture(service.service_stats());
    snap.stm = StmSnapshot::capture(service.store().stats(), profile);
    if (tracer != nullptr) snap.trace = tracer->totals();
    return snap;
  }

  /// Check one response against its request; returns false on a wrong
  /// answer.  Tracks the rmw_add deltas the store applied.
  bool check_response(const KvOp& op, std::uint64_t response) {
    using txc::kv::kDone;
    using txc::kv::kFound;
    const bool found = (response & kFound) != 0;
    const auto value = static_cast<std::uint32_t>(response & 0xFFFFFFFFu);
    switch (op.op) {
      case OpKind::kGet:
        return found &&
               (!spec_.tagged_values || (value & kKeyMask) == op.key_a);
      case OpKind::kPut:
      case OpKind::kSwap:
        return response == kDone;
      case OpKind::kRmwAdd:
        if (found) applied_deltas_ += op.arg;
        return found;
    }
    return false;
  }

  /// The closed loop of one instance: 16 clients, one request in flight
  /// each, until the plan ends and every outstanding response arrived.
  void run_loop(Service& service, std::array<Client, kClients>& clients,
                const WindowPlan& plan, Tracer* tracer,
                const txc::core::AttemptProfile* profile,
                InstanceResult& instance, KvMeasurement& result) {
    const std::vector<KvOp>& stream = inputs_.stream;
    ThreadTrace* trace = tracer != nullptr ? &tracer->local() : nullptr;
    Histogram latency;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t requests = 0;
    Snapshot at_warmup_end;
    bool warm = false;

    // Submits the client's next request; returns the ticks spent inside
    // submit() when traced.
    const auto issue = [&](Client& client) -> std::uint64_t {
      const KvOp& op = stream[next_op_];
      next_op_ = next_op_ + 1 == stream.size() ? 0 : next_op_ + 1;
      txc::kv::Request request;
      request.op = op.op;
      request.key_a = op.key_a;
      if (op.op == OpKind::kSwap) {
        request.key_b = op.arg;
      } else {
        request.value = op.arg;
      }
      request.response = &client.slot;
      client.op = &op;
      client.slot.store(0, std::memory_order_relaxed);
      client.span = 0;
      if (trace != nullptr && ++requests % Tracer::kSampleEvery == 0) {
        client.span = trace->new_id();
      }
      client.start = ticks();
      const bool accepted = service.submit(request);
      std::uint64_t submit_ticks = 0;
      if (trace != nullptr) {
        const std::uint64_t end = ticks();
        submit_ticks = end - client.start;
        trace->add(kSubmitCalls, 1);
        trace->add(kSubmitTicks, submit_ticks);
        if (client.span != 0) {
          trace->record(Span{trace->new_id(), client.span, client.start, end,
                             SpanName::kKvSubmit});
        }
      }
      if (accepted) {
        client.state = Client::State::kBusy;
      } else {
        client.state = Client::State::kIdle;  // refused: retried next sweep
        if (plan.timed(client.start)) ++rejected;
      }
      return submit_ticks;
    };

    for (Client& client : clients) issue(client);
    std::size_t active = kClients;
    while (active > 0) {
      for (Client& client : clients) {
        if (client.state == Client::State::kDone) continue;
        if (client.state == Client::State::kIdle) {
          if (ticks() >= plan.end) {
            client.state = Client::State::kDone;
            --active;
          } else {
            issue(client);
          }
          continue;
        }
        const std::uint64_t response =
            client.slot.load(std::memory_order_acquire);
        if (response == 0) continue;
        const std::uint64_t now = ticks();
        if (plan.timed(now)) {
          latency.record(now - client.start);
          ++completed;
        }
        if (!check_response(*client.op, response)) ++wrong_answers_;
        if (client.span != 0) {
          trace->record(Span{client.span, 0, client.start, now,
                             SpanName::kKvRequest});
        }
        if (now >= plan.end) {
          client.state = Client::State::kDone;
          --active;
          continue;
        }
        const std::uint64_t submit_ticks = issue(client);
        if (trace != nullptr && plan.timed(now)) {
          // Generator work for this operation: from seeing the response to
          // the end of the next submission, minus the submit() call.
          trace->add(kGenOps, 1);
          trace->add(kGenTicks, (ticks() - now) - submit_ticks);
        }
      }
      if (!warm && ticks() >= plan.warmup_end) {
        at_warmup_end = capture(service, profile, tracer);
        warm = true;
      }
    }
    const Snapshot at_end = capture(service, profile, tracer);

    const double cycles_per_us = clock_.cycles_per_us();
    instance.ops_per_s = static_cast<double>(completed) /
                         (plan.timed_us(cycles_per_us) * 1e-6);
    instance.p50_us = latency.quantile(0.50) / cycles_per_us;
    instance.p99_us = latency.quantile(0.99) / cycles_per_us;
    result.delta.service = at_end.service - at_warmup_end.service;
    result.delta.stm = at_end.stm - at_warmup_end.stm;
    result.delta.trace = at_end.trace - at_warmup_end.trace;
    result.attempted += completed + rejected;
    result.failed += rejected + static_cast<std::uint64_t>(
                                    result.delta.service.shard_full);
  }

  /// End-of-run store checks, after the workers drained and joined.
  void check_store(Service& service) {
    auto& store = service.store();
    if (wrong_answers_ != 0) {
      report_.fail(std::to_string(wrong_answers_) +
                   " responses did not match their request");
    }
    if (store.size_sync() != spec_.keys) {
      report_.fail("resident key count changed");
    }
    if (spec_.tagged_values) {
      std::vector<typename Service::Store::Entry> entries;
      store.scan(entries);
      for (const auto& entry : entries) {
        if ((entry.value & kKeyMask) != entry.key) {
          report_.fail("a stored value does not encode its key");
          break;
        }
      }
    } else {
      const std::uint64_t expected = inputs_.initial_sum + applied_deltas_;
      if (store.value_sum_sync() != expected) {
        report_.fail("value sum != initial sum + applied rmw_add deltas");
      }
    }
    applied_deltas_ = 0;
    wrong_answers_ = 0;
  }

  const KvSpec& spec_;
  const KvInputs& inputs_;
  std::uint64_t seed_;
  const Placement& placement_;
  TickClock& clock_;
  Report& report_;
  std::uint64_t applied_deltas_ = 0;
  std::uint64_t wrong_answers_ = 0;
  std::size_t next_op_ = 0;  // stream position, carried across instances
};

template <typename Substrate>
Report run_kv(const KvSpec& spec, const char* setup_text,
              const Options& options) {
  Report report;
  std::printf("workload %s: %s\n", spec.name, setup_text);
  const Placement placement = plan_placement(1 + kShards);
  pin_current_thread(placement.cpus[0]);
  TickClock clock;
  const KvInputs inputs = generate(spec, options.seed);
  KvBench<Substrate> bench{spec, inputs, options.seed, placement, clock,
                           report};

  if (!options.trace) {
    const KvMeasurement m = bench.measure(options.seconds, spec.instances,
                                          spec.warmup_s, nullptr);
    report.attempted = m.attempted;
    report.failed = m.failed;
    report_end_to_end(report, m.instances);
    return report;
  }

  // Traced run: half the time untraced (the overhead baseline), half traced.
  const double half = options.seconds / 2.0;
  const KvMeasurement plain = bench.measure(half, 1, spec.warmup_s, nullptr);
  Tracer tracer;
  const KvMeasurement m = bench.measure(half, 1, spec.warmup_s, &tracer);
  report.attempted = m.attempted;
  report.failed = m.failed;
  const double cycles_per_us = clock.cycles_per_us();
  const Snapshot& d = m.delta;
  const double ops = d.service.completed;

  const auto submit_calls = static_cast<double>(d.trace[kSubmitCalls]);
  const double submit_ns =
      ratio(static_cast<double>(d.trace[kSubmitTicks]), submit_calls) *
      1000.0 / cycles_per_us;
  report.show("kv.submit_ns", submit_ns, "ns",
              ratio_detail("ticks", static_cast<double>(d.trace[kSubmitTicks]),
                           "submit() calls", submit_calls));
  report.show("kv.svc_p50_us", m.svc_p50_ticks / cycles_per_us, "us");
  report.show("kv.svc_p99_us", m.svc_p99_ticks / cycles_per_us, "us");
  report.show("kv.ops_per_batch", ratio(ops, d.service.batches), "ops/batch",
              ratio_detail("completed", ops, "batches", d.service.batches));
  const double segments = d.service.read_segments + d.service.write_segments;
  report.show("kv.read_seg_frac", ratio(d.service.read_segments, segments),
              "ratio",
              ratio_detail("read segments", d.service.read_segments, "segments",
                           segments));
  report_stm_layer(report, d.stm, ops);
  report_conflict_layer(report, d.trace, d.stm.commits, cycles_per_us);

  const auto gen_ops = static_cast<double>(d.trace[kGenOps]);
  const double gen_ns =
      ratio(static_cast<double>(d.trace[kGenTicks]), gen_ops) * 1000.0 /
      cycles_per_us;
  report.show("bench.gen_ns_per_op", gen_ns, "ns",
              ratio_detail("generator ticks",
                           static_cast<double>(d.trace[kGenTicks]), "ops",
                           gen_ops));
  report_trace(report, tracer, m.instances.front().ops_per_s,
               plain.instances.front().ops_per_s, options, cycles_per_us);
  return report;
}

}  // namespace

Report run_kv_read(const Options& options) {
  return run_kv<txc::stm::Stm>(
      kKvRead,
      "TL2 + Grace(RRA), 2 shards, 16 closed-loop clients, 95% get / 5% put, "
      "Zipf 0.9 over 2^21 keys in 2x2^21 buckets",
      options);
}

Report run_kv_write(const Options& options) {
  return run_kv<txc::stm::Norec>(
      kKvWrite,
      "NOrec + Grace(RRA), 2 shards, 16 closed-loop clients, 20% get / 40% "
      "rmw_add / 40% swap, Zipf 0.99 over 4096 keys in 2x4096 buckets",
      options);
}

}  // namespace perfbench
