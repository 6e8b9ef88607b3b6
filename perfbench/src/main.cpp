// txcperf — the repository benchmark's driver binary.
//
//   txcperf --workload kv-read|kv-write|txq --seed N --seconds S --trace 0|1
//           [--span-dir DIR]
//
// Untraced (--trace 0), a run measures several fresh instances of its
// workload in turn: each is set up (timed), warmed up (untimed) and measured
// for its share of the S seconds, then checked and torn down.  The
// end-to-end metrics are medians over the instances.  Traced (--trace 1),
// it measures one instance untraced and one traced, S/2 seconds each, and
// reports the per-layer metrics.  Every run checks the program's answers;
// the last line of standard output is one JSON object with the result, and
// the exit code is non-zero when a check failed.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

/// Every per-layer metric a traced run reports, with its unit.  A layer the
/// workload does not use reports 0 (its counts are 0).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"kv.submit_ns", "ns"},
    {"kv.svc_p50_us", "us"},
    {"kv.svc_p99_us", "us"},
    {"kv.ops_per_batch", "ops/batch"},
    {"kv.read_seg_frac", "ratio"},
    {"stm.commit_ratio", "ratio"},
    {"stm.commit_cycles", "cycles"},
    {"stm.abort_cycles", "cycles"},
    {"stm.wasted_frac", "ratio"},
    {"stm.snapshot_restart_ratio", "ratio"},
    {"stm.reads_per_commit", "reads/commit"},
    {"stm.snapshot_reads_per_op", "reads/op"},
    {"stm.lock_waits", "count"},
    {"stm.remote_kills", "count"},
    {"stm.kill_recoveries", "count"},
    {"stm.false_conflicts", "count"},
    {"conflict.decide_per_commit", "calls/commit"},
    {"conflict.decide_ns", "ns"},
    {"conflict.wait_won_frac", "ratio"},
    {"conflict.waited_spins_per_commit", "spins/commit"},
    {"conflict.kill_frac", "ratio"},
    {"conflict.self_abort_frac", "ratio"},
    {"mem.recycle_frac", "ratio"},
    {"mem.exhaustion_frac", "ratio"},
    {"mem.limbo_depth", "blocks"},
    {"mem.epoch_advances_per_kop", "1/kop"},
    {"ds.enqueue_p50_us", "us"},
    {"ds.enqueue_p99_us", "us"},
    {"ds.dequeue_p50_us", "us"},
    {"ds.dequeue_p99_us", "us"},
    {"ds.push_p50_us", "us"},
    {"ds.push_p99_us", "us"},
    {"ds.pop_p50_us", "us"},
    {"ds.pop_p99_us", "us"},
    {"bench.gen_ns_per_op", "ns"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "txcperf: %s\n"
               "usage: txcperf --workload kv-read|kv-write|txq --seed N "
               "--seconds S --trace 0|1 [--span-dir DIR]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--span-dir") {
      options.span_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

void print_json(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // Every block of 64 KiB or more comes fresh from the kernel and goes back
  // when freed, so each repeated set-up pays the page faults the first one
  // pays, instead of whatever the allocator happened to keep (a fixed
  // threshold also turns off glibc's adaptive one).
  mallopt(M_MMAP_THRESHOLD, 64 * 1024);
  Report report;
  try {
    if (options.workload == "kv-read") {
      report = perfbench::run_kv_read(options);
    } else if (options.workload == "kv-write") {
      report = perfbench::run_kv_write(options);
    } else if (options.workload == "txq") {
      report = perfbench::run_txq(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "txcperf: %s\n", error.what());
    return 1;
  }

  if (options.trace) {
    std::set<std::string> reported;
    for (const auto& metric : report.metrics) reported.insert(metric.name);
    for (const LayerMetric& metric : kPerLayer) {
      if (reported.count(metric.name) == 0) {
        report.add(metric.name, 0.0, metric.unit);
        std::printf("  %-34s   layer not used by this workload\n",
                    metric.name);
      }
    }
  } else {
    std::printf("end-to-end (medians over the instances):\n");
    for (const auto& metric : report.metrics) {
      perfbench::note(metric.name, metric.value, metric.unit);
    }
  }
  for (const std::string& error : report.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("checks: %s\n", report.correct ? "passed" : "FAILED");
  std::fflush(stdout);
  print_json(report);
  return report.correct ? 0 : 1;
}
