// mstk repository benchmark: runs one named workload for a fixed host-time
// budget, checks the simulated outputs, and prints the metrics as the last
// line of standard output (one JSON object). See README.md.
//
//   mstk_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--expect-digest HEX] [--spans-dir DIR]
//
// --trace 0 runs the bare stack and reports the end-to-end metrics.
// --trace 1 alternates bare and decorated passes and reports the per-layer
// ledger of the first decorated pass, whose spans go to
// DIR/<workload>.spans.tsv.
//
// Test-only knobs: --scale F (request counts x F), --drop-request K (every
// scheduler loses its K-th request), --perturbed-sptf (the SPTF exactness
// check runs against a last-index-wins-ties scheduler).
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Quantile `q` of `values` with linear interpolation between order
// statistics.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<size_t>(pos);
  const size_t above = std::min(below + 1, values.size() - 1);
  return values[below] + (pos - static_cast<double>(below)) * (values[above] - values[below]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident memory of this process image, in MiB. VmHWM starts afresh
// at exec; ru_maxrss does not (it keeps the launching process's peak), so
// it is only the fallback.
double PeakRssMb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Nearest-rank percentile of integer samples.
double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

// The per-layer ledger of one decorated pass.
std::vector<Metric> LayerMetrics(const std::string& workload, const Ledger& ledger,
                                 const PassOutcome& pass, double trace_overhead) {
  const auto totals = ledger.Totals();
  const auto total = [&](SpanKind k) { return totals[static_cast<size_t>(k)]; };
  const double s = 1e-9;
  const auto io = static_cast<double>(pass.completed);

  const auto pop = total(SpanKind::kSchedPop);
  const auto add = total(SpanKind::kSchedAdd);
  const auto estimate = total(SpanKind::kMemsEstimate);
  const auto mems = total(SpanKind::kMemsService);
  const auto disk = total(SpanKind::kDiskService);
  const auto array = total(SpanKind::kArraySubmit);
  const double estimated = static_cast<double>(ledger.items(SpanKind::kMemsEstimate));
  const int64_t core_self_ns =
      total(SpanKind::kSimRun).self_ns + total(SpanKind::kDriverSubmit).self_ns;
  double depth_sum = 0.0;
  for (const int64_t d : ledger.pop_depths()) {
    depth_sum += static_cast<double>(d);
  }
  const auto pops = static_cast<double>(pop.calls);
  const double parse_s = static_cast<double>(total(SpanKind::kParse).total_ns) * s;

  return {
      {"sched.pop_calls", pops, "count"},
      {"sched.pop_self_s", static_cast<double>(pop.self_ns) * s, "s"},
      {"sched.pop_self_ns_per_pop", Ratio(static_cast<double>(pop.self_ns), pops), "ns/pop"},
      {"sched.depth_at_pop_mean", Ratio(depth_sum, pops), "requests"},
      {"sched.depth_at_pop_p99", Percentile(ledger.pop_depths(), 0.99), "requests"},
      {"mems.estimate_calls", static_cast<double>(estimate.calls), "count"},
      {"mems.estimated_reqs", estimated, "count"},
      {"mems.estimate_s", static_cast<double>(estimate.total_ns) * s, "s"},
      {"mems.estimate_ns_per_req", Ratio(static_cast<double>(estimate.total_ns), estimated),
       "ns/req"},
      {"mems.estimates_per_pop", Ratio(estimated, pops), "req/pop"},
      {"mems.service_calls", static_cast<double>(mems.calls), "count"},
      {"mems.service_s", static_cast<double>(mems.total_ns) * s, "s"},
      {"mems.service_ns_per_call",
       Ratio(static_cast<double>(mems.total_ns), static_cast<double>(mems.calls)), "ns/call"},
      {"mems.sim_util", Ratio(pass.mems_busy_ms, pass.mems_span_ms), "ratio"},
      {"disk.service_calls", static_cast<double>(disk.calls), "count"},
      {"disk.service_s", static_cast<double>(disk.total_ns) * s, "s"},
      {"disk.service_ns_per_call",
       Ratio(static_cast<double>(disk.total_ns), static_cast<double>(disk.calls)), "ns/call"},
      {"disk.sim_util", Ratio(pass.disk_busy_ms, pass.disk_span_ms), "ratio"},
      {"sim.events", static_cast<double>(pass.events), "count"},
      {"sim.events_per_io", Ratio(static_cast<double>(pass.events), io), "events/io"},
      {"core.self_s", static_cast<double>(core_self_ns) * s, "s"},
      {"core.self_ns_per_io", Ratio(static_cast<double>(core_self_ns), io), "ns/io"},
      {"sched.add_calls", static_cast<double>(add.calls), "count"},
      {"sched.add_s", static_cast<double>(add.total_ns) * s, "s"},
      {"sched.pops_per_io", Ratio(pops, io), "pops/io"},
      {"core.completed", io, "count"},
      {"core.failed", static_cast<double>(pass.failed), "count"},
      {"core.sim_queue_mean_ms",
       Ratio(pass.queue_sum_ms, static_cast<double>(pass.queue_count)), "ms"},
      {"array.submit_calls", static_cast<double>(array.calls), "count"},
      {"array.submit_self_s", static_cast<double>(array.self_ns) * s, "s"},
      {"array.member_ops_per_io", Ratio(static_cast<double>(pass.member_ops), io), "ops/io"},
      {"array.rebuild_chunks", static_cast<double>(pass.rebuild_chunks), "count"},
      {"array.rebuild_ios", static_cast<double>(pass.faults.rebuild_ios), "count"},
      {"array.sim_rebuild_ms",
       Ratio(pass.rebuild_sim_ms, static_cast<double>(pass.rebuilds)), "ms"},
      {"array.build_s",
       workload == "array_rebuild" ? static_cast<double>(total(SpanKind::kBuild).total_ns) * s
                                   : 0.0,
       "s"},
      {"fault.transient_errors", static_cast<double>(pass.faults.transient_errors), "count"},
      {"fault.retries", static_cast<double>(pass.faults.retries), "count"},
      {"fault.timeouts", static_cast<double>(pass.faults.timeouts), "count"},
      {"fault.remaps", static_cast<double>(pass.faults.remaps), "count"},
      {"fault.failed_requests", static_cast<double>(pass.faults.failed_requests), "count"},
      {"workload.generate_s", static_cast<double>(total(SpanKind::kGenerate).total_ns) * s,
       "s"},
      {"trace.serialize_s", static_cast<double>(total(SpanKind::kSerialize).total_ns) * s, "s"},
      {"trace.parse_s", parse_s, "s"},
      {"trace.parse_mb_per_s", Ratio(static_cast<double>(pass.trace_bytes) * 1e-6, parse_s),
       "MB/s"},
      {"trace.remap_s", static_cast<double>(total(SpanKind::kRemap).total_ns) * s, "s"},
      {"trace.records", static_cast<double>(pass.trace_records), "count"},
      {"bench.trace_overhead", trace_overhead, "ratio"},
  };
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: mstk_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                      [--expect-digest HEX] [--spans-dir DIR]\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string expect_digest;
  std::string spans_dir = ".bench_out";
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--perturbed-sptf") {
      options.perturbed_sptf = true;
    } else if (!has_value) {
      return Usage();
    } else if (flag == "--workload") {
      workload_name = argv[++i];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--expect-digest") {
      expect_digest = argv[++i];
    } else if (flag == "--spans-dir") {
      spans_dir = argv[++i];
    } else if (flag == "--scale") {
      options.scale = std::atof(argv[++i]);
    } else if (flag == "--drop-request") {
      options.drop_request = std::strtoll(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }
  const auto workload = MakeWorkload(workload_name, seed, options);
  if (workload == nullptr || !(seconds > 0.0) || !(options.scale > 0.0)) {
    return Usage();
  }

  std::vector<std::string> errors;
  const auto check = [&errors](bool ok, const std::string& what) {
    if (!ok && std::find(errors.begin(), errors.end(), what) == errors.end()) {
      errors.push_back(what);
    }
  };

  const int units = workload->units();
  int64_t attempted = 0;
  int64_t failed = 0;
  int passes = 0;
  // Per unit: the digest of its first pass and the host times of its passes.
  std::vector<uint64_t> unit_digests(static_cast<size_t>(units), 0);
  std::vector<std::vector<double>> setups(static_cast<size_t>(units));
  std::vector<std::vector<double>> bare_timed(static_cast<size_t>(units));
  std::vector<std::vector<double>> traced_timed(static_cast<size_t>(units));
  std::vector<double> rates;  // completed requests per timed second, per bare pass
  double peak_rss_mb = 0.0;   // after the first cycle
  PassOutcome cycle;         // the first bare cycle over every unit, pooled
  PassOutcome traced_cycle;  // the first decorated cycle, pooled
  Ledger ledger;             // spans of the first decorated cycle
  const auto account = [&](const PassOutcome& pass, size_t unit, bool first, const char* kind) {
    attempted += pass.attempted;
    failed += pass.failed;
    check(pass.error.empty(), pass.error);
    check(pass.failed == 0, std::string(kind) + " pass: " + std::to_string(pass.failed) +
                                " of " + std::to_string(pass.attempted) + " requests failed");
    if (first) {
      unit_digests[unit] = pass.digest;
    }
    check(pass.digest == unit_digests[unit],
          std::string(kind) + " pass digest differs from the first pass of its unit");
    if (options.scale >= 1.0) {
      check(pass.min_sim_completed >= kMinSimRequests,
            "a simulation completed fewer than " + std::to_string(kMinSimRequests) +
                " requests, too few for p99.9");
    }
  };

  // Every unit runs at least once; then passes continue until the deadline.
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (; passes < units || (NowNs() < deadline && errors.empty()); ++passes) {
    const auto unit = static_cast<size_t>(passes % units);
    const bool first_cycle = passes < units;
    const PassOutcome bare = workload->RunPass(static_cast<int>(unit), nullptr);
    account(bare, unit, first_cycle, "bare");
    setups[unit].push_back(bare.setup_s);
    bare_timed[unit].push_back(bare.timed_s);
    rates.push_back(Ratio(static_cast<double>(bare.completed), bare.timed_s));
    if (first_cycle) {
      Merge(bare, &cycle);
    }
    if (trace) {
      // Spans per request stay below six on every workload; reserving keeps
      // vector growth out of the timed spans.
      const size_t reserve = static_cast<size_t>(bare.attempted) * 6;
      Ledger later;
      Ledger* target = first_cycle ? &ledger : &later;
      target->Reserve(first_cycle ? reserve * static_cast<size_t>(units) : reserve);
      const PassOutcome traced = workload->RunPass(static_cast<int>(unit), target);
      account(traced, unit, false, "decorated");
      traced_timed[unit].push_back(traced.timed_s);
      if (first_cycle) {
        Merge(traced, &traced_cycle);
      }
    }
    if (passes + 1 == units) {
      // Every simulation has run once. Later passes repeat them, and their
      // allocator churn would make the peak depend on how many passes the
      // host speed allowed.
      peak_rss_mb = PeakRssMb();
    }
  }

  const std::string once = workload->CheckOnce();
  check(once.empty(), once);
  Digest digest;
  double setup_s = 0.0;
  double bare_s = 0.0;
  double traced_s = 0.0;
  for (size_t u = 0; u < static_cast<size_t>(units); ++u) {
    digest.Add(unit_digests[u]);
    setup_s += Median(setups[u]);
    bare_s += Median(bare_timed[u]);
    traced_s += trace ? Median(traced_timed[u]) : 0.0;
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest.value());
  if (!expect_digest.empty()) {
    check(expect_digest == digest_hex,
          "digest " + std::string(digest_hex) + " differs from the pinned " + expect_digest);
  }

  std::printf("workload %s seed %" PRIu64 " passes %d%s\n", workload_name.c_str(), seed, passes,
              trace ? " bare + decorated" : " bare");
  std::printf("digest %s\n", digest_hex);
  std::printf("core.completed %" PRId64 "\n", cycle.completed);

  std::vector<Metric> metrics;
  if (trace) {
    const std::string path = spans_dir + "/" + workload_name + ".spans.tsv";
    if (ledger.WriteTsv(path)) {
      std::printf("spans %zu written to %s\n", ledger.spans().size(), path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
    metrics = LayerMetrics(workload_name, ledger, traced_cycle, Ratio(traced_s, bare_s));
  } else {
    metrics = {
        // The lower quartile: the host runs some passes in bursts of extra
        // speed, and the lower quartile tracks the speed between them
        // (README.md, host noise).
        {"sim_ios_per_s", Quantile(rates, 0.25), "1/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"sim_response_mean_ms",
         Ratio(cycle.response_sum_ms, static_cast<double>(cycle.response_count)), "ms"},
        {"sim_response_p999_ms", cycle.response_p999_max_ms, "ms"},
    };
  }

  const bool correct = errors.empty();
  for (const std::string& error : errors) {
    std::printf("check failed: %s\n", error.c_str());
  }
  // A run whose output check failed counts every request as failed.
  PrintResult(correct, attempted, correct ? failed : attempted, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
