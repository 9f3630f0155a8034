#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "decorators.h"
#include "sptf_reference.h"
#include "src/array/array_manager.h"
#include "src/core/driver.h"
#include "src/core/trial_runner.h"
#include "src/disk/disk_device.h"
#include "src/fault/injector.h"
#include "src/mems/mems_device.h"
#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/sptf.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/trace/format.h"
#include "src/trace/replay.h"
#include "src/trace/scenarios.h"
#include "src/trace/transforms.h"
#include "src/workload/random_workload.h"

namespace perfbench {

void Digest::Add(uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (word >> (8 * byte)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(double value) { Add(std::bit_cast<uint64_t>(value)); }

namespace {

void AddFaults(const mstk::FaultCounters& from, mstk::FaultCounters* into) {
  into->transient_errors += from.transient_errors;
  into->timeouts += from.timeouts;
  into->retries += from.retries;
  into->permanent_faults += from.permanent_faults;
  into->remaps += from.remaps;
  into->failed_requests += from.failed_requests;
  into->rebuild_ios += from.rebuild_ios;
  into->rebuild_ms += from.rebuild_ms;
  into->degraded_ms += from.degraded_ms;
}

}  // namespace

void Merge(const PassOutcome& from, PassOutcome* into) {
  into->min_sim_completed = into->simulations == 0
                                ? from.min_sim_completed
                                : std::min(into->min_sim_completed, from.min_sim_completed);
  into->response_p999_max_ms = std::max(into->response_p999_max_ms, from.response_p999_max_ms);
  into->setup_s += from.setup_s;
  into->timed_s += from.timed_s;
  into->attempted += from.attempted;
  into->completed += from.completed;
  into->failed += from.failed;
  into->simulations += from.simulations;
  into->response_sum_ms += from.response_sum_ms;
  into->response_count += from.response_count;
  into->queue_sum_ms += from.queue_sum_ms;
  into->queue_count += from.queue_count;
  into->events += from.events;
  into->mems_busy_ms += from.mems_busy_ms;
  into->mems_span_ms += from.mems_span_ms;
  into->disk_busy_ms += from.disk_busy_ms;
  into->disk_span_ms += from.disk_span_ms;
  AddFaults(from.faults, &into->faults);
  into->member_ops += from.member_ops;
  into->rebuild_chunks += from.rebuild_chunks;
  into->rebuilds += from.rebuilds;
  into->rebuild_sim_ms += from.rebuild_sim_ms;
  into->trace_records += from.trace_records;
  into->trace_bytes += from.trace_bytes;
}

namespace {

using mstk::DeviceActivity;
using mstk::FaultCounters;
using mstk::IoScheduler;
using mstk::MetricsCollector;
using mstk::Request;
using mstk::StorageDevice;
using mstk::SummaryStats;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int64_t Scaled(int64_t count, const Options& options) {
  return std::max<int64_t>(1, std::llround(static_cast<double>(count) * options.scale));
}

// The scheduler the program is handed: the real one, wrapped for a test
// fault and/or for timing.
std::unique_ptr<IoScheduler> Wrap(std::unique_ptr<IoScheduler> scheduler, Ledger* ledger,
                                  const Options& options) {
  if (options.drop_request >= 0) {
    scheduler = std::make_unique<LosingScheduler>(std::move(scheduler), options.drop_request);
  }
  if (ledger != nullptr) {
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), ledger);
  }
  return scheduler;
}

void FoldSummary(Digest* digest, const SummaryStats& s) {
  digest->Add(s.count());
  digest->Add(s.mean());
  digest->Add(s.variance());
  digest->Add(s.min());
  digest->Add(s.max());
}

void FoldActivity(Digest* digest, const DeviceActivity& a) {
  digest->Add(a.busy_ms);
  digest->Add(a.positioning_ms);
  digest->Add(a.transfer_ms);
  digest->Add(a.requests);
  digest->Add(a.blocks_read);
  digest->Add(a.blocks_written);
}

void FoldFaults(Digest* digest, const FaultCounters& f) {
  digest->Add(f.transient_errors);
  digest->Add(f.timeouts);
  digest->Add(f.retries);
  digest->Add(f.permanent_faults);
  digest->Add(f.remaps);
  digest->Add(f.failed_requests);
  digest->Add(f.rebuild_ios);
  digest->Add(f.rebuild_ms);
  digest->Add(f.degraded_ms);
}

// Reads back one simulation's foreground metrics. `completed_failed` is how
// many recorded completions carried a failure.
void ReadBack(MetricsCollector& metrics, int64_t attempted, int64_t completed_failed,
              PassOutcome* out, Digest* digest) {
  const SummaryStats& response = metrics.response_time();
  const SummaryStats& queue = metrics.queue_time();
  const int64_t completed = metrics.completed() - completed_failed;
  const double p999 = metrics.ResponseQuantile(0.999);

  out->attempted += attempted;
  out->completed += completed;
  out->failed += attempted - completed;
  out->min_sim_completed =
      out->simulations == 0 ? completed : std::min(out->min_sim_completed, completed);
  ++out->simulations;
  out->response_sum_ms += response.mean() * static_cast<double>(response.count());
  out->response_count += response.count();
  out->response_p999_max_ms = std::max(out->response_p999_max_ms, p999);
  out->queue_sum_ms += queue.mean() * static_cast<double>(queue.count());
  out->queue_count += queue.count();

  digest->Add(attempted);
  digest->Add(completed);
  digest->Add(metrics.completed());
  FoldSummary(digest, response);
  FoldSummary(digest, metrics.service_time());
  FoldSummary(digest, queue);
  FoldSummary(digest, metrics.queue_depth());
  for (int p = 0; p < mstk::kPhaseCount; ++p) {
    FoldSummary(digest, metrics.phase(static_cast<mstk::Phase>(p)));
  }
  digest->Add(p999);
  digest->Add(metrics.last_completion_ms());
  FoldFaults(digest, metrics.fault());
}

void AddDeviceTime(const StorageDevice& device, double span_ms, PassOutcome* out) {
  const DeviceActivity& a = device.activity();
  if (a.requests == 0) {
    return;
  }
  const bool disk = std::string(device.name()) == "disk";
  (disk ? out->disk_busy_ms : out->mems_busy_ms) += a.busy_ms;
  (disk ? out->disk_span_ms : out->mems_span_ms) += span_ms;
}

// Arrival events capture one pointer to this plus one to the request,
// staying inside the event queue's inline capture budget.
struct DriverTarget {
  mstk::Driver* driver;
  Ledger* ledger;
};

void ScheduleArrivals(mstk::Simulator* sim, const std::vector<Request>& stream,
                      const DriverTarget* target) {
  for (const Request& req : stream) {
    const Request* arrival = &req;
    sim->ScheduleAt(req.arrival_ms, [target, arrival] {
      ScopedSpan span(target->ledger, SpanKind::kDriverSubmit, arrival->id);
      target->driver->Submit(*arrival);
    });
  }
}

std::vector<Request> RandomStream(double rate_per_s, int64_t count, int64_t capacity_blocks,
                                  uint64_t seed) {
  mstk::RandomWorkloadConfig config;
  config.arrival_rate_per_s = rate_per_s;
  config.request_count = count;
  config.capacity_blocks = capacity_blocks;
  mstk::Rng rng(seed);
  return mstk::GenerateRandomWorkload(config, rng);
}

// ---------------------------------------------------------------------------
// sptf_random and disk_clook: one device, one Driver, the paper's §3 random
// workload in open loop.

class SingleDeviceWorkload final : public Workload {
 public:
  struct Shape {
    bool disk;          // DiskDevice + C-LOOK, else MemsDevice + SPTF
    double rate_per_s;  // Poisson arrival rate
    int streams;        // independent streams, one simulation (unit) each
    int64_t requests;   // requests per stream
  };

  SingleDeviceWorkload(const Shape& shape, uint64_t seed, const Options& options)
      : shape_(shape), seed_(seed), options_(options) {}

  int units() const override { return shape_.streams; }

  PassOutcome RunPass(int unit, Ledger* ledger) override {
    const int64_t setup_start = NowNs();
    std::unique_ptr<StorageDevice> device;
    std::unique_ptr<TimedDevice> timed;
    std::unique_ptr<IoScheduler> scheduler;
    StorageDevice* facing = nullptr;
    {
      ScopedSpan span(ledger, SpanKind::kBuild);
      device = NewDevice();
      facing = device.get();
      if (ledger != nullptr) {
        timed = std::make_unique<TimedDevice>(device.get(), ledger);
        facing = timed.get();
      }
      scheduler = Wrap(NewScheduler(facing), ledger, options_);
    }
    std::vector<Request> stream;
    {
      ScopedSpan span(ledger, SpanKind::kGenerate);
      stream = Stream(unit, device->CapacityBlocks());
    }
    mstk::Simulator sim;
    MetricsCollector metrics;
    mstk::Driver driver(&sim, facing, scheduler.get(), &metrics);
    const DriverTarget target{&driver, ledger};
    PassOutcome out;
    const int64_t timed_start = NowNs();
    {
      ScopedSpan span(ledger, SpanKind::kSimRun);
      ScheduleArrivals(&sim, stream, &target);
      out.events = sim.Run();
    }
    const int64_t timed_end = NowNs();
    out.setup_s = Seconds(timed_start - setup_start);
    out.timed_s = Seconds(timed_end - timed_start);

    Digest digest;
    ReadBack(metrics, static_cast<int64_t>(stream.size()), metrics.fault().failed_requests, &out,
             &digest);
    FoldActivity(&digest, device->activity());
    AddDeviceTime(*device, sim.NowMs(), &out);
    out.digest = digest.value();
    return out;
  }

  // SPTF exactness: a prefix of the first stream through the same Driver
  // stack, once with SptfScheduler and once with the naive reference; the
  // completion streams (request id, completion-time bits) must match.
  std::string CheckOnce() override {
    if (shape_.disk) {
      return "";
    }
    const int64_t prefix =
        std::min(Scaled(shape_.requests, options_), Scaled(kMinSimRequests, options_));
    const int64_t capacity = mstk::MemsDevice().CapacityBlocks();
    const std::vector<Request> stream = Stream(0, capacity);
    const std::vector<Request> head(stream.begin(), stream.begin() + prefix);
    const auto candidate = Completions(head, options_.perturbed_sptf ? kPerturbed : kSptf);
    const auto reference = Completions(head, kReference);
    if (candidate.size() != static_cast<size_t>(prefix) ||
        reference.size() != static_cast<size_t>(prefix)) {
      return "SPTF exactness check: a prefix request never completed";
    }
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (candidate[i] != reference[i]) {
        return "SPTF exactness check: completion " + std::to_string(i) + " is request " +
               std::to_string(candidate[i].first) + ", the reference completes request " +
               std::to_string(reference[i].first);
      }
    }
    return "";
  }

 private:
  enum SptfKind { kSptf, kReference, kPerturbed };

  std::unique_ptr<StorageDevice> NewDevice() const {
    if (shape_.disk) {
      return std::make_unique<mstk::DiskDevice>();
    }
    return std::make_unique<mstk::MemsDevice>();
  }

  std::unique_ptr<IoScheduler> NewScheduler(const StorageDevice* device) const {
    if (shape_.disk) {
      return std::make_unique<mstk::ClookScheduler>();
    }
    return std::make_unique<mstk::SptfScheduler>(device);
  }

  std::vector<Request> Stream(int index, int64_t capacity_blocks) const {
    return RandomStream(shape_.rate_per_s, Scaled(shape_.requests, options_), capacity_blocks,
                        mstk::DeriveTrialSeed(seed_, index));
  }

  static std::vector<std::pair<int64_t, uint64_t>> Completions(
      const std::vector<Request>& stream, SptfKind kind) {
    mstk::MemsDevice device;
    std::unique_ptr<IoScheduler> scheduler;
    if (kind == kSptf) {
      scheduler = std::make_unique<mstk::SptfScheduler>(&device);
    } else {
      scheduler = std::make_unique<ReferenceSptf>(&device, kind == kPerturbed);
    }
    mstk::Simulator sim;
    MetricsCollector metrics;
    mstk::Driver driver(&sim, &device, scheduler.get(), &metrics);
    std::vector<std::pair<int64_t, uint64_t>> completions;
    driver.AddCompletionListener([&completions](const Request& req, mstk::TimeMs now_ms) {
      completions.emplace_back(req.id, std::bit_cast<uint64_t>(now_ms));
    });
    const DriverTarget target{&driver, nullptr};
    ScheduleArrivals(&sim, stream, &target);
    sim.Run();
    return completions;
  }

  Shape shape_;
  uint64_t seed_;
  Options options_;
};

// ---------------------------------------------------------------------------
// array_rebuild: RAID-5 ArrayManager over 16 active + 2 spare MEMS stacks,
// SPTF members with transient and permanent faults, one member failed early
// and rebuilt under load — once per rebuild policy, on the same stream.

constexpr int kArrayActive = 16;
constexpr int kArraySpares = 2;
constexpr int64_t kArrayRequests = 20000;
constexpr double kArrayRate = 1500.0;
constexpr mstk::TimeMs kArrayFailAtMs = 5.0;

class ArrayWorkload final : public Workload {
 public:
  ArrayWorkload(uint64_t seed, const Options& options) : seed_(seed), options_(options) {}

  PassOutcome RunPass(int unit, Ledger* ledger) override {
    (void)unit;
    PassOutcome out;
    Digest digest;
    for (const mstk::RebuildPolicy policy :
         {mstk::RebuildPolicy::kIdle, mstk::RebuildPolicy::kGreedy}) {
      RunOne(policy, ledger, &out, &digest);
    }
    out.digest = digest.value();
    return out;
  }

 private:
  // Submits through the manager, counting requests that met a failed array.
  struct ArrayTarget {
    mstk::ArrayManager* manager;
    Ledger* ledger;
    int64_t rejected;
  };

  void RunOne(mstk::RebuildPolicy policy, Ledger* ledger, PassOutcome* out,
              Digest* digest) const {
    constexpr int kDevices = kArrayActive + kArraySpares;
    const int64_t setup_start = NowNs();
    mstk::Simulator sim;
    MetricsCollector metrics;
    metrics.set_exclude_background(true);
    std::vector<std::unique_ptr<mstk::MemsDevice>> devices;
    std::vector<std::unique_ptr<TimedDevice>> timed;
    std::vector<std::unique_ptr<mstk::FaultInjector>> injectors;
    std::unique_ptr<mstk::ArrayManager> manager;
    {
      ScopedSpan span(ledger, SpanKind::kBuild);
      std::vector<StorageDevice*> facing;
      std::vector<mstk::FaultModel*> models;
      for (int d = 0; d < kDevices; ++d) {
        devices.push_back(std::make_unique<mstk::MemsDevice>());
        facing.push_back(devices.back().get());
        if (ledger != nullptr) {
          timed.push_back(std::make_unique<TimedDevice>(devices.back().get(), ledger));
          facing.back() = timed.back().get();
        }
        mstk::FaultInjectorConfig fault;
        fault.transient_rate = 0.01;
        fault.permanent_rate = 0.0002;
        fault.spares = 64;
        injectors.push_back(std::make_unique<mstk::FaultInjector>(
            fault, devices.back()->CapacityBlocks(), mstk::DeriveTrialSeed(seed_, 1000 + d)));
        models.push_back(injectors.back().get());
      }
      mstk::ArrayManagerConfig config;
      config.raid = mstk::RaidConfig{mstk::RaidLevel::kRaid5, 64};
      config.active_members = kArrayActive;
      config.member_extent_blocks = 32768;
      config.rebuild_policy = policy;
      config.rebuild_chunk_blocks = 512;
      const Options options = options_;
      const mstk::SchedulerFactory factory = [ledger, options](const StorageDevice* device) {
        return Wrap(std::make_unique<mstk::SptfScheduler>(device), ledger, options);
      };
      manager = std::make_unique<mstk::ArrayManager>(&sim, config, facing, factory, &metrics);
      // Five retries keep the chance that one member op exhausts its budget
      // (0.01^6 per op) far below one per run, so no foreground op fails.
      mstk::RecoveryPolicy recovery;
      recovery.max_retries = 5;
      manager->AttachFaultModels(models, recovery);
    }
    std::vector<Request> stream;
    {
      ScopedSpan span(ledger, SpanKind::kGenerate);
      stream = RandomStream(kArrayRate, Scaled(kArrayRequests, options_),
                            manager->CapacityBlocks(), mstk::DeriveTrialSeed(seed_, 0));
    }
    ArrayTarget target{manager.get(), ledger, 0};
    const int64_t timed_start = NowNs();
    {
      ScopedSpan span(ledger, SpanKind::kSimRun);
      ArrayTarget* t = &target;
      for (const Request& req : stream) {
        const Request* arrival = &req;
        sim.ScheduleAt(req.arrival_ms, [t, arrival] {
          if (t->manager->state() == mstk::ArrayState::kFailed) {
            ++t->rejected;
          }
          ScopedSpan submit(t->ledger, SpanKind::kArraySubmit, arrival->id);
          t->manager->Submit(*arrival);
        });
      }
      mstk::ArrayManager* m = manager.get();
      mstk::Simulator* sp = &sim;
      sim.ScheduleAt(kArrayFailAtMs, [m, sp] { m->FailDevice(0, sp->NowMs()); });
      out->events += sim.Run();
    }
    const int64_t timed_end = NowNs();
    out->setup_s += Seconds(timed_start - setup_start);
    out->timed_s += Seconds(timed_end - timed_start);

    ReadBack(metrics, static_cast<int64_t>(stream.size()),
             manager->failed_foreground() - target.rejected, out, digest);
    const FaultCounters faults = manager->DeviceFaults();
    FoldFaults(digest, faults);
    AddFaults(faults, &out->faults);
    int64_t service_calls = 0;
    for (const auto& device : devices) {
      FoldActivity(digest, device->activity());
      service_calls += device->activity().requests;
      AddDeviceTime(*device, sim.NowMs(), out);
    }
    out->member_ops += service_calls - faults.rebuild_ios;
    out->rebuild_chunks += manager->rebuild_chunks_committed();
    digest->Add(manager->rebuild_chunks_committed());
    digest->Add(manager->failed_foreground());
    digest->Add(manager->superblock().version);
    digest->Add(static_cast<int64_t>(manager->state()));

    // The lifecycle must run degraded -> rebuilding -> resync -> optimal
    // and end optimal.
    const mstk::ArrayState expected[] = {mstk::ArrayState::kOptimal, mstk::ArrayState::kDegraded,
                                         mstk::ArrayState::kRebuilding,
                                         mstk::ArrayState::kResync, mstk::ArrayState::kOptimal};
    const auto& transitions = manager->transitions();
    bool lifecycle_ok = transitions.size() == std::size(expected);
    for (size_t i = 0; i < transitions.size(); ++i) {
      digest->Add(static_cast<int64_t>(transitions[i].state));
      digest->Add(transitions[i].at_ms);
      digest->Add(transitions[i].version);
      lifecycle_ok = lifecycle_ok && i < std::size(expected) && transitions[i].state == expected[i];
    }
    if (!lifecycle_ok && out->error.empty()) {
      out->error = std::string("array (") + mstk::RebuildPolicyName(policy) + ") ended " +
                   mstk::ArrayStateName(manager->state()) + " after " +
                   std::to_string(transitions.size()) +
                   " lifecycle states; expected degraded -> rebuilding -> resync -> optimal";
    }
    if (lifecycle_ok) {
      ++out->rebuilds;
      out->rebuild_sim_ms += transitions[3].at_ms - transitions[2].at_ms;
    }
  }

  uint64_t seed_;
  Options options_;
};

// ---------------------------------------------------------------------------
// trace_replay: every zoo scenario generated at the run seed, serialized to
// MSTKTRACE bytes, parsed back, remapped onto a MemsDevice, and replayed with
// FCFS under open, closed and hybrid (window 8) arrival control.

constexpr int64_t kScenarioRecords = 20000;

class TraceReplayWorkload final : public Workload {
 public:
  TraceReplayWorkload(uint64_t seed, const Options& options) : seed_(seed), options_(options) {}

  PassOutcome RunPass(int unit, Ledger* ledger) override {
    (void)unit;
    PassOutcome out;
    Digest digest;
    int64_t setup_ns = 0;
    int64_t timed_ns = 0;
    int64_t mark = NowNs();
    std::unique_ptr<mstk::MemsDevice> device;
    std::unique_ptr<TimedDevice> timed;
    StorageDevice* facing = nullptr;
    {
      ScopedSpan span(ledger, SpanKind::kBuild);
      device = std::make_unique<mstk::MemsDevice>();
      facing = device.get();
      if (ledger != nullptr) {
        timed = std::make_unique<TimedDevice>(device.get(), ledger);
        facing = timed.get();
      }
    }
    setup_ns += NowNs() - mark;

    const auto& names = mstk::trace::ScenarioNames();
    for (size_t s = 0; s < names.size(); ++s) {
      mark = NowNs();
      mstk::trace::ScenarioConfig config;
      config.request_count = Scaled(kScenarioRecords, options_);
      config.seed = mstk::DeriveTrialSeed(seed_, 100 + static_cast<int64_t>(s));
      mstk::trace::ParsedTrace generated;
      {
        ScopedSpan span(ledger, SpanKind::kGenerate);
        generated = mstk::trace::GenerateScenario(names[s], config);
      }
      std::string bytes;
      {
        ScopedSpan span(ledger, SpanKind::kSerialize);
        bytes = mstk::trace::SerializeTrace(generated.records);
      }
      mstk::trace::ParsedTrace parsed;
      std::string parse_error;
      bool parsed_ok = false;
      {
        ScopedSpan span(ledger, SpanKind::kParse);
        parsed_ok = mstk::trace::ParseTrace(bytes, &parsed, &parse_error);
      }
      std::vector<Request> requests;
      {
        ScopedSpan span(ledger, SpanKind::kRemap);
        mstk::trace::ParsedTrace mapped;
        mapped.records = mstk::trace::RemapToCapacity(parsed.records, device->CapacityBlocks(),
                                                      mstk::trace::RemapMode::kScale);
        requests = mstk::trace::ToRequests(mapped);
      }
      setup_ns += NowNs() - mark;

      if (!parsed_ok || parsed.records != generated.records) {
        if (out.error.empty()) {
          out.error = names[s] + ": MSTKTRACE round trip changed the records " + parse_error;
        }
        continue;
      }
      out.trace_records += static_cast<int64_t>(parsed.records.size());
      out.trace_bytes += static_cast<int64_t>(bytes.size());
      digest.Add(static_cast<int64_t>(bytes.size()));
      for (const Request& req : requests) {
        digest.Add(req.lbn);
        digest.Add(static_cast<int64_t>(req.block_count));
        digest.Add(req.arrival_ms);
      }

      for (const mstk::trace::ArrivalMode mode :
           {mstk::trace::ArrivalMode::kOpen, mstk::trace::ArrivalMode::kClosed,
            mstk::trace::ArrivalMode::kHybrid}) {
        mark = NowNs();
        std::unique_ptr<IoScheduler> scheduler;
        {
          ScopedSpan span(ledger, SpanKind::kBuild);
          scheduler = Wrap(std::make_unique<mstk::FcfsScheduler>(), ledger, options_);
        }
        mstk::trace::ReplayConfig replay;
        replay.mode = mode;
        replay.window = 8;
        const int64_t run_start = NowNs();
        setup_ns += run_start - mark;
        mstk::ExperimentResult result;
        {
          ScopedSpan span(ledger, SpanKind::kSimRun);
          result = mstk::trace::Replay(facing, scheduler.get(), requests, replay);
        }
        timed_ns += NowNs() - run_start;

        ReadBack(result.metrics, static_cast<int64_t>(requests.size()),
                 result.metrics.fault().failed_requests, &out, &digest);
        FoldActivity(&digest, result.activity);
        digest.Add(result.makespan_ms);
        AddDeviceTime(*device, result.makespan_ms, &out);
      }
    }
    out.setup_s = Seconds(setup_ns);
    out.timed_s = Seconds(timed_ns);
    out.digest = digest.value();
    return out;
  }

 private:
  uint64_t seed_;
  Options options_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"sptf_random", "disk_clook", "array_rebuild",
                                                  "trace_replay"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const Options& options) {
  if (name == "sptf_random") {
    return std::make_unique<SingleDeviceWorkload>(
        SingleDeviceWorkload::Shape{false, 1800.0, 4, 40000}, seed, options);
  }
  if (name == "disk_clook") {
    return std::make_unique<SingleDeviceWorkload>(
        SingleDeviceWorkload::Shape{true, 150.0, 2, 100000}, seed, options);
  }
  if (name == "array_rebuild") {
    return std::make_unique<ArrayWorkload>(seed, options);
  }
  if (name == "trace_replay") {
    return std::make_unique<TraceReplayWorkload>(seed, options);
  }
  return nullptr;
}

}  // namespace perfbench
