//===- perfbench/main.cpp - The veriqec benchmark program -----------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   veriqec_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--commit SHA] [--small] [--plant-wrong-answer]
//
// Sets the workload up, then serves requests one after another, each
// starting when the previous returned, while the next one is expected to
// end within S seconds. Batches of throwaway setups between the requests
// give setup_s. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates untraced and traced requests and prints the
// per-layer metrics, including the tracing overhead. Every verdict is
// checked; the last stdout line is the result object, and the
// exit code is 0 only when no check failed.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string Commit = "unknown";
  bool Small = false;
  bool PlantWrongAnswer = false;
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "veriqec_bench: %s\n"
               "usage: veriqec_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--small] "
               "[--plant-wrong-answer]\nworkloads:",
               Why);
  for (const std::string &Name : workloadNames())
    std::fprintf(stderr, " %s", Name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!S || *S < '0' || *S > '9')
    return false;
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, sizeof(Regs));
    std::string S(Brand);
    size_t First = S.find_first_not_of(' ');
    return First == std::string::npos ? "unknown" : S.substr(First);
  }
#endif
  return "unknown";
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// All digits of a measured value.
std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--small") {
      A.Small = true;
      continue;
    }
    if (Flag == "--plant-wrong-answer") {
      A.PlantWrongAnswer = true;
      continue;
    }
    if (I + 1 == argc)
      return usage(("missing value for " + Flag).c_str());
    const char *Value = argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--commit") {
      A.Commit = Value;
    } else if (Flag == "--seed" && parseUnsigned(Value, N)) {
      A.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseUnsigned(Value, N) && N > 0 &&
               N <= 3600) {
      A.Seconds = static_cast<double>(N);
      HaveSeconds = true;
    } else if (Flag == "--trace" && parseUnsigned(Value, N) && N <= 1) {
      A.Trace = N == 1;
      HaveTrace = true;
    } else {
      return usage(("bad argument " + Flag + " " + Value).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || A.Workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");

  WorkloadOptions Opts;
  Opts.Seed = A.Seed;
  Opts.Small = A.Small;
  Opts.PlantWrongAnswer = A.PlantWrongAnswer;
  if (!makeWorkload(A.Workload, Opts))
    return usage(("unknown workload " + A.Workload).c_str());

  // setup_s. Throwaway setups come in batches of K back-to-back ones, K
  // chosen from the first setup so that a batch lasts SetupBatchSeconds;
  // a batch's mean setup time is one sample and setup_s is the median
  // sample. The machine's speed drifts over tens of seconds, so the
  // batches are spread over the whole run like the requests: before each
  // request and after the last one, batches run until they have taken
  // SetupShare of the time so far, at least one batch each time and at
  // least MinSetupBatches in all.
  constexpr double SetupShare = 0.08, SetupBatchSeconds = 0.05;
  constexpr size_t MinSetupBatches = 5;
  veriqec::Timer Run;
  auto TimedSetup = [&](std::unique_ptr<Workload> &Into) {
    Into = makeWorkload(A.Workload, Opts);
    veriqec::Timer Setup;
    Into->setup();
    return Setup.seconds();
  };
  std::unique_ptr<Workload> W;
  double FirstSetupSeconds = TimedSetup(W);
  const size_t SetupsPerBatch = static_cast<size_t>(std::max(
      1.0, std::ceil(SetupBatchSeconds / std::max(FirstSetupSeconds, 1e-6))));
  W->computeKnownAnswers();
  std::vector<double> SetupBatchMeans;
  double SetupPhaseSeconds = 0;
  auto SampleSetups = [&] {
    do {
      veriqec::Timer Phase;
      double Sum = 0;
      for (size_t K = 0; K != SetupsPerBatch; ++K) {
        std::unique_ptr<Workload> Throwaway;
        Sum += TimedSetup(Throwaway);
      }
      SetupBatchMeans.push_back(Sum / static_cast<double>(SetupsPerBatch));
      SetupPhaseSeconds += Phase.seconds();
    } while (SetupPhaseSeconds < SetupShare * Run.seconds());
  };

  // Closed loop, one client: the next request starts when the previous
  // one has returned. A traced run alternates untraced and traced
  // requests so the tracing overhead is measured under equal conditions.
  // A request starts only if the typical request fits in the time left.
  constexpr uint64_t MaxReportedFailures = 20;
  const size_t MinRequests = A.Trace ? 2 : 1;
  std::vector<RequestResult> Untraced, Traced;
  std::vector<double> RequestSeconds;
  uint64_t Attempted = 0, Failed = 0;
  double PeakRssMb = 0;
  for (size_t I = 0;; ++I) {
    SampleSetups();
    if (I >= MinRequests &&
        Run.seconds() + median(RequestSeconds) > A.Seconds)
      break;
    veriqec::Timer Request;
    bool TraceThis = A.Trace && I % 2 == 1;
    RequestResult R = W->run(TraceThis);
    // Later requests reuse memory the first one freed; the first one's
    // peak is the footprint a user pays.
    if (I == 0)
      PeakRssMb = peakRssMb();
    RequestSeconds.push_back(Request.seconds());
    Attempted += R.Attempted;
    Failed += R.Failed;
    // The first failures name the problem and the check; later requests
    // repeat them.
    for (const std::string &F : R.Failures)
      if (Failed - R.Failed < MaxReportedFailures)
        std::fprintf(stderr, "veriqec_bench: FAILED %s\n", F.c_str());
    (TraceThis ? Traced : Untraced).push_back(std::move(R));
  }
  while (SetupBatchMeans.size() < MinSetupBatches)
    SampleSetups();

  auto Column = [](const std::vector<RequestResult> &Rs, auto Get) {
    std::vector<double> V;
    for (const RequestResult &R : Rs)
      V.push_back(Get(R));
    return V;
  };
  std::vector<double> Wall =
      Column(Untraced, [](const RequestResult &R) { return R.WallSeconds; });
  std::vector<double> Cpu =
      Column(Untraced, [](const RequestResult &R) { return R.CpuSeconds; });
  double ProofMb = median(Column(Untraced, [](const RequestResult &R) {
                     return static_cast<double>(R.ProofBytes) / 1e6;
                   }));

  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  if (!A.Trace) {
    Metrics.push_back({"verdict_s", {median(Wall), "s"}});
    Metrics.push_back({"cpu_s", {median(Cpu), "s"}});
    Metrics.push_back({"setup_s", {median(SetupBatchMeans), "s"}});
    Metrics.push_back({"peak_rss_mb", {PeakRssMb, "MB"}});
  } else {
    std::vector<double> TracedWall =
        Column(Traced, [](const RequestResult &R) { return R.WallSeconds; });
    for (const auto &[Name, Unit] : layerMetricNames()) {
      double V = Name == "trace.overhead_s"
                     ? median(TracedWall) - median(Wall)
                     : median(Column(Traced, [&](const RequestResult &R) {
                         return R.Layers.at(Name);
                       }));
      Metrics.push_back({Name, {V, Unit}});
    }
  }

  // Human-readable report, then the environment record, then the result.
  double FailRatio =
      Attempted ? static_cast<double>(Failed) / static_cast<double>(Attempted)
                : 1.0;
  std::printf("workload %s  seed %llu  %zu request(s)%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              Untraced.size() + Traced.size(),
              A.Trace ? " (alternately traced)" : "");
  for (const auto &[Name, VU] : Metrics)
    std::printf("  %-34s %14.6f %s\n", Name.c_str(), VU.first,
                VU.second.c_str());
  std::printf("  %-34s %14.6f MB\n", "proof_mb", ProofMb);
  std::printf("  %-34s %14.6f (%llu of %llu problems failed)\n", "fail_ratio",
              FailRatio, static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));

#ifdef VERIQEC_DISABLE_OBS
  const char *ObsDisabled = "true";
#else
  const char *ObsDisabled = "false";
#endif
  using veriqec::jsonEscape;
  std::printf(
      "record {\"workload\": \"%s\", \"seed\": %llu, \"inputs\": \"%s\", "
      "\"slots\": %zu, \"solver_random_seed\": 0, \"nproc\": %u, "
      "\"cpu_model\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"veriqec_disable_obs\": %s, \"small\": %s, \"setup_batches\": %zu, "
      "\"setups_per_batch\": %zu, "
      "\"requests\": %zu, \"traced_requests\": %zu, \"proof_mb\": %s, "
      "\"fail_ratio\": %s}\n",
      jsonEscape(A.Workload).c_str(), static_cast<unsigned long long>(A.Seed),
      jsonEscape(W->describeInputs()).c_str(), W->slots(),
      std::thread::hardware_concurrency(), jsonEscape(cpuModel()).c_str(),
      jsonEscape(BENCH_COMPILER).c_str(), jsonEscape(BENCH_FLAGS).c_str(),
      jsonEscape(BENCH_BUILD_TYPE).c_str(), jsonEscape(A.Commit).c_str(),
      ObsDisabled, A.Small ? "true" : "false",
      SetupBatchMeans.size(), SetupsPerBatch, Untraced.size(), Traced.size(),
      number(ProofMb).c_str(),
      number(FailRatio).c_str());

  std::string Out = "{\"correct\": " + std::string(Failed ? "false" : "true") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    Out += (I ? ", \"" : "\"") + Metrics[I].first + "\": {\"value\": " +
           number(Metrics[I].second.first) + ", \"unit\": \"" +
           Metrics[I].second.second + "\"}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return Failed ? 1 : 0;
}
