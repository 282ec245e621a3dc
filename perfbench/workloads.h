//===- perfbench/workloads.h - The benchmark's four workloads ---*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads of BENCHMARK.json. Each one builds its inputs in setup()
/// and serves one request per run() call: the timed interval runs from
/// the first public call into veriqec to the last checked verdict, and
/// the independent correctness checks run after it. A traced request
/// additionally times the calls into each layer from here and reads the
/// program's own obs spans and histograms; see README.md.
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_PERFBENCH_WORKLOADS_H
#define VERIQEC_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The per-layer metrics of BENCHMARK.json, (name, unit), in the order
/// they are printed. A layer that does not run on a workload reports 0.
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

/// Per-layer values of one traced request, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// What one request did.
struct RequestResult {
  double WallSeconds = 0; ///< first public call to last checked verdict
  double CpuSeconds = 0;  ///< process CPU time over the same interval
  uint64_t Attempted = 0; ///< problems (scenarios / distance searches)
  uint64_t Failed = 0;    ///< problems that failed a check
  std::vector<std::string> Failures; ///< one line per failed problem
  uint64_t ProofBytes = 0; ///< certificate bytes written by the request
  LayerValues Layers;      ///< filled by traced requests only
};

struct WorkloadOptions {
  uint64_t Seed = 0;
  /// Seconds-long versions of the inputs for the self-test.
  bool Small = false;
  /// Flip one expected answer, so a correct program must fail the run.
  bool PlantWrongAnswer = false;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the codes, scenarios and engine (the setup_s interval).
  virtual void setup() = 0;

  /// Works out the expected answers that take a computation of their
  /// own, such as the brute-force oracle's. Called once, after setup()
  /// and outside every timed interval.
  virtual void computeKnownAnswers() {}

  /// Serves one request and checks its verdicts.
  virtual RequestResult run(bool Traced) = 0;

  /// The fixed inputs and how the seed was used, for the result record.
  virtual std::string describeInputs() const = 0;

  /// Solver slots the workload runs on.
  virtual size_t slots() const = 0;
};

/// The workload names BENCHMARK.json lists.
const std::vector<std::string> &workloadNames();

/// Null when \p Name is not a workload.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const WorkloadOptions &Opts);

} // namespace perfbench

#endif // VERIQEC_PERFBENCH_WORKLOADS_H
