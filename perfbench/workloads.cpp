//===- perfbench/workloads.cpp - The benchmark's four workloads -----------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "engine/VerificationEngine.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "proof/ProofCheck.h"
#include "qec/Codes.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "testing/BruteForceOracle.h"
#include "testing/ReferenceExecutor.h"
#include "testing/ScenarioFuzzer.h"
#include "verifier/Verifier.h"

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <span>
#include <string_view>

using namespace veriqec;

namespace perfbench {
namespace {

double processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}

/// Brackets one request: wall and process CPU time of the timed interval.
class RequestClock {
public:
  void stop(RequestResult &R) const {
    R.WallSeconds = Wall.seconds();
    R.CpuSeconds = processCpuSeconds() - Cpu0;
  }

private:
  Timer Wall;
  double Cpu0 = processCpuSeconds();
};

LayerValues zeroLayers() {
  LayerValues V;
  for (const auto &[Name, Unit] : layerMetricNames())
    V[Name] = 0;
  return V;
}

/// Switches the program's obs spans and histograms on for one traced
/// request and reads them back afterwards.
class ObsCapture {
public:
  ObsCapture() {
    obs::Registry::global().reset();
    obs::setMetricsEnabled(true);
    obs::beginTrace();
  }
  ObsCapture(const ObsCapture &) = delete;
  ObsCapture &operator=(const ObsCapture &) = delete;
  ~ObsCapture() { stop(); }

  /// Ends collection; call once the traced calls have returned.
  void stop() {
    obs::stopTrace();
    obs::setMetricsEnabled(false);
  }

  /// Summed duration of every complete event named \p Name, across all
  /// threads. Chrome trace events render as {"name":N,"ph":"X",...,
  /// "dur":microseconds,...} (obs/Trace.cpp). Renders the trace on first
  /// use, so call it outside the timed interval.
  double spanSeconds(std::string_view Name) {
    stop();
    if (Json.empty())
      Json = obs::renderTraceJson();
    std::string Key = "{\"name\":\"" + std::string(Name) + "\",\"ph\":\"X\"";
    double Us = 0;
    for (size_t Pos = Json.find(Key); Pos != std::string::npos;
         Pos = Json.find(Key, Pos + Key.size())) {
      size_t Dur = Json.find("\"dur\":", Pos);
      if (Dur == std::string::npos)
        break;
      Us += std::strtod(Json.c_str() + Dur + 6, nullptr);
    }
    return Us * 1e-6;
  }

private:
  std::string Json;
};

/// Adds the sat-layer counters of \p S to \p L.
void addSatStats(LayerValues &L, const sat::SolverStats &S) {
  L["sat.conflicts"] += static_cast<double>(S.Conflicts);
  L["sat.decisions"] += static_cast<double>(S.Decisions);
  L["sat.propagations"] += static_cast<double>(S.propagations());
  L["sat.restarts"] += static_cast<double>(S.Restarts);
  L["sat.learned"] += static_cast<double>(S.LearnedClauses);
  L["sat.xor_propagations"] += static_cast<double>(S.XorPropagations);
  L["sat.xor_eliminations"] += static_cast<double>(S.XorEliminations);
  L["sat.arena_peak_bytes"] += static_cast<double>(S.ArenaBytes);
  L["sat.compactions"] += static_cast<double>(S.Compactions);
}

/// The values only the program's obs spans and histograms know, plus
/// derived ratios; runs after the timed interval. \p SolveAllSeconds is
/// the wall time of the request's CubeBackend::solveAll calls (0 when it
/// made none): solveAll encodes and splits every problem itself, so the
/// engine's self time subtracts the encode and enumerate spans, which
/// all ran on one thread at the one-problem or one-slot shapes measured
/// here.
void finishObsLayers(LayerValues &L, ObsCapture &Obs, double SolveAllSeconds) {
  L["smt.encode_s"] =
      Obs.spanSeconds("gf2_preprocess") + Obs.spanSeconds("cnf_encode");
  L["engine.enumerate_s"] = Obs.spanSeconds("cube_enumerate");
  if (SolveAllSeconds > 0)
    L["engine.solve_s"] = std::max(
        0.0, SolveAllSeconds - L["smt.encode_s"] - L["engine.enumerate_s"]);
  L["sat.reduce_db_s"] = Obs.spanSeconds("reduce_db");
  L["sat.gauss_s"] = Obs.spanSeconds("gauss_elim");
  if (L["sat.conflicts"] > 0)
    L["sat.props_per_conflict"] = L["sat.propagations"] / L["sat.conflicts"];
  L["engine.cube_ms_max"] =
      static_cast<double>(
          obs::Registry::global().histogram("engine.cube_wall_us").max()) *
      1e-3;
}

/// Adds the encoding sizes the program reports for one problem to \p L.
/// smt.xor_rows counts the reduced parity rows the encoding keeps: native
/// XOR rows when the XOR engine is on, CNF parity chains otherwise.
void addEncodingSizes(LayerValues &L, size_t CnfVars, size_t CnfClauses,
                      const smt::PreprocessStats &Prep) {
  L["smt.cnf_vars"] += static_cast<double>(CnfVars);
  L["smt.cnf_clauses"] += static_cast<double>(CnfClauses);
  L["smt.xor_rows"] += static_cast<double>(Prep.RowsKept);
  L["smt.vars_eliminated"] += static_cast<double>(Prep.VarsEliminated);
}

/// A CubeBackend in front of the engine's own CubeEngine that times its
/// solveAll calls for a traced request. It adds no work of its own.
class TracingBackend final : public engine::CubeBackend {
public:
  explicit TracingBackend(engine::CubeEngine &Inner) : Inner(Inner) {}

  std::vector<smt::SolveOutcome>
  solveAll(std::span<const engine::CubeProblem> Problems) override {
    for (const engine::CubeProblem &P : Problems)
      ExprNodes += static_cast<double>(P.Ctx->numNodes());
    double Cpu0 = processCpuSeconds();
    Timer Solve;
    std::vector<smt::SolveOutcome> Outcomes = Inner.solveAll(Problems);
    double Wall = Solve.seconds();
    double Cpu = processCpuSeconds() - Cpu0;
    Seconds += Wall;
    if (Wall > 0)
      SlotUtil = Cpu / (Wall * static_cast<double>(Inner.numSlots()));
    return Outcomes;
  }

  size_t numSlots() const override { return Inner.numSlots(); }

  /// Wall time spent inside solveAll.
  double Seconds = 0;
  double ExprNodes = 0;
  double SlotUtil = 0;

private:
  engine::CubeEngine &Inner;
};

/// Runs one verifyAll batch, through the TracingBackend when \p Layers is
/// set, and fills the vcgen, smt, engine and sat counters from it.
/// \p SolveAllSeconds receives the backend's solveAll wall time.
std::vector<VerificationResult>
verifyBatch(engine::VerificationEngine &Engine,
            std::span<const Scenario> Scenarios, const VerifyOptions &Opts,
            LayerValues *Layers, double &SolveAllSeconds) {
  if (!Layers)
    return Engine.verifyAll(Scenarios, Opts);
  TracingBackend Backend(Engine.cubes());
  Timer All;
  std::vector<VerificationResult> Results =
      Engine.verifyAll(Scenarios, Opts, Backend);
  double AllSeconds = All.seconds();
  SolveAllSeconds = Backend.Seconds;

  LayerValues &L = *Layers = zeroLayers();
  // verifyAll's own work outside the backend is buildScenarioVc (symbolic
  // flow + VC assembly) for every scenario.
  L["vcgen.s"] = std::max(0.0, AllSeconds - Backend.Seconds);
  L["vcgen.calls"] = static_cast<double>(Scenarios.size());
  L["vcgen.expr_nodes"] = Backend.ExprNodes;
  L["engine.slot_util"] = Backend.SlotUtil;
  double Cubes = 0, Solved = 0, Pruned = 0;
  for (const VerificationResult &R : Results) {
    L["vcgen.goals"] += static_cast<double>(R.NumGoals);
    Cubes += static_cast<double>(R.NumCubes);
    Solved += static_cast<double>(R.CubesSolved);
    Pruned += static_cast<double>(R.CubesPruned);
    addEncodingSizes(L, R.CnfVars, R.CnfClauses, R.Prep);
    addSatStats(L, R.Stats);
  }
  L["engine.cubes"] = Cubes;
  L["engine.cubes_solved"] = Solved;
  if (Cubes > 0)
    L["engine.pruned_ratio"] = Pruned / Cubes;
  if (Solved > 0)
    L["engine.conflicts_per_cube"] = L["sat.conflicts"] / Solved;
  return Results;
}

/// Empty when \p R is the verdict the known-answer source expects and
/// every certificate it carries checks; otherwise why not. With
/// \p RequireProof an UNSAT verdict must carry a proof that \p Checked
/// accepted.
std::string checkScenario(const Scenario &S, const VerificationResult &R,
                          bool ExpectVerified, bool RequireProof,
                          const std::optional<proof::CheckResult> &Checked) {
  if (!R.StructuralOk)
    return "structural error: " + R.Error;
  if (R.Aborted)
    return "aborted";
  if (R.Verified != ExpectVerified)
    return std::string("verdict ") + (R.Verified ? "VERIFIED" : "FAILED") +
           ", expected " + (ExpectVerified ? "VERIFIED" : "FAILED");
  if (!R.Verified) {
    testing::CertificateCheck C =
        testing::replayCounterExample(S, R.CounterExample);
    if (!C.Genuine)
      return "counterexample does not replay: " + C.Why;
  } else if (RequireProof) {
    if (R.Proof.empty())
      return "UNSAT verdict carries no proof";
    if (!Checked || !Checked->Ok)
      return "proof rejected: " + (Checked ? Checked->Error : "unchecked");
  }
  return "";
}

void recordFailure(RequestResult &Out, const std::string &Problem,
                   const std::string &Why) {
  if (Why.empty())
    return;
  ++Out.Failed;
  Out.Failures.push_back(Problem + ": " + Why);
}

const char *basisName(LogicalBasis B) {
  return B == LogicalBasis::X ? "X" : "Z";
}

//===----------------------------------------------------------------------===//
// prove_s9t4_j1 / prove_s9t4_j4
//===----------------------------------------------------------------------===//

/// One memory scenario proved in cube mode: the cube engine and the sat
/// core, with no proof work.
class ProveWorkload final : public Workload {
public:
  ProveWorkload(size_t Slots, const WorkloadOptions &O)
      : Slots(Slots), Opts(O) {}

  void setup() override {
    // surface9 with t = 4 Y errors: every error of weight <= (d-1)/2 is
    // corrected, so the memory scenario holds.
    Code = makeRotatedSurfaceCode(Opts.Small ? 3 : 9);
    Budget = Opts.Small ? 1 : 4;
    Scn = makeMemoryScenario(Code, PauliKind::Y, LogicalBasis::Z, Budget);
    ExpectVerified = !Opts.PlantWrongAnswer;
    VO.Parallel = true;
    VO.Threads = Slots;
    Engine = std::make_unique<engine::VerificationEngine>(Slots);
  }

  RequestResult run(bool Traced) override {
    RequestResult Out;
    std::optional<ObsCapture> Obs;
    if (Traced)
      Obs.emplace();
    double SolveAllSeconds = 0;
    RequestClock Clock;
    std::vector<VerificationResult> Results =
        verifyBatch(*Engine, {&Scn, 1}, VO, Obs ? &Out.Layers : nullptr,
                    SolveAllSeconds);
    Clock.stop(Out);
    if (Obs)
      finishObsLayers(Out.Layers, *Obs, SolveAllSeconds);

    Out.Attempted = 1;
    recordFailure(Out, Scn.Name,
                  checkScenario(Scn, Results.front(), ExpectVerified,
                                /*RequireProof=*/false, std::nullopt));
    return Out;
  }

  std::string describeInputs() const override {
    return Code.Name + " memory, Y errors, Z basis, budget " +
           std::to_string(Budget) + ", cube mode, " + std::to_string(Slots) +
           " slot(s); the seed is not used";
  }

  size_t slots() const override { return Slots; }

private:
  size_t Slots;
  WorkloadOptions Opts;
  StabilizerCode Code;
  uint32_t Budget = 0;
  Scenario Scn;
  bool ExpectVerified = true;
  VerifyOptions VO;
  std::unique_ptr<engine::VerificationEngine> Engine;
};

//===----------------------------------------------------------------------===//
// distance_ldpc
//===----------------------------------------------------------------------===//

/// computeDistance on the LDPC rows with default options (native XOR on).
class DistanceWorkload final : public Workload {
public:
  explicit DistanceWorkload(const WorkloadOptions &O) : Opts(O) {}

  void setup() override {
    // The distances the code constructions document; the search must
    // reproduce them.
    Codes.clear();
    if (Opts.Small) {
      Codes.push_back({makeSteaneCode(), "steane", 3});
      Codes.push_back({makeTannerIISubstitute(), "tanner2", 4});
    } else {
      Codes.push_back({makeHgp98(), "hgp98", 4});
      Codes.push_back({makeTannerISubstitute(), "tanner1", 4});
      Codes.push_back({makeTannerIISubstitute(), "tanner2", 4});
      Codes.push_back({makeTannerIFull(), "tanner1-full", 4});
    }
    if (Opts.PlantWrongAnswer)
      ++Codes.front().Expected;
  }

  RequestResult run(bool Traced) override {
    RequestResult Out;
    std::optional<ObsCapture> Obs;
    if (Traced)
      Obs.emplace();
    std::vector<DistanceResult> Results;
    std::vector<double> Seconds;
    RequestClock Clock;
    for (const Entry &E : Codes) {
      Timer Call;
      Results.push_back(computeDistance(E.Code, VerifyOptions{}));
      Seconds.push_back(Call.seconds());
    }
    Clock.stop(Out);

    if (Obs) {
      LayerValues &L = Out.Layers = zeroLayers();
      for (size_t I = 0; I != Codes.size(); ++I) {
        const DistanceResult &R = Results[I];
        L["verifier.distance_s." + Codes[I].Label] = Seconds[I];
        L["verifier.solver_calls"] += static_cast<double>(R.SolverCalls);
        addEncodingSizes(L, R.CnfVars, R.CnfClauses, R.Prep);
        addSatStats(L, R.Stats);
      }
      finishObsLayers(L, *Obs, /*SolveAllSeconds=*/0);
    }

    for (size_t I = 0; I != Codes.size(); ++I) {
      ++Out.Attempted;
      recordFailure(Out, Codes[I].Label, check(Codes[I], Results[I]));
    }
    return Out;
  }

  std::string describeInputs() const override {
    std::string S = "computeDistance, default options, codes";
    for (const Entry &E : Codes)
      S += " " + E.Label;
    return S + "; the seed is not used";
  }

  size_t slots() const override { return 1; }

private:
  struct Entry {
    StabilizerCode Code;
    std::string Label;
    size_t Expected = 0;
  };

  static std::string check(const Entry &E, const DistanceResult &R) {
    if (!R.Ok)
      return R.Aborted ? "aborted" : "error: " + R.Error;
    if (E.Code.Distance != E.Expected)
      return "registry documents d=" + std::to_string(E.Code.Distance) +
             ", expected " + std::to_string(E.Expected);
    if (R.Distance != E.Expected)
      return "distance " + std::to_string(R.Distance) + ", expected " +
             std::to_string(E.Expected);
    if (!R.Witness)
      return "no witness";
    if (!E.Code.isLogicalOperator(*R.Witness))
      return "witness is not a logical operator";
    if (R.Witness->weight() != E.Expected)
      return "witness weight " + std::to_string(R.Witness->weight());
    return "";
  }

  WorkloadOptions Opts;
  std::vector<Entry> Codes;
};

//===----------------------------------------------------------------------===//
// certified_batch
//===----------------------------------------------------------------------===//

/// One verifyAll batch at one slot with proof logging; every UNSAT
/// certificate is replayed by proof::checkProof inside the timed
/// interval. The first request runs the batch in its listed order and
/// later ones in the order the seed shuffles. The order moves the peak
/// memory by up to 30% (README.md); peak_rss_mb is read after the first
/// request, so it does not follow the seed.
class CertifiedBatchWorkload final : public Workload {
public:
  explicit CertifiedBatchWorkload(const WorkloadOptions &O) : Opts(O) {}

  void setup() override {
    Problems.clear();
    Listed.clear();
    // Hand-written known answers. A budget of t = (d-1)/2 errors is
    // corrected by every code below, so those scenarios hold; the
    // repetition code has no phase-flip protection (Y errors break the
    // X-basis logical), and surface9 cannot correct 5 > (9-1)/2 errors.
    auto Add = [&](const StabilizerCode &Code, const std::string &Shape,
                   LogicalBasis B, Scenario S, bool Verified) {
      std::string Label = Code.Name + "/" + Shape + "/" + basisName(B);
      Problems.push_back({std::move(Label), Verified, /*FromOracle=*/false,
                          /*NoAnswer=*/""});
      Listed.push_back(std::move(S));
    };
    auto Budget = [](const StabilizerCode &C) {
      return static_cast<uint32_t>(C.Distance >= 3 ? (C.Distance - 1) / 2 : 1);
    };
    const PauliKind K = PauliKind::Y;
    std::vector<StabilizerCode> Table3;
    if (Opts.Small)
      Table3 = {makeRepetitionCode(5), makeRotatedSurfaceCode(3)};
    else
      Table3 = {makeRepetitionCode(5), makeSteaneCode(),
                makeFiveQubitCode(),   makeSixQubitCode(),
                makeRotatedSurfaceCode(3), makeXzzxSurfaceCode(3, 3),
                makeReedMullerCode(3), makeDodecacodeSubstitute(),
                makeHoneycombSubstitute()};
    for (LogicalBasis B : {LogicalBasis::Z, LogicalBasis::X}) {
      // fig9: the fault-tolerant gadgets on the Steane code.
      StabilizerCode Steane = makeSteaneCode();
      uint32_t T = Budget(Steane);
      Add(Steane, "memory", B, makeMemoryScenario(Steane, K, B, T), true);
      Add(Steane, "logical-h", B, makeLogicalHScenario(Steane, K, B, T), true);
      Add(Steane, "multicycle", B,
          makeMultiCycleScenario(Steane, K, B, 2, T), true);
      Add(Steane, "correction-step", B,
          makeCorrectionStepErrorScenario(Steane, K, B, T), true);
      Add(Steane, "ghz", B, makeGhzScenario(Steane, K, B, T), true);
      Add(Steane, "cnot", B, makeLogicalCnotScenario(Steane, K, B, T), true);
      // table3: memory on the odd-distance suite.
      for (const StabilizerCode &C : Table3) {
        bool Holds = !(C.Name == "repetition-5" && B == LogicalBasis::X);
        Add(C, "memory", B, makeMemoryScenario(C, K, B, Budget(C)), Holds);
      }
      if (!Opts.Small) {
        StabilizerCode S5 = makeRotatedSurfaceCode(5);
        Add(S5, "multicycle", B, makeMultiCycleScenario(S5, K, B, 2, 2), true);
        Add(S5, "correction-step", B,
            makeCorrectionStepErrorScenario(S5, K, B, 2), true);
        Add(S5, "cnot", B, makeLogicalCnotScenario(S5, K, B, 2), true);
      }
    }
    StabilizerCode Over = makeRotatedSurfaceCode(Opts.Small ? 3 : 9);
    uint32_t OverBudget = Opts.Small ? 2 : 5;
    Add(Over, "memory-t" + std::to_string(OverBudget), LogicalBasis::Z,
        makeMemoryScenario(Over, K, LogicalBasis::Z, OverBudget), false);
    if (Opts.PlantWrongAnswer)
      Problems.front().ExpectVerified = !Problems.front().ExpectVerified;

    // Seeded fuzz cases whose answer the brute-force oracle decides
    // (constraint-free, so they fit one batch-wide VerifyOptions).
    Rng R(Opts.Seed);
    size_t Wanted = Opts.Small ? 2 : 4;
    FuzzSeeds.clear();
    while (FuzzSeeds.size() != Wanted) {
      uint64_t Seed = R.next();
      testing::FuzzCase C = testing::generateFuzzCase(Seed);
      if (C.Constraint.K != testing::ConstraintSpec::Kind::None ||
          testing::bruteForceWorkEstimate(C.Scn) > MaxOracleWork)
        continue;
      FuzzSeeds.push_back(Seed);
      Problems.push_back({"fuzz/" + std::to_string(Seed),
                          /*ExpectVerified=*/true, /*FromOracle=*/true,
                          /*NoAnswer=*/""});
      Listed.push_back(std::move(C.Scn));
    }

    // The seed also fixes the order in which later requests multiplex
    // the batch.
    SeedOrder.resize(Listed.size());
    for (size_t I = 0; I != SeedOrder.size(); ++I)
      SeedOrder[I] = I;
    for (size_t I = SeedOrder.size(); I-- > 1;)
      std::swap(SeedOrder[I], SeedOrder[R.nextBelow(I + 1)]);
    Shuffled.clear();
    for (size_t I : SeedOrder)
      Shuffled.push_back(Listed[I]);
    Requests = 0;

    VO.Parallel = true;
    VO.Threads = 1;
    VO.LogProofs = true;
    Engine = std::make_unique<engine::VerificationEngine>(1);
  }

  /// Fills the fuzz cases' expected verdicts from the brute-force oracle.
  void computeKnownAnswers() override {
    for (size_t I = 0; I != Problems.size(); ++I) {
      Problem &P = Problems[I];
      if (!P.FromOracle)
        continue;
      testing::OracleResult O = testing::bruteForceVerify(Listed[I]);
      if (O.Status == testing::OracleStatus::Verified ||
          O.Status == testing::OracleStatus::CounterExample)
        P.ExpectVerified = O.Status == testing::OracleStatus::Verified;
      else
        P.NoAnswer = "oracle: " + O.Detail;
    }
  }

  RequestResult run(bool Traced) override {
    RequestResult Out;
    std::optional<ObsCapture> Obs;
    if (Traced)
      Obs.emplace();
    bool InListedOrder = Requests++ == 0;
    const std::vector<Scenario> &Batch = InListedOrder ? Listed : Shuffled;
    std::vector<std::optional<proof::CheckResult>> Checks(Batch.size());
    double CheckSeconds = 0, SolveAllSeconds = 0;
    RequestClock Clock;
    std::vector<VerificationResult> Results = verifyBatch(
        *Engine, Batch, VO, Obs ? &Out.Layers : nullptr, SolveAllSeconds);
    for (size_t I = 0; I != Results.size(); ++I) {
      if (!Results[I].Verified || Results[I].Proof.empty())
        continue;
      Timer Check;
      Checks[I] = proof::checkProof(Results[I].Proof);
      CheckSeconds += Check.seconds();
    }
    Clock.stop(Out);

    double Certificates = 0;
    for (const VerificationResult &R : Results) {
      Out.ProofBytes += R.Proof.size();
      Certificates += R.Proof.empty() ? 0 : 1;
    }
    if (Obs) {
      Out.Layers["proof.check_s"] = CheckSeconds;
      Out.Layers["proof.bytes"] = static_cast<double>(Out.ProofBytes);
      Out.Layers["proof.certificates"] = Certificates;
      finishObsLayers(Out.Layers, *Obs, SolveAllSeconds);
    }

    for (size_t I = 0; I != Results.size(); ++I) {
      size_t J = InListedOrder ? I : SeedOrder[I];
      const Problem &P = Problems[J];
      ++Out.Attempted;
      recordFailure(Out, P.Label,
                    P.NoAnswer.empty()
                        ? checkScenario(Listed[J], Results[I],
                                        P.ExpectVerified,
                                        /*RequireProof=*/true, Checks[I])
                        : "no independent answer: " + P.NoAnswer);
    }
    return Out;
  }

  std::string describeInputs() const override {
    std::string S = std::to_string(Problems.size()) +
                    " scenarios (fig9 steane, table3, " +
                    (Opts.Small ? "" : "surface5 multicycle/correction-step/"
                                       "cnot, ") +
                    "over-budget surface memory, fuzz seeds";
    for (uint64_t Seed : FuzzSeeds)
      S += " " + std::to_string(Seed);
    return S + "), listed order on the first request and shuffled by the "
               "seed after it, 1 slot, proofs logged and checked";
  }

  size_t slots() const override { return 1; }

private:
  /// The known answer for the scenario at the same index of Listed.
  struct Problem {
    std::string Label;
    bool ExpectVerified = true;
    bool FromOracle = false; ///< expected verdict comes from the oracle
    std::string NoAnswer;    ///< why the oracle could not decide it
  };

  static constexpr uint64_t MaxOracleWork = 100000;

  WorkloadOptions Opts;
  std::vector<Problem> Problems;
  std::vector<Scenario> Listed;
  /// Shuffled[I] is Listed[SeedOrder[I]].
  std::vector<size_t> SeedOrder;
  std::vector<Scenario> Shuffled;
  std::vector<uint64_t> FuzzSeeds;
  size_t Requests = 0;
  VerifyOptions VO;
  std::unique_ptr<engine::VerificationEngine> Engine;
};

} // namespace

const std::vector<std::pair<std::string, std::string>> &layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"vcgen.s", "s"},
      {"vcgen.calls", "count"},
      {"vcgen.expr_nodes", "count"},
      {"vcgen.goals", "count"},
      {"smt.encode_s", "s"},
      {"smt.cnf_vars", "count"},
      {"smt.cnf_clauses", "count"},
      {"smt.xor_rows", "count"},
      {"smt.vars_eliminated", "count"},
      {"engine.enumerate_s", "s"},
      {"engine.solve_s", "s"},
      {"engine.cubes", "count"},
      {"engine.cubes_solved", "count"},
      {"engine.pruned_ratio", "ratio"},
      {"engine.conflicts_per_cube", "count"},
      {"engine.slot_util", "ratio"},
      {"engine.cube_ms_max", "ms"},
      {"sat.conflicts", "count"},
      {"sat.decisions", "count"},
      {"sat.propagations", "count"},
      {"sat.props_per_conflict", "count"},
      {"sat.restarts", "count"},
      {"sat.learned", "count"},
      {"sat.xor_propagations", "count"},
      {"sat.xor_eliminations", "count"},
      {"sat.arena_peak_bytes", "bytes"},
      {"sat.compactions", "count"},
      {"sat.reduce_db_s", "s"},
      {"sat.gauss_s", "s"},
      {"verifier.distance_s.hgp98", "s"},
      {"verifier.distance_s.tanner1", "s"},
      {"verifier.distance_s.tanner2", "s"},
      {"verifier.distance_s.tanner1-full", "s"},
      {"verifier.solver_calls", "count"},
      {"proof.check_s", "s"},
      {"proof.bytes", "bytes"},
      {"proof.certificates", "count"},
      {"trace.overhead_s", "s"},
  };
  return Names;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "prove_s9t4_j1", "prove_s9t4_j4", "distance_ldpc", "certified_batch"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const WorkloadOptions &Opts) {
  if (Name == "prove_s9t4_j1")
    return std::make_unique<ProveWorkload>(1, Opts);
  if (Name == "prove_s9t4_j4")
    return std::make_unique<ProveWorkload>(4, Opts);
  if (Name == "distance_ldpc")
    return std::make_unique<DistanceWorkload>(Opts);
  if (Name == "certified_batch")
    return std::make_unique<CertifiedBatchWorkload>(Opts);
  return nullptr;
}

} // namespace perfbench
