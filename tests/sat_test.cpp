//===- tests/sat_test.cpp - CDCL solver unit tests -------------------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

using namespace veriqec;
using namespace veriqec::sat;

namespace {

/// Brute-force satisfiability for cross-checking (n <= 20).
bool bruteForceSat(size_t NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Mask = 0; Mask != (uint64_t{1} << NumVars); ++Mask) {
    bool AllSat = true;
    for (const auto &C : Clauses) {
      bool ClauseSat = false;
      for (Lit L : C) {
        bool V = (Mask >> L.var()) & 1;
        if (V != L.negated()) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

/// Pigeonhole PHP(Pigeons, Holes): UNSAT when Pigeons > Holes, and hard
/// enough for CDCL to restart and reduce — the workload the arena
/// battery needs.
std::vector<std::vector<Lit>> pigeonholeClauses(size_t Pigeons, size_t Holes,
                                                size_t &NumVars) {
  NumVars = Pigeons * Holes;
  auto VarOf = [Holes](size_t P, size_t H) {
    return static_cast<Var>(P * Holes + H);
  };
  std::vector<std::vector<Lit>> Clauses;
  for (size_t P = 0; P != Pigeons; ++P) {
    std::vector<Lit> C;
    for (size_t H = 0; H != Holes; ++H)
      C.push_back(mkLit(VarOf(P, H)));
    Clauses.push_back(std::move(C));
  }
  for (size_t H = 0; H != Holes; ++H)
    for (size_t P = 0; P != Pigeons; ++P)
      for (size_t Q = P + 1; Q != Pigeons; ++Q)
        Clauses.push_back({~mkLit(VarOf(P, H)), ~mkLit(VarOf(Q, H))});
  return Clauses;
}

} // namespace

TEST(LubySequence, FirstValues) {
  // 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  const uint64_t Expected[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (size_t I = 0; I != std::size(Expected); ++I)
    EXPECT_EQ(lubySequence(I + 1), Expected[I]) << "index " << I + 1;
}

TEST(Solver, EmptyFormulaIsSat) {
  Solver S;
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(Solver, UnitPropagationChain) {
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause(mkLit(A));
  S.addClause(~mkLit(A), mkLit(B));
  S.addClause(~mkLit(B), mkLit(C));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  EXPECT_TRUE(S.modelValue(C));
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
  Solver S;
  Var A = S.newVar();
  S.addClause(mkLit(A));
  EXPECT_FALSE(S.addClause(~mkLit(A)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, SimpleBacktrackingInstance) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  S.addClause(mkLit(A), ~mkLit(B));
  S.addClause(~mkLit(A), mkLit(B));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Solver, XorChainUnsat) {
  // a^b=1, b^c=1, a^c=1 is unsatisfiable (sum of all three is 1 = 0).
  Solver S;
  Var A = S.newVar(), B = S.newVar(), C = S.newVar();
  auto addXorEq1 = [&](Var X, Var Y) {
    S.addClause(mkLit(X), mkLit(Y));
    S.addClause(~mkLit(X), ~mkLit(Y));
  };
  addXorEq1(A, B);
  addXorEq1(B, C);
  addXorEq1(A, C);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonholePrinciple) {
  // 5 pigeons into 4 holes: UNSAT and requires real conflict analysis.
  const int Pigeons = 5, Holes = 4;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (int I = 0; I != Pigeons; ++I)
    for (int J = 0; J != Holes; ++J)
      P[I][J] = S.newVar();
  for (int I = 0; I != Pigeons; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J != Holes; ++J)
      C.push_back(mkLit(P[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J != Holes; ++J)
    for (int I1 = 0; I1 != Pigeons; ++I1)
      for (int I2 = I1 + 1; I2 != Pigeons; ++I2)
        S.addClause(~mkLit(P[I1][J]), ~mkLit(P[I2][J]));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(Solver, AssumptionsRestrictAndRelease) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause(mkLit(A), mkLit(B));
  EXPECT_EQ(S.solve({~mkLit(A), ~mkLit(B)}), SolveResult::Unsat);
  // The formula itself stays satisfiable afterwards.
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_EQ(S.solve({~mkLit(A)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(B));
}

TEST(Solver, ConflictBudgetAborts) {
  // A hard pigeonhole instance with a tiny budget must abort.
  const int Pigeons = 9, Holes = 8;
  Solver S;
  std::vector<std::vector<Var>> P(Pigeons, std::vector<Var>(Holes));
  for (int I = 0; I != Pigeons; ++I)
    for (int J = 0; J != Holes; ++J)
      P[I][J] = S.newVar();
  for (int I = 0; I != Pigeons; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J != Holes; ++J)
      C.push_back(mkLit(P[I][J]));
    S.addClause(C);
  }
  for (int J = 0; J != Holes; ++J)
    for (int I1 = 0; I1 != Pigeons; ++I1)
      for (int I2 = I1 + 1; I2 != Pigeons; ++I2)
        S.addClause(~mkLit(P[I1][J]), ~mkLit(P[I2][J]));
  S.setConflictBudget(10);
  EXPECT_EQ(S.solve(), SolveResult::Aborted);
}

TEST(Solver, RandomInstancesMatchBruteForce) {
  Rng R(99);
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t NumVars = 4 + R.nextBelow(9); // 4..12
    size_t NumClauses = 2 + R.nextBelow(5 * NumVars);
    std::vector<std::vector<Lit>> Clauses;
    for (size_t C = 0; C != NumClauses; ++C) {
      size_t Len = 1 + R.nextBelow(3);
      std::vector<Lit> Clause;
      for (size_t L = 0; L != Len; ++L)
        Clause.push_back(
            Lit(static_cast<Var>(R.nextBelow(NumVars)), R.nextBool()));
      Clauses.push_back(std::move(Clause));
    }

    Solver S;
    for (size_t V = 0; V != NumVars; ++V)
      S.newVar();
    bool AddOk = true;
    for (const auto &C : Clauses)
      AddOk = S.addClause(C) && AddOk;
    SolveResult Res = AddOk ? S.solve() : SolveResult::Unsat;
    bool Expected = bruteForceSat(NumVars, Clauses);
    ASSERT_EQ(Res == SolveResult::Sat, Expected) << "trial " << Trial;

    // Any reported model must satisfy every clause.
    if (Res == SolveResult::Sat) {
      for (const auto &C : Clauses) {
        bool Sat = false;
        for (Lit L : C)
          Sat |= S.modelValue(L.var()) != L.negated();
        EXPECT_TRUE(Sat);
      }
    }
  }
}

TEST(Solver, RepeatedSolvesAreConsistent) {
  Rng R(123);
  Solver S;
  const size_t NumVars = 30;
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (size_t C = 0; C != 80; ++C) {
    std::vector<Lit> Clause;
    for (size_t L = 0; L != 3; ++L)
      Clause.push_back(
          Lit(static_cast<Var>(R.nextBelow(NumVars)), R.nextBool()));
    S.addClause(Clause);
  }
  SolveResult First = S.solve();
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(S.solve(), First);
}

TEST(Solver, ReuseAcrossAssumptionSetsStaysSound) {
  // Regression test: a learnt clause that backjumps below the assumption
  // prefix must not be reported as UNSAT-under-assumptions, and solver
  // state carried across solve() calls (learnt clauses, saved phases,
  // level-0 units, the kept assumption-prefix trail) must never flip a
  // verdict. One reused solver walks every cube of a formula in order
  // and is checked against a fresh solver on each cube: many random
  // formulas, plus the cube engine's reuse pattern on pigeonhole —
  // every hole pair of the first two pigeons of the unsatisfiable
  // PHP(7,6) (dense in prefix-crossing backjumps), and every hole of
  // the first pigeon of the satisfiable PHP(6,6).
  struct ReuseCase {
    std::string Name;
    size_t NumVars = 0;
    std::vector<std::vector<Lit>> Clauses;
    std::vector<std::vector<Lit>> Cubes;
  };
  std::vector<ReuseCase> Cases;
  Rng R(2025);
  for (int Trial = 0; Trial != 20; ++Trial) {
    ReuseCase C{"random trial " + std::to_string(Trial), 14, {}, {}};
    for (size_t I = 0; I != 50; ++I) {
      std::vector<Lit> Clause;
      for (size_t L = 0; L != 3; ++L)
        Clause.push_back(
            Lit(static_cast<Var>(R.nextBelow(C.NumVars)), R.nextBool()));
      C.Clauses.push_back(Clause);
    }
    for (int Cube = 0; Cube != 16; ++Cube) {
      std::vector<Lit> Assumptions;
      for (int B = 0; B != 4; ++B)
        Assumptions.push_back(Lit(static_cast<Var>(B), (Cube >> B) & 1));
      C.Cubes.push_back(Assumptions);
    }
    Cases.push_back(std::move(C));
  }
  {
    ReuseCase C{"php(7,6)", 0, {}, {}};
    C.Clauses = pigeonholeClauses(7, 6, C.NumVars);
    for (size_t H0 = 0; H0 != 6; ++H0)
      for (size_t H1 = 0; H1 != 6; ++H1)
        C.Cubes.push_back({mkLit(static_cast<Var>(H0)),
                           mkLit(static_cast<Var>(6 + H1))});
    Cases.push_back(std::move(C));
  }
  {
    ReuseCase C{"php(6,6)", 0, {}, {}};
    C.Clauses = pigeonholeClauses(6, 6, C.NumVars);
    for (size_t H0 = 0; H0 != 6; ++H0)
      C.Cubes.push_back({mkLit(static_cast<Var>(H0))});
    Cases.push_back(std::move(C));
  }

  for (const ReuseCase &C : Cases) {
    Solver Reused;
    for (size_t V = 0; V != C.NumVars; ++V)
      Reused.newVar();
    bool Ok = true;
    for (const auto &Clause : C.Clauses)
      Ok = Reused.addClause(Clause) && Ok;
    if (!Ok)
      continue;

    for (size_t I = 0; I != C.Cubes.size(); ++I) {
      const std::vector<Lit> &Cube = C.Cubes[I];
      Solver Fresh;
      for (size_t V = 0; V != C.NumVars; ++V)
        Fresh.newVar();
      for (const auto &Clause : C.Clauses)
        Fresh.addClause(Clause);
      SolveResult A = Reused.solve(Cube);
      SolveResult B = Fresh.solve(Cube);
      ASSERT_EQ(A, B) << C.Name << " cube " << I;
      if (A == SolveResult::Unsat) {
        // The failed-assumption core must be a subset of the cube.
        for (Lit L : Reused.conflictCore())
          EXPECT_NE(std::find(Cube.begin(), Cube.end(), L), Cube.end())
              << C.Name << " cube " << I;
        continue;
      }
      for (Lit L : Cube)
        EXPECT_NE(Reused.modelValue(L.var()), L.negated())
            << C.Name << " cube " << I << ": model breaks an assumption";
      for (const auto &Clause : C.Clauses) {
        bool SatC = false;
        for (Lit L : Clause)
          SatC |= Reused.modelValue(L.var()) != L.negated();
        EXPECT_TRUE(SatC) << C.Name << " cube " << I;
      }
    }
  }
}

// ---- Clause-arena and reduceDB battery -------------------------------------

#include "obs/Trace.h"
#include "proof/ProofCheck.h"
#include "proof/ProofLog.h"
#include "qec/Codes.h"
#include "smt/CubeSolver.h"

TEST(ReduceDB, LearntDbStaysPinnedAndArenaIsCompacted) {
  // Regression test for the reduceDB accounting bug: the trigger used to
  // count only unlocked candidates, so the learnt DB (and the memory
  // behind it) could grow far past MaxLearned, and deleted clauses were
  // tombstoned but never reclaimed. With the live-learnt trigger and the
  // arena collector the DB stays pinned near the cap and the arena
  // shrinks back after compaction.
  size_t NumVars = 0;
  std::vector<std::vector<Lit>> Clauses = pigeonholeClauses(9, 8, NumVars);
  Solver S;
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (const auto &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  S.setMaxLearned(64);
  S.setGarbageFraction(0.2);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  // Enough work to have cycled the DB many times over.
  EXPECT_GT(S.stats().Conflicts, 1000u);
  EXPECT_GT(S.stats().LearnedClauses, S.liveLearnts());
  // The pin: reductions happen on restarts, so the DB can overshoot the
  // cap by at most one restart interval of fresh lemmas.
  EXPECT_LE(S.liveLearnts(), 1024u);
  // Deleted clauses were really reclaimed, not just tombstoned.
  EXPECT_GE(S.stats().Compactions, 1u);
  EXPECT_GT(S.stats().WastedBytes, 0u);
  EXPECT_LT(S.arenaBytes(), S.stats().ArenaBytes);
}

TEST(ClauseArena, RelocationPreservesVerdictsAndModelCounts) {
  // Verdict + model-count equality with compaction forced after every
  // solver call vs. disabled, across both cardinality encodings and
  // xor on/off. The forced collector relocates every live clause each
  // round (watchers, reasons, proof-id words and all), so any stale
  // ClauseRef shows up as a wrong verdict, a corrupted model, or a
  // crash. A third run counts the models cube by cube instead (all 8
  // assignments of three named variables as assumptions, one reused
  // solver), so the counts also hold across assumption-prefix reuse and
  // backjumps below the prefix.
  using smt::BoolContext;
  using smt::CardinalityEncoding;
  using smt::ExprRef;
  constexpr size_t N = 8;
  BoolContext Ctx;
  std::vector<std::string> Names;
  std::vector<ExprRef> Vars;
  for (size_t I = 0; I != N; ++I) {
    Names.push_back("e" + std::to_string(I));
    Vars.push_back(Ctx.mkVar(Names.back()));
  }
  ExprRef Root = Ctx.mkAnd({Ctx.mkAtMost(Vars, 3), Ctx.mkAtLeast(Vars, 2),
                            Ctx.mkXor(Vars[0], Vars[N - 1])});
  // Ground truth over the named variables by exhaustive evaluation.
  size_t Expected = 0;
  for (uint64_t Mask = 0; Mask != (uint64_t{1} << N); ++Mask) {
    std::vector<bool> A;
    for (size_t I = 0; I != N; ++I)
      A.push_back((Mask >> I) & 1);
    Expected += Ctx.evaluate(Root, A);
  }
  ASSERT_GT(Expected, 0u);

  for (CardinalityEncoding Enc : {CardinalityEncoding::SequentialCounter,
                                  CardinalityEncoding::PairwiseNaive}) {
    for (bool NativeXor : {false, true}) {
      smt::SolveOptions Opts;
      Opts.CardEnc = Enc;
      Opts.Xor = NativeXor ? smt::XorMode::On : smt::XorMode::Off;
      Opts.SplitVars = Names; // protect every named var from elimination
      smt::VerificationProblem Problem(
          Ctx, Root, smt::makeProblemOptions(Ctx, Opts));
      ASSERT_FALSE(Problem.TriviallyUnsat);
      // (ForceGc, Cubed) per run.
      const std::pair<bool, bool> Runs[] = {
          {false, false}, {true, false}, {false, true}};
      for (auto [ForceGc, Cubed] : Runs) {
        Solver S = Problem.makeSolver();
        S.setGarbageFraction(ForceGc ? 0.0 : 1e9);
        size_t Models = 0;
        for (uint64_t Cube = 0; Cube != (Cubed ? 8 : 1); ++Cube) {
          std::vector<Lit> Assume;
          for (size_t I = 0; Cubed && I != 3; ++I) {
            Var V = Problem.varOfName(Names[I]);
            Assume.push_back((Cube >> I) & 1 ? mkLit(V) : ~mkLit(V));
          }
          while (S.solve(Assume) == SolveResult::Sat) {
            ++Models;
            ASSERT_LE(Models, Expected)
                << "enc " << int(Enc) << " xor " << NativeXor << " gc "
                << ForceGc << " cubed " << Cubed;
            std::vector<Lit> Block;
            for (const auto &[Name, V] : Problem.NamedVars)
              Block.push_back(S.modelValue(V) ? ~mkLit(V) : mkLit(V));
            if (!S.addClause(Block))
              break; // blocking clause empty at root: no models left
            if (ForceGc)
              S.forceGarbageCollect();
          }
        }
        EXPECT_EQ(Models, Expected)
            << "enc " << int(Enc) << " xor " << NativeXor << " gc "
            << ForceGc << " cubed " << Cubed;
        if (ForceGc) {
          // The final blocking clause can close the formula at the root,
          // skipping that round's collection.
          EXPECT_GE(S.stats().Compactions + 1, Models);
        }
      }
    }
  }
}

TEST(ProofRoundTrip, CertificateSurvivesRepeatedCompaction) {
  // Proof identities live inside clause memory now; this drives enough
  // reductions and compactions through an UNSAT run that any proof-id
  // word lost or scrambled by relocation produces a certificate the
  // checker rejects (dangling d-record, wrong a-record serial).
  size_t NumVars = 0;
  std::vector<std::vector<Lit>> Clauses = pigeonholeClauses(8, 7, NumVars);
  Solver S;
  proof::SlotProofLog Log;
  S.setProofSink(&Log);
  S.setMaxLearned(32);
  S.setGarbageFraction(0.0);
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (const auto &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  ASSERT_GE(S.stats().Compactions, 3u)
      << "battery must exercise at least three relocation passes";
  Log.logConclusion({}, {});

  std::string Proof = "p veriqec proof 1\nv " + std::to_string(NumVars) + "\n";
  for (const auto &C : Clauses) {
    Proof += 'o';
    for (Lit L : C) {
      Proof += ' ';
      Proof += std::to_string(L.negated() ? -(L.var() + 1) : (L.var() + 1));
    }
    Proof += " 0\n";
  }
  Proof += "s 0\n";
  Proof += Log.drain();
  proof::CheckResult CR = proof::checkProof(Proof);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  EXPECT_TRUE(CR.GlobalUnsat);
  EXPECT_GT(CR.Deletions, 0u);
}

namespace {

/// Runs checkWatchInvariants() after every reduction and keeps the
/// first violation it reports.
class AuditingSolver : public Solver {
public:
  size_t Reductions = 0;
  std::string FirstViolation;

protected:
  void afterReduceDB() override {
    ++Reductions;
    if (FirstViolation.empty())
      FirstViolation = checkWatchInvariants();
  }
};

/// The distance search's problem for \p Code: an unknown Pauli (x_q,
/// z_q) that commutes with every generator yet anticommutes with some
/// logical operator, with the per-qubit supports as weight budget. Pure
/// parity plus a counter, so with native XOR the learnt database fills
/// with never-watched XOR reason clauses.
smt::VerificationProblem distanceProblem(const StabilizerCode &Code) {
  smt::BoolContext Ctx;
  std::vector<smt::ExprRef> X, Z, Support, Constraints, Logical;
  for (size_t Q = 0; Q != Code.NumQubits; ++Q) {
    X.push_back(Ctx.mkVar("x" + std::to_string(Q)));
    Z.push_back(Ctx.mkVar("z" + std::to_string(Q)));
    Support.push_back(Ctx.mkOr(X[Q], Z[Q]));
  }
  auto anticommutes = [&](const Pauli &G) {
    std::vector<smt::ExprRef> Terms;
    for (size_t Q = 0; Q != Code.NumQubits; ++Q) {
      if (G.zBits().get(Q))
        Terms.push_back(X[Q]);
      if (G.xBits().get(Q))
        Terms.push_back(Z[Q]);
    }
    return Ctx.mkXor(std::move(Terms));
  };
  for (const Pauli &G : Code.Generators)
    Constraints.push_back(Ctx.mkNot(anticommutes(G)));
  for (size_t J = 0; J != Code.NumLogical; ++J) {
    Logical.push_back(anticommutes(Code.LogicalX[J]));
    Logical.push_back(anticommutes(Code.LogicalZ[J]));
  }
  Constraints.push_back(Ctx.mkOr(std::move(Logical)));
  smt::ProblemOptions PO;
  PO.NativeXor = true;
  PO.BudgetTerms = Support;
  return smt::VerificationProblem(Ctx, Ctx.mkAnd(std::move(Constraints)),
                                  PO);
}

} // namespace

TEST(ReduceDB, WatchListsStayNormalizedAndVictimFree) {
  // reduceDB unlinks victims from their own two watch lists only, sorts
  // only the lists flagged out of order, and decides "locked" from the
  // reason slot of C[0]. Audit the watch structure after every reduction
  // of a search dominated by XOR reason clauses, with compaction at
  // every restart (relocation renumbers offsets, so it flags lists) and
  // never, with and without proof logging.
  smt::VerificationProblem Problem = distanceProblem(makeTannerIISubstitute());
  ASSERT_FALSE(Problem.TriviallyUnsat);
  ASSERT_FALSE(Problem.XorRows.empty());
  // The distance probes: existence, below the distance (UNSAT: tanner2
  // has d = 4), at it.
  const uint32_t Bounds[] = {
      static_cast<uint32_t>(makeTannerIISubstitute().NumQubits), 3, 4};
  const std::vector<SolveResult> Expected = {
      SolveResult::Sat, SolveResult::Unsat, SolveResult::Sat};
  // Conflicts per (compaction, proof) run. Watch lists are ordered by
  // arena offset and compaction renumbers offsets, so compaction may
  // steer the search; proof logging must not.
  uint64_t Conflicts[2][2] = {};
  for (bool Gc : {true, false}) {
    for (bool Proof : {false, true}) {
      AuditingSolver S;
      Problem.loadInto(S);
      proof::SlotProofLog Log;
      if (Proof)
        S.setProofSink(&Log);
      S.setMaxLearned(32);
      S.setGarbageFraction(Gc ? 0.0 : 1e9);
      std::vector<SolveResult> Verdicts;
      for (uint32_t MaxW : Bounds) {
        std::vector<Lit> Assumptions;
        Problem.appendWeightAssumptions(MaxW, Assumptions, 1);
        Verdicts.push_back(S.solve(Assumptions));
        EXPECT_EQ(S.checkWatchInvariants(), "") << "after bound " << MaxW;
      }
      EXPECT_EQ(Verdicts, Expected) << "gc " << Gc << " proof " << Proof;
      EXPECT_EQ(S.FirstViolation, "") << "gc " << Gc << " proof " << Proof;
      EXPECT_GE(S.Reductions, 10u) << "gc " << Gc << " proof " << Proof;
      EXPECT_GT(S.stats().XorPropagations, 0u);
      EXPECT_EQ(S.stats().Compactions > 0, Gc);
      Conflicts[Gc][Proof] = S.stats().Conflicts;
    }
    EXPECT_EQ(Conflicts[Gc][0], Conflicts[Gc][1]) << "gc " << Gc;
  }
}

TEST(ReduceDB, TraceSpanReportsVictimsAndListsTouched) {
  // The reduce_db span says what a reduction cost was spent on: how many
  // clauses it deleted, how many watch lists it unlinked them from, and
  // how many flagged lists it re-sorted.
  size_t NumVars = 0;
  std::vector<std::vector<Lit>> Clauses = pigeonholeClauses(7, 6, NumVars);
  Solver S;
  for (size_t V = 0; V != NumVars; ++V)
    S.newVar();
  for (const auto &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  S.setMaxLearned(32);
  obs::beginTrace();
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  obs::stopTrace();
  std::string Json = obs::renderTraceJson();
  EXPECT_NE(Json.find("\"name\":\"reduce_db\""), std::string::npos);
  for (const char *Key : {"\"learnts\":", "\"victims\":",
                          "\"lists_unlinked\":", "\"lists_sorted\":"})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

TEST(SolverStats, SumAndDeltaCoverEveryField) {
  // The static_assert ties the row count to the member count; a row
  // listed twice (leaving a member out) double-counts in the sum and
  // fails here.
  SolverStats A, B;
  for (size_t I = 0; I != std::size(SolverStats::Fields); ++I) {
    const SolverStats::Field &F = SolverStats::Fields[I];
    A.*F.Member = (uint64_t{I + 1} << 33) + 7 * I;
    B.*F.Member = 1000 + 13 * I;
  }
  SolverStats Sum = A;
  Sum += B;
  SolverStats Back = Sum - B;
  for (const SolverStats::Field &F : SolverStats::Fields) {
    EXPECT_EQ(Sum.*F.Member, A.*F.Member + B.*F.Member) << F.Name;
    EXPECT_EQ(Back.*F.Member, A.*F.Member) << F.Name;
  }
  EXPECT_EQ(Sum.propagations(), A.propagations() + B.propagations());
}
