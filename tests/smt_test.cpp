//===- tests/smt_test.cpp - Formula layer and encoder tests ---------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-validates the Tseitin/cardinality CNF encoding against the
/// expression evaluator: for random formulas over few variables, solving
/// under assumptions that pin every variable must agree with evaluate()
/// on every assignment.
///
//===----------------------------------------------------------------------===//

#include "smt/BoolExpr.h"
#include "smt/CnfEncoder.h"
#include "smt/CubeSolver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace veriqec;
using namespace veriqec::smt;
using sat::SolveResult;

namespace {

/// Checks that the CNF encoding of Root agrees with evaluate() on every
/// assignment of the context's variables (requires few variables).
void checkEncodingExhaustively(const BoolContext &Ctx, ExprRef Root,
                               CardinalityEncoding Enc =
                                   CardinalityEncoding::SequentialCounter) {
  size_t NumVars = Ctx.numVariables();
  ASSERT_LE(NumVars, 14u);

  CnfFormula Cnf;
  CnfEncoder Encoder(Ctx, Cnf, Enc);
  std::vector<sat::Var> SatVars;
  for (uint32_t Id = 0; Id != NumVars; ++Id)
    SatVars.push_back(Encoder.satVarOf(Id));
  Encoder.assertTrue(Root);

  sat::Solver S;
  for (size_t I = 0; I != Cnf.NumVars; ++I)
    S.newVar();
  for (const auto &C : Cnf.Clauses)
    S.addClause(C);

  for (uint64_t Mask = 0; Mask != (uint64_t{1} << NumVars); ++Mask) {
    std::vector<bool> Assignment(NumVars);
    std::vector<sat::Lit> Assumptions;
    for (size_t V = 0; V != NumVars; ++V) {
      Assignment[V] = (Mask >> V) & 1;
      Assumptions.push_back(sat::Lit(SatVars[V], !Assignment[V]));
    }
    bool Expected = Ctx.evaluate(Root, Assignment);
    SolveResult Got = S.solve(Assumptions);
    ASSERT_EQ(Got == SolveResult::Sat, Expected)
        << "assignment mask " << Mask << " of " << Ctx.toString(Root);
  }
}

} // namespace

TEST(BoolContext, ConstantFolding) {
  BoolContext Ctx;
  ExprRef A = Ctx.mkVar("a");
  EXPECT_EQ(Ctx.mkAnd(A, Ctx.mkTrue()), A);
  EXPECT_EQ(Ctx.mkAnd(A, Ctx.mkFalse()), Ctx.mkFalse());
  EXPECT_EQ(Ctx.mkOr(A, Ctx.mkTrue()), Ctx.mkTrue());
  EXPECT_EQ(Ctx.mkOr(A, Ctx.mkFalse()), A);
  EXPECT_EQ(Ctx.mkNot(Ctx.mkNot(A)), A);
  EXPECT_EQ(Ctx.mkXor(A, A), Ctx.mkFalse());
  EXPECT_EQ(Ctx.mkXor(A, Ctx.mkFalse()), A);
  EXPECT_EQ(Ctx.mkAnd(A, Ctx.mkNot(A)), Ctx.mkFalse());
  EXPECT_EQ(Ctx.mkOr(A, Ctx.mkNot(A)), Ctx.mkTrue());
}

TEST(BoolContext, HashConsingDeduplicates) {
  BoolContext Ctx;
  ExprRef A = Ctx.mkVar("a"), B = Ctx.mkVar("b");
  EXPECT_EQ(Ctx.mkAnd(A, B), Ctx.mkAnd(B, A));
  EXPECT_EQ(Ctx.mkVar("a"), A);
  size_t Before = Ctx.numNodes();
  Ctx.mkAnd(A, B);
  EXPECT_EQ(Ctx.numNodes(), Before);
}

TEST(BoolContext, EvaluateCardinality) {
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  for (int I = 0; I != 5; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  ExprRef AtMost2 = Ctx.mkAtMost(Vars, 2);
  ExprRef AtLeast3 = Ctx.mkAtLeast(Vars, 3);
  for (uint64_t Mask = 0; Mask != 32; ++Mask) {
    std::vector<bool> A(5);
    int Count = 0;
    for (int I = 0; I != 5; ++I) {
      A[I] = (Mask >> I) & 1;
      Count += A[I];
    }
    EXPECT_EQ(Ctx.evaluate(AtMost2, A), Count <= 2);
    EXPECT_EQ(Ctx.evaluate(AtLeast3, A), Count >= 3);
  }
}

TEST(CnfEncoder, BasicConnectives) {
  BoolContext Ctx;
  ExprRef A = Ctx.mkVar("a"), B = Ctx.mkVar("b"), C = Ctx.mkVar("c");
  checkEncodingExhaustively(Ctx, Ctx.mkOr(Ctx.mkAnd(A, B), Ctx.mkNot(C)));
}

TEST(CnfEncoder, XorChain) {
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  for (int I = 0; I != 6; ++I)
    Vars.push_back(Ctx.mkVar("x" + std::to_string(I)));
  checkEncodingExhaustively(Ctx, Ctx.mkXor(Vars));
}

TEST(CnfEncoder, ImpliesAndIff) {
  BoolContext Ctx;
  ExprRef A = Ctx.mkVar("a"), B = Ctx.mkVar("b");
  checkEncodingExhaustively(Ctx, Ctx.mkImplies(A, B));
  BoolContext Ctx2;
  ExprRef C = Ctx2.mkVar("c"), D = Ctx2.mkVar("d");
  checkEncodingExhaustively(Ctx2, Ctx2.mkIff(C, D));
}

class CardinalityEncodingTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CardinalityEncodingTest, AtMostMatchesSemantics) {
  auto [N, K] = GetParam();
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  for (int I = 0; I != N; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  checkEncodingExhaustively(Ctx, Ctx.mkAtMost(Vars, K));
}

TEST_P(CardinalityEncodingTest, AtLeastMatchesSemantics) {
  auto [N, K] = GetParam();
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  for (int I = 0; I != N; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  checkEncodingExhaustively(Ctx, Ctx.mkAtLeast(Vars, K));
}

TEST_P(CardinalityEncodingTest, PairwiseNaiveAgrees) {
  auto [N, K] = GetParam();
  if (K > 3)
    return; // exponential encoding; keep it small
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  for (int I = 0; I != N; ++I)
    Vars.push_back(Ctx.mkVar("v" + std::to_string(I)));
  checkEncodingExhaustively(Ctx, Ctx.mkAtMost(Vars, K),
                            CardinalityEncoding::PairwiseNaive);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CardinalityEncodingTest,
                         ::testing::Values(std::tuple{4, 0}, std::tuple{4, 1},
                                           std::tuple{5, 2}, std::tuple{6, 3},
                                           std::tuple{7, 4}, std::tuple{7, 6},
                                           std::tuple{8, 5}));

TEST(CnfEncoder, SumLeqSumExhaustive) {
  BoolContext Ctx;
  std::vector<ExprRef> A, B;
  for (int I = 0; I != 4; ++I)
    A.push_back(Ctx.mkVar("a" + std::to_string(I)));
  for (int I = 0; I != 3; ++I)
    B.push_back(Ctx.mkVar("b" + std::to_string(I)));
  checkEncodingExhaustively(Ctx, Ctx.mkSumLeqSum(A, B));
}

TEST(CnfEncoder, RandomFormulasAgreeWithEvaluator) {
  Rng R(7);
  for (int Trial = 0; Trial != 40; ++Trial) {
    BoolContext Ctx;
    std::vector<ExprRef> Pool;
    for (int I = 0; I != 6; ++I)
      Pool.push_back(Ctx.mkVar("v" + std::to_string(I)));
    // Grow random expressions over the pool.
    for (int Step = 0; Step != 12; ++Step) {
      ExprRef A = Pool[R.nextBelow(Pool.size())];
      ExprRef B = Pool[R.nextBelow(Pool.size())];
      switch (R.nextBelow(5)) {
      case 0:
        Pool.push_back(Ctx.mkAnd(A, B));
        break;
      case 1:
        Pool.push_back(Ctx.mkOr(A, B));
        break;
      case 2:
        Pool.push_back(Ctx.mkXor(A, B));
        break;
      case 3:
        Pool.push_back(Ctx.mkNot(A));
        break;
      case 4:
        Pool.push_back(
            Ctx.mkAtMost({A, B, Pool[R.nextBelow(Pool.size())]},
                         static_cast<uint32_t>(R.nextBelow(3))));
        break;
      }
    }
    checkEncodingExhaustively(Ctx, Pool.back());
  }
}

TEST(CubeSolver, SequentialSatProducesValidModel) {
  BoolContext Ctx;
  ExprRef A = Ctx.mkVar("a"), B = Ctx.mkVar("b"), C = Ctx.mkVar("c");
  ExprRef Root = Ctx.mkAnd({Ctx.mkOr(A, B), Ctx.mkNot(C), Ctx.mkXor(A, B)});
  SolveOutcome Out = solveExpr(Ctx, Root);
  ASSERT_EQ(Out.Result, SolveResult::Sat);
  std::vector<bool> Assignment = {Out.Model.at("a"), Out.Model.at("b"),
                                  Out.Model.at("c")};
  EXPECT_TRUE(Ctx.evaluate(Root, Assignment));
}

TEST(CubeSolver, ParallelUnsatAgreesWithSequential) {
  // Parity contradiction over 8 variables: x0^...^x7 = 0 and = 1.
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  std::vector<std::string> Names;
  for (int I = 0; I != 8; ++I) {
    Names.push_back("e" + std::to_string(I));
    Vars.push_back(Ctx.mkVar(Names.back()));
  }
  ExprRef Root = Ctx.mkAnd(Ctx.mkXor(Vars), Ctx.mkNot(Ctx.mkXor(Vars)));
  // Root folds to false structurally; build a harder version instead.
  ExprRef P1 = Ctx.mkXor({Vars[0], Vars[1], Vars[2], Vars[3]});
  ExprRef P2 = Ctx.mkXor({Vars[2], Vars[3], Vars[4], Vars[5]});
  ExprRef P3 = Ctx.mkXor({Vars[4], Vars[5], Vars[6], Vars[7]});
  ExprRef P4 = Ctx.mkXor({Vars[0], Vars[1], Vars[6], Vars[7]});
  // P1^P2^P3^P4 = 0 always, so requiring odd many of them true is UNSAT.
  Root = Ctx.mkAnd({P1, P2, P3, Ctx.mkNot(P4)});

  SolveOptions Opts;
  Opts.NumThreads = 4;
  Opts.SplitVars = Names;
  Opts.DistanceHint = 2;
  Opts.SplitThreshold = 6;
  SolveOutcome Par = solveExpr(Ctx, Root, Opts);
  SolveOutcome Seq = solveExpr(Ctx, Root);
  EXPECT_EQ(Seq.Result, SolveResult::Unsat);
  EXPECT_EQ(Par.Result, SolveResult::Unsat);
  // A pure parity contradiction never reaches a solver: Gaussian
  // elimination refutes it during preprocessing, before cube enumeration.
  EXPECT_TRUE(Par.Prep.TriviallyUnsat);
  EXPECT_EQ(Par.NumCubes, 0u);
  EXPECT_EQ(Par.Stats.Conflicts, 0u);

  // With preprocessing off, the legacy pipeline must still agree — the
  // hard way, through the cube enumeration.
  Opts.Preprocess = false;
  SolveOutcome Legacy = solveExpr(Ctx, Root, Opts);
  EXPECT_EQ(Legacy.Result, SolveResult::Unsat);
  EXPECT_GT(Legacy.NumCubes, 1u);
}

TEST(CubeSolver, ParallelSatFindsModel) {
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  std::vector<std::string> Names;
  for (int I = 0; I != 10; ++I) {
    Names.push_back("e" + std::to_string(I));
    Vars.push_back(Ctx.mkVar(Names.back()));
  }
  // Exactly 3 of 10 set, and v0 ^ v9 = 1.
  ExprRef Root = Ctx.mkAnd({Ctx.mkAtMost(Vars, 3), Ctx.mkAtLeast(Vars, 3),
                            Ctx.mkXor(Vars[0], Vars[9])});
  SolveOptions Opts;
  Opts.NumThreads = 4;
  Opts.SplitVars = Names;
  Opts.DistanceHint = 2;
  Opts.SplitThreshold = 8;
  SolveOutcome Out = solveExpr(Ctx, Root, Opts);
  ASSERT_EQ(Out.Result, SolveResult::Sat);
  std::vector<bool> Assignment;
  for (int I = 0; I != 10; ++I)
    Assignment.push_back(Out.Model.at(Names[I]));
  EXPECT_TRUE(Ctx.evaluate(Root, Assignment));
}

TEST(CubeSolver, MaxOnesPruningStaysSound) {
  BoolContext Ctx;
  std::vector<ExprRef> Vars;
  std::vector<std::string> Names;
  for (int I = 0; I != 6; ++I) {
    Names.push_back("e" + std::to_string(I));
    Vars.push_back(Ctx.mkVar(Names.back()));
  }
  // Satisfiable only with exactly one bit set.
  ExprRef Root = Ctx.mkAnd(Ctx.mkAtMost(Vars, 1), Ctx.mkAtLeast(Vars, 1));
  SolveOptions Opts;
  Opts.NumThreads = 2;
  Opts.SplitVars = Names;
  Opts.DistanceHint = 3;
  Opts.SplitThreshold = 10;
  Opts.MaxOnes = 1;
  SolveOutcome Out = solveExpr(Ctx, Root, Opts);
  EXPECT_EQ(Out.Result, SolveResult::Sat);
}
