//===- sat/GaussEngine.cpp - Gauss-in-the-loop XOR reasoning --------------===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//

#include "sat/GaussEngine.h"

#include "gf2/BitMatrix.h"
#include "obs/Trace.h"
#include "sat/Solver.h"
#include "support/Assert.h"

#include <algorithm>

using namespace veriqec;
using namespace veriqec::sat;

void GaussEngine::addRow(std::vector<Var> Vars, bool Rhs) {
  Original.push_back({std::move(Vars), Rhs});
  Dirty = true;
}

bool GaussEngine::finalize() {
  Dirty = false;

  // Column space: every variable any registered row mentions.
  Var MaxVar = -1;
  for (const OriginalRow &R : Original)
    for (Var V : R.Vars)
      MaxVar = std::max(MaxVar, V);
  ColOfVar.assign(static_cast<size_t>(MaxVar) + 1, -1);
  VarOfCol.clear();
  for (const OriginalRow &R : Original)
    for (Var V : R.Vars)
      if (ColOfVar[V] < 0) {
        ColOfVar[V] = static_cast<int32_t>(VarOfCol.size());
        VarOfCol.push_back(V);
      }
  size_t NC = VarOfCol.size();

  // The basis keeps the rows AS REGISTERED — sparse. A one-time full
  // reduction would be tempting (echelon rows expose more single-row
  // units), but reduced rows are globally entangled: every assignment
  // would then touch half the matrix through the occurrence lists, and
  // every reason clause would carry the dense row's whole assigned
  // support. That densification is exactly the structure this engine
  // exists to avoid; cross-row strength comes from the on-demand
  // eliminations of deepCheck() instead, whose dense rows are transient
  // scratch. The basis never mutates, so backtracking needs no matrix
  // undo at all — only the counter mirror rolls back.
  Rows.clear();
  for (const OriginalRow &R : Original) {
    BitVector Row(NC + 1);
    for (Var V : R.Vars)
      Row.flip(static_cast<size_t>(ColOfVar[V]));
    if (R.Rhs)
      Row.flip(NC);
    Rows.push_back(std::move(Row));
  }

  // Consistency verdict on a scratch elimination: a pivot landing in
  // the right-hand-side column is the contradiction 0 == 1.
  {
    BitMatrix M = BitMatrix::fromRows(Rows);
    std::vector<size_t> Pivots = M.rowReduce();
    if (!Pivots.empty() && Pivots.back() == NC)
      return false;
  }

  RowsOfCol.assign(NC, {});
  Unknowns.assign(Rows.size(), 0);
  Residual.assign(Rows.size(), 0);
  PendingRows.clear();
  for (size_t R = 0; R != Rows.size(); ++R) {
    for (size_t C = Rows[R].findFirst(); C < NC; C = Rows[R].findNext(C + 1)) {
      RowsOfCol[C].push_back(static_cast<uint32_t>(R));
      ++Unknowns[R];
    }
    Residual[R] = Rows[R].get(NC);
    if (Unknowns[R] <= 1)
      PendingRows.push_back(static_cast<uint32_t>(R));
  }
  Applied.clear();
  TrailSeen = 0;
  AppliedSinceDeep = 0;
  return true;
}

void GaussEngine::syncTrail(Solver &S) {
  while (TrailSeen < S.Trail.size()) {
    Lit L = S.Trail[TrailSeen];
    Var V = L.var();
    if (static_cast<size_t>(V) < ColOfVar.size() && ColOfVar[V] >= 0) {
      uint32_t Col = static_cast<uint32_t>(ColOfVar[V]);
      uint8_t Val = !L.negated();
      Applied.push_back({static_cast<uint32_t>(TrailSeen), Col, Val});
      ++AppliedSinceDeep;
      for (uint32_t R : RowsOfCol[Col]) {
        --Unknowns[R];
        Residual[R] ^= Val;
        if (Unknowns[R] <= 1)
          PendingRows.push_back(R);
      }
    }
    ++TrailSeen;
  }
}

void GaussEngine::onBacktrack(size_t NewTrailSize) {
  while (!Applied.empty() && Applied.back().TrailPos >= NewTrailSize) {
    const AppliedEntry &E = Applied.back();
    for (uint32_t R : RowsOfCol[E.Col]) {
      ++Unknowns[R];
      Residual[R] ^= E.Value;
    }
    Applied.pop_back();
  }
  // PendingRows deliberately survives: a stale entry re-derives its row's
  // status live and no-ops if the row regained unknowns, while an entry
  // queued just before a conflict return must not be lost.
  TrailSeen = std::min(TrailSeen, NewTrailSize);
}

int32_t GaussEngine::processRow(Solver &S, const BitVector &Row) {
  size_t NC = VarOfCol.size();
  size_t UnknownCol = NC;
  bool Parity = Row.get(NC);
  size_t NumUnknown = 0;
  for (size_t C = Row.findFirst(); C < NC; C = Row.findNext(C + 1)) {
    LBool A = S.varValue(VarOfCol[C]);
    if (A == LBool::Undef) {
      if (++NumUnknown > 1)
        return Solver::NoReason; // nothing to learn from this row yet
      UnknownCol = C;
    } else {
      Parity ^= A == LBool::True;
    }
  }
  if (NumUnknown > 1 || (NumUnknown == 0 && !Parity))
    return Solver::NoReason;

  // The reason/conflict clause: the implied literal (if any) plus the
  // negation of every assigned variable's current value. Root facts are
  // permanent in this solver, so level-0 dependencies are dropped.
  std::vector<Lit> Lits;
  if (NumUnknown == 1)
    Lits.push_back(Lit(VarOfCol[UnknownCol], !Parity));
  for (size_t C = Row.findFirst(); C < NC; C = Row.findNext(C + 1)) {
    if (C == UnknownCol)
      continue;
    Var V = VarOfCol[C];
    if (S.Level[V] > 0)
      Lits.push_back(Lit(V, S.varValue(V) == LBool::True));
  }

  if (NumUnknown == 0) {
    ++S.Stats.XorConflicts;
    if (S.corruptXorReasonClause() && Lits.size() > 1)
      Lits.pop_back(); // planted-bug seam: an under-justified conflict
    return S.materializeXorClause(std::move(Lits));
  }

  ++S.Stats.XorPropagations;
  Lit Implied = Lits.front();
  if (S.decisionLevel() == 0) {
    // Root facts need no justification: analysis skips level 0. A proof
    // checker does need one, though — at the root every dependency sits
    // at level 0, so Lits is exactly the unit {Implied}, logged as a
    // derivation the checker re-justifies from the XOR system.
    if (S.ProofSink) {
      S.ProofSink->onDerive(Lits, {});
      ++S.DeriveCount;
    }
    S.enqueue(Implied, Solver::NoReason);
    return Solver::NoReason;
  }
  // Above the root EVERY implication carries a reason clause — even a
  // dependency-free one (all deps at level 0) gets its unit clause.
  // Enqueueing with NoReason instead would plant a pseudo-decision in
  // the middle of a trail segment, which first-UIP resolution cannot
  // expand.
  if (S.corruptXorReasonClause() && Lits.size() > 2)
    Lits.pop_back(); // planted-bug seam: an under-justified reason
  S.enqueue(Implied, S.materializeXorClause(std::move(Lits)));
  return Solver::NoReason;
}

int32_t GaussEngine::deepCheck(Solver &S) {
  obs::TraceSpan Span("gauss_elim", {{"rows", Rows.size()}});
  AppliedSinceDeep = 0;
  size_t NC = VarOfCol.size();

  // Fresh forward elimination of the residual system on a scratch copy
  // (rows that still have >= 2 unknowns), pivoting only on unassigned
  // columns. Rows keep their full width, so a combined row's assigned
  // support — the reason for whatever it implies — comes out for free.
  std::vector<BitVector> M;
  for (size_t R = 0; R != Rows.size(); ++R)
    if (Unknowns[R] >= 2)
      M.push_back(Rows[R]);
  if (M.size() < 2)
    return Solver::NoReason;
  ++S.Stats.XorEliminations;

  for (size_t I = 0; I != M.size(); ++I) {
    size_t P = NC;
    for (size_t C = M[I].findFirst(); C < NC; C = M[I].findNext(C + 1))
      if (S.varValue(VarOfCol[C]) == LBool::Undef) {
        P = C;
        break;
      }
    if (P == NC)
      continue; // fully assigned combination; judged below
    for (size_t J = I + 1; J != M.size(); ++J)
      if (M[J].get(P))
        M[J] ^= M[I];
  }
  // Inspect every eliminated row live: implied units enqueue right here
  // (later rows then see the new assignments), a violated combination
  // returns its conflict.
  size_t Before = S.Trail.size();
  for (const BitVector &Row : M) {
    int32_t Confl = processRow(S, Row);
    if (Confl != Solver::NoReason) {
      DeepInterval = MinDeepInterval;
      return Confl;
    }
  }
  DeepInterval = S.Trail.size() != Before
                     ? MinDeepInterval
                     : std::min(DeepInterval * 2, MaxDeepInterval);
  return Solver::NoReason;
}

int32_t GaussEngine::propagate(Solver &S) {
  size_t Before = S.Trail.size();
  while (true) {
    syncTrail(S);
    if (PendingRows.empty())
      break;
    uint32_t R = PendingRows.back();
    PendingRows.pop_back();
    if (Unknowns[R] > 1)
      continue; // stale trigger (a backtrack regrew the row)
    int32_t Confl = processRow(S, Rows[R]);
    if (Confl != Solver::NoReason)
      return Confl;
  }
  if (S.Trail.size() != Before)
    return Solver::NoReason; // let CNF propagation consume the news first
  if (AppliedSinceDeep >= DeepInterval)
    return deepCheck(S);
  return Solver::NoReason;
}
