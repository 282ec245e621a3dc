//===- sat/Solver.h - CDCL SAT solver ---------------------------*- C++ -*-===//
//
// Part of the veriqec project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver in the MiniSat lineage:
/// two-watched-literal propagation, first-UIP learning with clause
/// minimization, VSIDS branching with phase saving, Luby restarts and
/// activity-based learned-clause deletion. It is the decision engine that
/// replaces Z3/CVC5 in this reproduction (see DESIGN.md, substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef VERIQEC_SAT_SOLVER_H
#define VERIQEC_SAT_SOLVER_H

#include "sat/ClauseArena.h"
#include "sat/GaussEngine.h"
#include "sat/SatTypes.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace veriqec::sat {

/// Result of a solve() call.
enum class SolveResult { Sat, Unsat, Aborted };

/// A thread-safe exchange of short learned clauses between the solvers
/// attacking cubes of the same problem (the engine's workers). Learned
/// clauses are derived by resolution from the shared clause database, so
/// they are valid for every sibling regardless of its assumptions;
/// sharing them collapses the duplicated learning that otherwise makes
/// per-worker solvers re-derive the same lemmas. Entries are capped to
/// bound memory and import cost.
class SharedClausePool {
public:
  explicit SharedClausePool(size_t MaxEntries = 4096)
      : MaxEntries(MaxEntries) {}

  /// Publishes a learned clause on behalf of \p Owner (dropped once the
  /// pool is full). The full flag is checked before locking so a
  /// saturated pool costs one relaxed load on the conflict hot path.
  void publish(int Owner, const std::vector<Lit> &Lits) {
    if (Full.load(std::memory_order_relaxed))
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Entries.size() < MaxEntries)
      Entries.emplace_back(Owner, Lits);
    else
      Full.store(true, std::memory_order_relaxed);
  }

  /// Appends every clause published by *other* owners since \p Cursor to
  /// \p Out and advances the cursor.
  void fetch(int Owner, size_t &Cursor,
             std::vector<std::vector<Lit>> &Out) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (; Cursor < Entries.size(); ++Cursor)
      if (Entries[Cursor].first != Owner)
        Out.push_back(Entries[Cursor].second);
  }

  /// True iff fetch() would deliver anything; skips \p Cursor past the
  /// owner's own entries so repeated polling stays O(1) amortized. Lets
  /// a solver keep its assumption-prefix trail alive across solve()
  /// calls instead of unconditionally returning to the root to import.
  bool hasNewsFor(int Owner, size_t &Cursor) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    while (Cursor < Entries.size() && Entries[Cursor].first == Owner)
      ++Cursor;
    return Cursor < Entries.size();
  }

private:
  const size_t MaxEntries;
  std::atomic<bool> Full{false};
  mutable std::mutex Mutex;
  std::vector<std::pair<int, std::vector<Lit>>> Entries;
};

/// Observer of the solver's clause derivations, the hook proof logging
/// hangs on (proof/ProofLog.h implements it). Every clause the solver
/// derives — CDCL learnt clauses (units included), clauses materialized
/// by the XOR engine as reasons or conflicts, and root implications of
/// the XOR system — is reported through onDerive() in derivation order;
/// the n-th reported clause has serial n (1-based), and onRetire() names
/// that serial when reduceDB drops the clause. Clauses added through
/// addClause() are NOT reported: they are the problem statement, which
/// the proof header already carries.
///
/// \p Hints, when non-empty, are the LRAT-style antecedents of a CDCL
/// learnt clause: the clauses conflict analysis actually resolved,
/// ordered so a checker that asserts the clause's negation can derive a
/// unit from each hint in turn and reach a conflict at the last — no
/// watched-literal search needed. Positive hints name earlier
/// derivations by serial; negative hints name header clauses (-k is the
/// k-th clause record of the problem statement). Hints are an
/// accelerator only: a checker unable to use them (or a derivation
/// reported without them, like XOR materializations) falls back to full
/// reverse unit propagation.
class ClauseProofSink {
public:
  virtual ~ClauseProofSink() = default;
  virtual void onDerive(std::span<const Lit> Lits,
                        std::span<const int64_t> Hints = {}) = 0;
  virtual void onRetire(uint64_t Serial) = 0;
};

/// Aggregate statistics for benchmarking and diagnostics.
struct SolverStats {
  uint64_t Decisions = 0;
  /// Literals implied through binary watchers (resolved without touching
  /// clause memory) and through long-clause watch traversal. Together
  /// with XorPropagations these partition what used to be one
  /// Propagations counter; propagations() restores the total.
  uint64_t BinPropagations = 0;
  uint64_t LongPropagations = 0;
  uint64_t Conflicts = 0;
  uint64_t LearnedClauses = 0;
  uint64_t Restarts = 0;
  /// Literals implied by the native XOR engine (sat/GaussEngine.h).
  uint64_t XorPropagations = 0;
  /// Conflicts the XOR engine detected before CNF propagation could.
  uint64_t XorConflicts = 0;
  /// Cross-row eliminations of the residual GF(2) system.
  uint64_t XorEliminations = 0;
  /// Peak clause-arena footprint in bytes (summed over slot solvers when
  /// aggregated: the total clause-storage high-water mark of a run).
  uint64_t ArenaBytes = 0;
  /// Cumulative bytes reclaimed by arena compaction.
  uint64_t WastedBytes = 0;
  /// Arena compactions (garbageCollect() runs).
  uint64_t Compactions = 0;

  /// Total implied literals across every propagation engine — the
  /// headline number displays want, independent of the split above.
  uint64_t propagations() const {
    return BinPropagations + LongPropagations + XorPropagations;
  }

  /// One row per counter: its bench-out / metrics key and its member.
  /// Every consumer that handles the counters as a set (aggregation and
  /// delta below, the dist wire codec, --bench-out, the solver.* metrics)
  /// loops over this table, so a new counter cannot be summed in one
  /// consumer and silently dropped in another. The order is the wire
  /// order of dist/Codec.h: reordering it is a wire-format change.
  struct Field {
    const char *Name;
    uint64_t SolverStats::*Member;
  };
  static constexpr Field Fields[] = {
      {"decisions", &SolverStats::Decisions},
      {"bin_propagations", &SolverStats::BinPropagations},
      {"long_propagations", &SolverStats::LongPropagations},
      {"conflicts", &SolverStats::Conflicts},
      {"learned", &SolverStats::LearnedClauses},
      {"restarts", &SolverStats::Restarts},
      {"xor_propagations", &SolverStats::XorPropagations},
      {"xor_conflicts", &SolverStats::XorConflicts},
      {"xor_eliminations", &SolverStats::XorEliminations},
      {"arena_bytes", &SolverStats::ArenaBytes},
      {"wasted_bytes", &SolverStats::WastedBytes},
      {"compactions", &SolverStats::Compactions},
  };

  /// Field-wise sum. ArenaBytes sums per-solver peaks, which is the
  /// documented aggregate; since each solver's peak never decreases, a
  /// delta-then-sum over the wire reproduces it exactly.
  SolverStats &operator+=(const SolverStats &O) {
    for (const Field &F : Fields)
      this->*F.Member += O.*F.Member;
    return *this;
  }
  /// Field-wise delta (every field is monotone).
  SolverStats operator-(const SolverStats &O) const {
    SolverStats D;
    for (const Field &F : Fields)
      D.*F.Member = this->*F.Member - O.*F.Member;
    return D;
  }
};

static_assert(std::size(SolverStats::Fields) ==
                  sizeof(SolverStats) / sizeof(uint64_t),
              "every SolverStats member needs a row in SolverStats::Fields");

/// CDCL SAT solver. Typical usage:
/// \code
///   Solver S;
///   Var A = S.newVar(), B = S.newVar();
///   S.addClause({mkLit(A), mkLit(B)});
///   if (S.solve() == SolveResult::Sat) bool VA = S.modelValue(A);
/// \endcode
class Solver {
public:
  Solver();
  // The virtual destructor (for the test seam below) would otherwise
  // suppress the implicit move operations, turning makeSolver() returns
  // into full clause-database copies. Copies stay protected: copying a
  // polymorphic solver by value would silently slice a subclass.
  virtual ~Solver() = default;
  Solver(Solver &&) = default;
  Solver &operator=(Solver &&) = default;

  /// Creates a fresh variable and returns its index.
  Var newVar();

  /// Number of variables created so far.
  size_t numVars() const { return Values.size() / 2; }

  /// Adds a clause. Returns false if the formula became trivially
  /// unsatisfiable (empty clause after simplification at level 0).
  bool addClause(std::vector<Lit> Lits);

  /// Convenience overloads.
  bool addClause(Lit A) { return addClause(std::vector<Lit>{A}); }
  bool addClause(Lit A, Lit B) { return addClause(std::vector<Lit>{A, B}); }
  bool addClause(Lit A, Lit B, Lit C) {
    return addClause(std::vector<Lit>{A, B, C});
  }

  /// Adds a native XOR constraint: XOR over \p Lits == \p Odd. Negated
  /// literals fold into the parity, duplicate variables cancel in pairs.
  /// The constraint is handled by the Gauss-in-the-loop engine instead of
  /// a CNF encoding: no auxiliary variables, and cross-constraint GF(2)
  /// elimination during search. Returns false if the formula became
  /// trivially unsatisfiable (empty XOR with odd parity).
  bool addXorClause(const std::vector<Lit> &Lits, bool Odd);

  /// Rows of the XOR basis (0 before the first solve builds it).
  size_t numXorRows() const { return Gauss.numRows(); }

  /// Solves under the given assumptions (checked before any decision).
  SolveResult solve(const std::vector<Lit> &Assumptions = {});

  /// After Sat: the value of \p V in the found model.
  bool modelValue(Var V) const { return Model[V] == LBool::True; }

  /// Limits the search to approximately \p MaxConflicts conflicts;
  /// 0 means unlimited. Exceeding the budget returns Aborted.
  void setConflictBudget(uint64_t MaxConflicts) {
    ConflictBudget = MaxConflicts;
  }

  /// Installs an external cancellation flag polled during search (used by
  /// the parallel driver to stop siblings once an answer is known).
  void setAbortFlag(const std::atomic<bool> *Flag) { AbortFlag = Flag; }

  /// Connects this solver to a clause exchange: clauses it learns with at
  /// most \p MaxShareLen literals are published under \p OwnerId, and
  /// clauses published by siblings are imported at the start of every
  /// solve() call.
  void attachSharedPool(SharedClausePool *Pool, int OwnerId,
                        uint32_t MaxShareLen = 8) {
    SharedPool = Pool;
    PoolOwnerId = OwnerId;
    PoolMaxShareLen = MaxShareLen;
    PoolCursor = 0;
  }

  /// Enables seeded random branching tie-breaks: occasionally a random
  /// (rather than highest-activity) variable is decided, with a random
  /// polarity. Soundness is unaffected — only the search order changes —
  /// but runs become exactly reproducible per seed, which is what the
  /// fuzzing harness needs to replay a failure. Seed 0 restores the
  /// deterministic pure-VSIDS default.
  void setRandomSeed(uint64_t Seed) {
    RandomizeBranching = Seed != 0;
    TieRng = Rng(Seed);
  }

  /// Installs (or clears, with nullptr) a derivation observer. Attach
  /// before the first solve() call on a freshly loaded solver, so the
  /// observer sees every derived clause from serial 1; do not combine
  /// with attachSharedPool — imported clauses enter through addClause
  /// and would be invisible to the proof. Not owned.
  void setProofSink(ClauseProofSink *Sink) { ProofSink = Sink; }

  /// After solve() returned Unsat: the subset of that call's assumptions
  /// the refutation actually used (the failed core, MiniSat's
  /// analyzeFinal). An empty core means the clause database refutes the
  /// formula regardless of assumptions — the cube engine uses this to
  /// conclude a whole problem is UNSAT from a single cube, and the
  /// distance search to stop tightening a weight selector that no longer
  /// matters. Contents are unspecified after Sat/Aborted.
  const std::vector<Lit> &conflictCore() const { return ConflictCore; }

  /// Proof hints justifying conflictCore(): the reason clauses of the
  /// refutation cone, ordered so each becomes unit in turn when the core
  /// is asserted (the last one conflicting). Empty when no sink is
  /// attached, when the core came without a cone (root-implied), or when
  /// an antecedent has no proof identity. Same id scheme as derivation
  /// hints; the proof's q records carry them.
  const std::vector<int64_t> &conflictCoreHints() const {
    return ConflictCoreHints;
  }

  const SolverStats &stats() const { return Stats; }

  /// Installs (or clears, with nullptr) a shared variable →
  /// pending-cube-count view. While installed, reduceDB retains clauses
  /// whose variables participate in many *unsolved* cubes in preference
  /// to pure activity: those lemmas constrain search the solver has not
  /// run yet, so dropping them means re-deriving them cube after cube.
  /// The cube driver (engine/CubeRun.h) refreshes the view at batch
  /// boundaries; without one, retention is pure activity order.
  void setRetentionView(
      std::shared_ptr<const std::vector<uint32_t>> View) {
    RetentionView = std::move(View);
  }

  /// Arena-compaction trigger: collect when wasted words exceed this
  /// fraction of the arena (default 0.2, the minisat garbage_frac
  /// convention). 0 forces a compaction at every restart that has any
  /// garbage at all — the test batteries use that to shake out
  /// relocation bugs.
  void setGarbageFraction(double Frac) { GarbageFrac = Frac; }

  /// Process-wide default for setGarbageFraction, applied to every
  /// subsequently constructed solver. A test knob (the smt/engine layers
  /// build their slot solvers internally); set it only while no solver
  /// is running.
  static void setDefaultGarbageFraction(double Frac);

  /// Learned-clause cap driving reduceDB (test knob; production default
  /// 8192).
  void setMaxLearned(size_t Max) { MaxLearned = Max; }

  /// Compact the arena unconditionally — even with zero waste, so a
  /// caller can force a full relocation pass between solve() calls.
  /// Used by the test batteries to prove verdicts, models and proof
  /// identities survive relocation without having to provoke the
  /// restart-path trigger on small instances.
  void forceGarbageCollect() { garbageCollect(); }

  /// Live (non-deleted) learned clauses currently in the database.
  size_t liveLearnts() const { return NumLiveLearnts; }

  /// Current clause-arena footprint in bytes (Stats.ArenaBytes is the
  /// peak; the difference is what compaction has handed back).
  size_t arenaBytes() const { return Arena.sizeBytes(); }

  /// Test-only audit of the watch structure reduceDB relies on: no
  /// watcher references a deleted clause, every list not flagged in
  /// WatchUnsorted is in watchBefore() order, every live clause with any
  /// watcher is watched exactly on ~C[0] and ~C[1], and no clause that
  /// is the reason of a trail literal was deleted (unit and empty XOR
  /// justifications, tombstoned at birth, excepted). It also audits the
  /// literal-indexed value array: both polarities of every variable
  /// agree, and every trail literal reads True. O(formula); returns a
  /// description of the first violation, or "" when all hold.
  std::string checkWatchInvariants() const;

protected:
  Solver(const Solver &) = default;
  Solver &operator=(const Solver &) = default;

  /// Test seam for the fuzzing harness: called when a conflict-driven
  /// backjump lands at or below the assumption prefix. Returning true
  /// declares UNSAT right there — the PR 1 soundness bug family
  /// (mistaking a backjump into the prefix for unsatisfiability), which
  /// silently flips satisfiable cubes under solver reuse. The production
  /// solver always returns false (the prefix survives the capped
  /// backjump, or is re-extended by the search loop); harness tests
  /// override this to prove the differential oracles catch the bug.
  virtual bool declareUnsatOnPrefixBackjump() const { return false; }

  /// Test seam for the fuzzing harness: when true, every XOR reason
  /// clause with at least two dependencies is materialized with one
  /// dependency silently dropped — an under-justified reason whose
  /// resolvents over-prune the search, the characteristic way a buggy
  /// Gaussian reason computation goes wrong (it silently flips SAT cubes
  /// to UNSAT). The production solver never corrupts; harness tests
  /// override this to prove the differential oracles catch the bug.
  virtual bool corruptXorReasonClause() const { return false; }

  /// Test seam: called at the end of every reduceDB() that deleted
  /// clauses, with the watch lists unlinked and re-sorted. The
  /// production solver does nothing; the sat battery overrides it to run
  /// checkWatchInvariants() after each reduction.
  virtual void afterReduceDB() {}

private:
  friend class GaussEngine;

  // -- Internal state ------------------------------------------------------
  // ClauseRef (sat/ClauseArena.h) is a word offset into Arena; always
  // >= 0, so the negative range below stays free for the markers.
  static constexpr ClauseRef NoReason = -1;

  /// Binary clauses are encoded entirely in their watchers: the blocker
  /// is the other literal and the reference is marked (mapped below -1,
  /// clear of NoReason) so propagation can decide satisfied / unit /
  /// conflicting without loading the clause.
  static constexpr ClauseRef binaryMark(ClauseRef R) { return -R - 2; }
  static constexpr bool isBinaryMark(ClauseRef R) { return R <= -2; }
  static constexpr ClauseRef fromBinaryMark(ClauseRef R) { return -R - 2; }

  struct Watcher {
    ClauseRef Ref;
    Lit Blocker;
  };
  /// The clause behind a watcher, binary or not.
  static ClauseRef clauseOf(Watcher W) {
    return isBinaryMark(W.Ref) ? fromBinaryMark(W.Ref) : W.Ref;
  }

  /// All clause storage (problem, learnt, XOR-materialized) lives in one
  /// relocating arena; the two lists below index into it. Deleted
  /// clauses are tombstoned in place and reclaimed by garbageCollect().
  ClauseArena Arena;
  std::vector<ClauseRef> ProblemClauses;
  std::vector<ClauseRef> LearntClauses;
  /// Non-deleted learned clauses (locked or not) — the reduceDB trigger.
  /// Counting only unlocked candidates (the pre-arena accounting) lets
  /// the database grow without bound under long assumption prefixes,
  /// where most reasons stay locked across restarts.
  size_t NumLiveLearnts = 0;
  double GarbageFrac;
  std::vector<std::vector<Watcher>> Watches; // indexed by Lit.Code
  /// Per watch list: set when the list may have left watchBefore() order
  /// since the last reduction; reduceDB sorts exactly the flagged lists.
  /// An unflagged list is always in order.
  std::vector<uint8_t> WatchUnsorted; // indexed by Lit.Code
  /// Indexed by Lit.Code: enqueue() and backtrack() write both
  /// polarities of a variable together, so valueOf() is one load with no
  /// polarity fix-up.
  std::vector<LBool> Values;
  std::vector<LBool> Model; // indexed by Var
  std::vector<bool> SavedPhase;
  std::vector<ClauseRef> Reason;
  std::vector<int32_t> Level;
  /// Trail index of each assigned variable (stale for unassigned ones);
  /// conflict analysis sorts proof hints by it.
  std::vector<uint32_t> TrailPosOf;
  std::vector<Lit> Trail;
  std::vector<int32_t> TrailLim;
  size_t PropagateHead = 0;

  // VSIDS.
  std::vector<double> Activity;
  double VarInc = 1.0;
  double VarDecay = 0.95;
  std::vector<Var> Heap; // binary max-heap of variables by activity
  std::vector<int32_t> HeapPos;

  double ClauseInc = 1.0;
  double ClauseDecay = 0.999;
  size_t MaxLearned = 8192;

  bool RandomizeBranching = false;
  Rng TieRng;

  bool OkState = true;
  uint64_t ConflictBudget = 0;
  const std::atomic<bool> *AbortFlag = nullptr;
  SharedClausePool *SharedPool = nullptr;
  int PoolOwnerId = -1;
  uint32_t PoolMaxShareLen = 8;
  size_t PoolCursor = 0;
  SolverStats Stats;

  /// Proof logging (null = off, the default: the hooks below then cost
  /// one pointer test each).
  ClauseProofSink *ProofSink = nullptr;
  /// Count of derivations reported to the sink; the serial of the most
  /// recent one. Serials are also stored inside the clause (the proof-id
  /// word, see ClauseArena.h), so they must fit an int32.
  uint64_t DeriveCount = 0;
  /// Count of addClause() calls (stored or simplified away). A stored
  /// clause's proof-id word carries the negated sequence number: the
  /// clause's record index in the proof header, which is what a negative
  /// proof hint names.
  uint32_t AddClauseSeq = 0;
  /// Scratch for conflict analysis: the antecedents of the current
  /// conflict as (trail position of the implied literal, clause) pairs
  /// (the conflicting clause itself implies nothing and sorts last), and
  /// the hint ids they map to. Only filled while a sink is attached.
  std::vector<std::pair<uint32_t, ClauseRef>> HintSteps;
  std::vector<std::pair<uint32_t, ClauseRef>> RedundantSteps;
  std::vector<int64_t> HintIds;
  std::vector<int64_t> ConflictCoreHints;

  /// Reports \p Ref 's literals to the proof sink and binds its serial
  /// into the clause's proof-id word (for the retirement notice when
  /// reduceDB drops it; the id relocates with the clause memory).
  void proofDerive(ClauseRef Ref, std::span<const int64_t> Hints = {}) {
    if (!ProofSink)
      return;
    Clause C = Arena[Ref];
    ProofSink->onDerive(C.lits(), Hints);
    ++DeriveCount;
    assert(DeriveCount <= static_cast<uint64_t>(
                              std::numeric_limits<int32_t>::max()) &&
           "derivation serial exceeds the in-clause id range");
    C.setProofId(static_cast<int32_t>(DeriveCount));
  }

  /// The proof-hint id of \p Ref: its derivation serial (positive), its
  /// header record index (negative), or 0 when the clause is neither — a
  /// lemma imported from a sibling's pool, say — which poisons the
  /// conflict's hint list (the checker falls back to full propagation).
  int64_t proofHintIdOf(ClauseRef Ref) const {
    return Arena[Ref].proofId();
  }

  /// Sorts the collected HintSteps into replay order (ascending trail
  /// position of the implied literal), dedups, and maps them to hint
  /// ids in \p Out. One unmappable antecedent clears the whole list.
  void finalizeHintIds(std::vector<int64_t> &Out) {
    std::sort(HintSteps.begin(), HintSteps.end());
    HintSteps.erase(std::unique(HintSteps.begin(), HintSteps.end()),
                    HintSteps.end());
    Out.clear();
    for (const auto &[Pos, Ref] : HintSteps) {
      int64_t Id = proofHintIdOf(Ref);
      if (Id == 0) {
        Out.clear();
        return;
      }
      Out.push_back(Id);
    }
  }

  // Scratch used by conflict analysis, kept as members so a conflict
  // reuses their capacity instead of allocating. Seen marks variables;
  // AnalyzeToClear lists every mark analyze() must drop when it ends
  // (the learnt clause's literals, minimized-away ones included, plus
  // the literals litRedundant() proved redundant — MiniSat's
  // analyze_toclear); RedundantStack is litRedundant()'s DFS stack.
  std::vector<uint8_t> Seen;
  std::vector<Var> AnalyzeToClear;
  std::vector<Lit> RedundantStack;
  /// The clause analyze() derives, reused across conflicts.
  std::vector<Lit> Learnt;

  std::vector<Lit> ConflictCore;

  /// Native XOR constraints (empty for pure-CNF formulas; every method
  /// call on an empty engine is a cheap no-op).
  GaussEngine Gauss;

  /// The previous solve() call's assumptions: consecutive calls keep the
  /// trail of their longest common assumption prefix alive instead of
  /// re-deciding and re-propagating it from the root (the cube engine's
  /// ET enumeration hands each worker thousands of cubes sharing long
  /// prefixes).
  std::vector<Lit> PrevAssumptions;

  /// Variable → pending-cube participation counts for reduceDB retention
  /// (see setRetentionView); shared read-only with the cube driver.
  std::shared_ptr<const std::vector<uint32_t>> RetentionView;

  // -- Core algorithms -----------------------------------------------------
  LBool valueOf(Lit L) const { return Values[L.Code]; }
  /// The value of \p V, i.e. of its positive literal.
  LBool varValue(Var V) const { return Values[mkLit(V).Code]; }
  int32_t decisionLevel() const {
    return static_cast<int32_t>(TrailLim.size());
  }

  /// Assigns \p L with reason \p From at the current decision level.
  void enqueue(Lit L, ClauseRef From) {
    assert(valueOf(L) == LBool::Undef && "enqueueing an assigned literal");
    // analyze(), litRedundant() and reduceDB's locked() test all read the
    // implied literal of a reason from C[0].
    assert((From == NoReason || Arena[From][0] == L) &&
           "reason clause does not imply its literal at C[0]");
    Values[L.Code] = LBool::True;
    Values[(~L).Code] = LBool::False;
    Reason[L.var()] = From;
    Level[L.var()] = decisionLevel();
    TrailPosOf[L.var()] = static_cast<uint32_t>(Trail.size());
    Trail.push_back(L);
  }
  ClauseRef propagate();
  /// CNF propagation and XOR propagation to their joint fixpoint.
  ClauseRef propagateFixpoint();
  /// Registers a clause implied by the XOR system as a reason/conflict
  /// justification for conflict analysis. Never watched (sizes < 2 are
  /// tombstoned at birth, so they are never reduceDB candidates either).
  ClauseRef materializeXorClause(std::vector<Lit> Lits);
  /// Derives the minimized first-UIP clause of \p Confl into Learnt
  /// (asserting literal first, a literal of the backjump level second)
  /// and returns the backjump level.
  int32_t analyze(ClauseRef Confl);
  void analyzeFinal(Lit Failed);
  bool litRedundant(Lit L, uint32_t AbstractLevels);
  void backtrack(int32_t ToLevel);
  Lit pickBranchLit();
  void attachClause(ClauseRef Ref);

  /// The order reduceDB leaves every watch list in: binary watchers
  /// first (they resolve without touching clause memory), then by arena
  /// offset, so problem clauses and older lemmas are tried as reasons
  /// before younger ones. Watch-list order steers the search — drifted
  /// insertion order costs ~30% extra conflicts on surface9 t=4. A clause
  /// appears at most once per list, so the keys are unique. The key maps
  /// binary watchers below every offset, so the compare is branch-free:
  /// pushWatch() runs it on every watch move in propagate(), where the
  /// outcome is a coin flip.
  static int64_t watchKey(Watcher W) {
    return isBinaryMark(W.Ref)
               ? int64_t{fromBinaryMark(W.Ref)} - (int64_t{1} << 32)
               : int64_t{W.Ref};
  }
  static bool watchBefore(Watcher A, Watcher B) {
    return watchKey(A) < watchKey(B);
  }
  /// Appends \p W to the watch list of \p Code, flagging the list when
  /// the append breaks its watchBefore() order.
  void pushWatch(int32_t Code, Watcher W) {
    std::vector<Watcher> &WL = Watches[Code];
    if (!WL.empty())
      WatchUnsorted[Code] |= watchBefore(W, WL.back());
    WL.push_back(W);
  }
  /// MiniSat's locked(): \p Ref is the reason of a trail literal. Every
  /// reason keeps its implied literal at C[0] (enqueue asserts it), so
  /// one slot decides it.
  bool locked(ClauseRef Ref) const {
    Lit Head = Arena[Ref][0];
    return Reason[Head.var()] == Ref && valueOf(Head) == LBool::True;
  }
  ClauseRef learnClause(std::span<const Lit> Lits);
  void reduceDB();

  /// Allocates into the arena and keeps the peak-footprint stat current.
  ClauseRef allocClause(std::span<const Lit> Lits, bool Learned) {
    ClauseRef Ref = Arena.alloc(Lits, Learned);
    Stats.ArenaBytes = std::max<uint64_t>(Stats.ArenaBytes,
                                          Arena.sizeBytes());
    return Ref;
  }
  /// Compacts the arena when the wasted fraction crosses GarbageFrac.
  /// Only call from a quiescent point (no ClauseRef held in a local):
  /// the restart path, right after reduceDB.
  void checkGarbage();
  void garbageCollect();
  /// Rewrites every live ClauseRef holder — watch lists, trail reasons,
  /// both clause lists — into \p To. Clauses reachable from none of them
  /// (tombstones nothing locks anymore) are dropped.
  void relocAll(ClauseArena &To);

  // Heap helpers.
  void heapInsert(Var V);
  void heapUpdate(Var V);
  Var heapPop();
  void heapSiftUp(size_t Idx);
  void heapSiftDown(size_t Idx);
  bool heapLess(Var A, Var B) const { return Activity[A] > Activity[B]; }

  void bumpVar(Var V);
  void bumpClause(Clause C);
  void decayActivities();

  /// Pulls clauses published by sibling solvers into the database; must
  /// run at decision level 0. Publishing happens inline at learn time.
  void importSharedClauses();
};

/// Luby restart sequence value (1-based index), used for restart pacing.
uint64_t lubySequence(uint64_t I);

} // namespace veriqec::sat

#endif // VERIQEC_SAT_SOLVER_H
