"""The pre-flattening object-graph CDCL solver, kept as a reference arm.

This module preserves the original ``_Clause``-object implementation of the
incremental CDCL solver exactly as it stood before :mod:`repro.smt.sat` was
rewritten around flat integer arrays.  It serves two purposes:

* **differential oracle** — property tests solve the same CNF with both
  implementations and require identical SAT/UNSAT statuses (and sound
  models), pinning the flat rewrite to the original semantics;
* **"before" benchmark arm** — ``benchmarks/bench_solver.py`` and
  ``benchmarks/bench_enforcement.py`` swap this solver (and the interpreted
  term evaluator) back in via :func:`repro.smt.hotpath.legacy_hot_path` to
  measure the flattened hot path against the code it replaced.

It shares :class:`~repro.smt.sat.SatStatus` / :class:`~repro.smt.sat.SatResult`
with the flat solver so results are interchangeable.  Do not extend this
module; new solver work happens in :mod:`repro.smt.sat`.
"""


from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.smt.cnf import CNF
from repro.smt.sat import SatResult, SatStatus


class _Clause:
    """A clause with two watched literals (the first two positions)."""

    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool = False) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0

    def __len__(self) -> int:
        return len(self.literals)

    def __repr__(self) -> str:
        return f"Clause({self.literals})"


class ReferenceCDCLSolver:
    """Conflict-driven clause learning SAT solver over a :class:`CNF`.

    The solver keeps a reference to ``cnf`` and loads newly appended
    clauses on every :meth:`solve` call, so one instance can serve a
    growing formula (the persistent bit-blaster of a solver session).
    """

    def __init__(
        self,
        cnf: CNF,
        max_conflicts: Optional[int] = None,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
    ) -> None:
        self.num_vars = 0
        self.max_conflicts = max_conflicts
        self.var_decay = var_decay
        self.clause_decay = clause_decay

        # Assignment state: index by variable (1-based).
        self.assigns: List[Optional[bool]] = [None]
        self.level: List[int] = [0]
        self.reason: List[Optional[_Clause]] = [None]
        self.saved_phase: List[bool] = [False]
        self.activity: List[float] = [0.0]
        self.var_inc = 1.0
        self.clause_inc = 1.0

        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.propagation_head = 0

        self.clauses: List[_Clause] = []
        self.learned: List[_Clause] = []
        self.watches: Dict[int, List[_Clause]] = {}

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

        self._cnf = cnf
        self._loaded_clauses = 0
        self._contradiction = False
        self._sync_with_cnf()

    # ------------------------------------------------------------------
    # Incremental clause loading
    # ------------------------------------------------------------------
    def _grow_to(self, num_vars: int) -> None:
        if num_vars <= self.num_vars:
            return
        extra = num_vars - self.num_vars
        self.assigns.extend([None] * extra)
        self.level.extend([0] * extra)
        self.reason.extend([None] * extra)
        self.saved_phase.extend([False] * extra)
        self.activity.extend([0.0] * extra)
        self.num_vars = num_vars

    def _sync_with_cnf(self) -> None:
        """Load clauses appended to the attached CNF since the last call.

        Must run at decision level 0: new clauses are simplified against the
        root-level assignment (satisfied clauses dropped, permanently false
        literals removed), which keeps the two-watched-literal invariant
        intact for assignments whose propagation events have already been
        consumed.
        """
        if self._cnf.has_contradiction:
            self._contradiction = True
        self._grow_to(self._cnf.num_vars)
        while self._loaded_clauses < len(self._cnf.clauses):
            clause = self._cnf.clauses[self._loaded_clauses]
            self._loaded_clauses += 1
            if not self._add_clause(list(clause)):
                self._contradiction = True
                break

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _watch(self, literal: int, clause: _Clause) -> None:
        self.watches.setdefault(literal, []).append(clause)

    def _add_clause(self, literals: List[int]) -> bool:
        """Add an original clause at level 0; ``False`` on a contradiction.

        (Learned clauses take the separate :meth:`_learn` path, which
        asserts at the backjump level instead of simplifying at the root.)
        """
        literals = list(dict.fromkeys(literals))
        if any(-lit in literals for lit in literals):
            return True
        # Root-level simplification: a literal true at level 0 satisfies the
        # clause forever; one false at level 0 can never help it.
        kept: List[int] = []
        for lit in literals:
            value = self._value(lit)
            if value is None:
                kept.append(lit)
            elif value is True:
                return True
            # value is False at level 0: drop the literal.
        if not kept:
            return False
        if len(kept) == 1:
            self._assign(kept[0], None)
            return True
        clause = _Clause(kept)
        self.clauses.append(clause)
        self._watch(kept[0], clause)
        self._watch(kept[1], clause)
        return True

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _value(self, literal: int) -> Optional[bool]:
        assigned = self.assigns[abs(literal)]
        if assigned is None:
            return None
        return assigned if literal > 0 else not assigned

    def _assign(self, literal: int, reason: Optional[_Clause]) -> None:
        var = abs(literal)
        self.assigns[var] = literal > 0
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.saved_phase[var] = literal > 0
        self.trail.append(literal)

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _backtrack(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        cut = self.trail_lim[target_level]
        for literal in self.trail[cut:]:
            var = abs(literal)
            self.assigns[var] = None
            self.reason[var] = None
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        self.propagation_head = min(self.propagation_head, len(self.trail))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[_Clause]:
        """Unit-propagate; returns a conflicting clause or ``None``."""
        while self.propagation_head < len(self.trail):
            literal = self.trail[self.propagation_head]
            self.propagation_head += 1
            self.propagations += 1
            falsified = -literal
            watchers = self.watches.get(falsified, [])
            new_watchers: List[_Clause] = []
            index = 0
            conflict: Optional[_Clause] = None
            while index < len(watchers):
                clause = watchers[index]
                index += 1
                literals = clause.literals
                # Normalise so literals[0] is the other watched literal.
                if literals[0] == falsified:
                    literals[0], literals[1] = literals[1], literals[0]
                if self._value(literals[0]) is True:
                    new_watchers.append(clause)
                    continue
                # Look for a new literal to watch.
                found = False
                for alt in range(2, len(literals)):
                    if self._value(literals[alt]) is not False:
                        literals[1], literals[alt] = literals[alt], literals[1]
                        self._watch(literals[1], clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                new_watchers.append(clause)
                if self._value(literals[0]) is False:
                    # Conflict: keep remaining watchers and report.
                    new_watchers.extend(watchers[index:])
                    conflict = clause
                    break
                self._assign(literals[0], clause)
            self.watches[falsified] = new_watchers
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        literal = 0
        clause: Optional[_Clause] = conflict
        trail_index = len(self.trail) - 1

        while True:
            assert clause is not None
            self._bump_clause(clause)
            for clause_literal in clause.literals:
                var = abs(clause_literal)
                # Skip the literal this clause propagated (the reason clause
                # of a variable contains the variable itself).
                if literal != 0 and var == abs(literal):
                    continue
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self.level[var] >= self._decision_level():
                        counter += 1
                    else:
                        learned.append(clause_literal)
            # Select the next literal to expand from the trail.
            while not seen[abs(self.trail[trail_index])]:
                trail_index -= 1
            literal = self.trail[trail_index]
            trail_index -= 1
            var = abs(literal)
            seen[var] = False
            counter -= 1
            clause = self.reason[var]
            if counter == 0:
                break
        learned[0] = -literal

        # Compute the backjump level (second-highest level in the clause).
        if len(learned) == 1:
            backjump = 0
        else:
            levels = sorted((self.level[abs(lit)] for lit in learned[1:]), reverse=True)
            backjump = levels[0]
        return learned, backjump

    # ------------------------------------------------------------------
    # VSIDS
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for index in range(1, self.num_vars + 1):
                self.activity[index] *= 1e-100
            self.var_inc *= 1e-100

    def _decay_var_activity(self) -> None:
        self.var_inc /= self.var_decay

    def _bump_clause(self, clause: _Clause) -> None:
        if clause.learned:
            clause.activity += self.clause_inc
            if clause.activity > 1e20:
                for learned in self.learned:
                    learned.activity *= 1e-20
                self.clause_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self.clause_inc /= self.clause_decay

    def _pick_branch_variable(self) -> Optional[int]:
        best_var = None
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if self.assigns[var] is None and self.activity[var] > best_activity:
                best_var = var
                best_activity = self.activity[var]
        return best_var

    # ------------------------------------------------------------------
    # Learned clause management
    # ------------------------------------------------------------------
    def _reduce_learned(self) -> None:
        if len(self.learned) < 2000:
            return
        self.learned.sort(key=lambda c: c.activity)
        keep_from = len(self.learned) // 2
        removed = set(id(c) for c in self.learned[:keep_from] if len(c) > 2)
        if not removed:
            return
        self.learned = [c for c in self.learned if id(c) not in removed]
        for literal in list(self.watches):
            self.watches[literal] = [
                c for c in self.watches[literal] if id(c) not in removed
            ]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve the formula under optional assumption literals.

        Assumptions hold for this call only: they are enqueued as
        pseudo-decisions below the real decision levels, so neither they nor
        anything propagated from them survives into the next call.  An
        assumption literal that is (or becomes) false at a lower level makes
        the call return UNSAT without poisoning the clause database.
        """
        self._backtrack(0)
        self._sync_with_cnf()
        marks = (self.conflicts, self.decisions, self.propagations, self.restarts)
        if self._contradiction:
            return self._result(SatStatus.UNSAT, marks=marks)

        conflict = self._propagate()
        if conflict is not None:
            self._contradiction = True
            return self._result(SatStatus.UNSAT, marks=marks)

        assumptions = [int(lit) for lit in assumptions]
        restart_threshold = 100
        luby = _luby_sequence()
        next_restart = self.conflicts + restart_threshold * next(luby)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self._decision_level() == 0:
                    self._contradiction = True
                    return self._result(SatStatus.UNSAT, marks=marks)
                learned, backjump_level = self._analyze(conflict)
                self._backtrack(backjump_level)
                self._learn(learned)
                self._decay_var_activity()
                self._decay_clause_activity()
                if (
                    self.max_conflicts is not None
                    and self.conflicts - marks[0] >= self.max_conflicts
                ):
                    return self._result(SatStatus.UNKNOWN, marks=marks)
                if self.conflicts >= next_restart:
                    self.restarts += 1
                    next_restart = self.conflicts + restart_threshold * next(luby)
                    self._backtrack(0)
                    self._reduce_learned()
                continue

            if self._decision_level() < len(assumptions):
                # Establish the next assumption as a pseudo-decision.  A
                # level is opened even when the literal already holds, so
                # the level index always tells how many assumptions are in
                # force (and backjumps re-establish the rest on the way
                # back down).
                literal = assumptions[self._decision_level()]
                value = self._value(literal)
                if value is False:
                    return self._result(SatStatus.UNSAT, marks=marks)
                self.trail_lim.append(len(self.trail))
                if value is None:
                    self._assign(literal, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                assignment = {
                    var: bool(self.assigns[var]) for var in range(1, self.num_vars + 1)
                }
                return self._result(SatStatus.SAT, assignment, marks=marks)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            phase = self.saved_phase[variable]
            self._assign(variable if phase else -variable, None)

    def _learn(self, learned: List[int]) -> None:
        if len(learned) == 1:
            self._assign(learned[0], None)
            return
        literals = list(learned)
        # Watch the asserting literal (position 0) and, to keep the watch
        # invariant intact across later backtracking, the literal assigned at
        # the highest remaining decision level (position 1).
        best = max(range(1, len(literals)), key=lambda i: self.level[abs(literals[i])])
        literals[1], literals[best] = literals[best], literals[1]
        clause = _Clause(literals, learned=True)
        self.learned.append(clause)
        self._watch(literals[0], clause)
        self._watch(literals[1], clause)
        self._assign(literals[0], clause)

    def _result(
        self,
        status: str,
        assignment: Optional[Dict[int, bool]] = None,
        marks: Tuple[int, int, int, int] = (0, 0, 0, 0),
    ) -> SatResult:
        return SatResult(
            status=status,
            assignment=assignment,
            conflicts=self.conflicts - marks[0],
            decisions=self.decisions - marks[1],
            propagations=self.propagations - marks[2],
            restarts=self.restarts - marks[3],
        )


def _luby_sequence():
    """Generate the Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    for index in itertools.count(1):
        yield _luby(index)


def _luby(index: int) -> int:
    """The index-th element (1-based) of the Luby sequence."""
    while True:
        k = index.bit_length()
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        index -= (1 << (k - 1)) - 1


def reference_solve_cnf(cnf: CNF, max_conflicts: Optional[int] = None) -> SatResult:
    """Convenience wrapper: solve a CNF from scratch with the reference solver."""
    return ReferenceCDCLSolver(cnf, max_conflicts=max_conflicts).solve()
