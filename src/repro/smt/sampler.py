"""Constraint-guided random model sampling.

The paper's Sections 5.5 and 5.6 sample 200 inputs that satisfy the target
constraint (alone, or together with the enforced branch constraints) and
report how many of those inputs actually trigger the overflow.  This module
provides the sampling primitive: draw diverse models of a boolean constraint
over bitvector variables.

Strategy (cheapest first):

1. Propagate intervals over the constraint conjunction to shrink the search
   box for each variable.
2. Draw random points from the box, biased towards interval end points and
   power-of-two boundaries (overflow constraints are almost always satisfied
   near the extremes).
3. Hill-climb points that are close: flip one variable at a time towards the
   direction suggested by the first falsified conjunct.
4. If nothing is found, fall back to the complete solver for a single model
   and then perturb unconstrained low-order bits of that model.

Steps 2 and 3 run on a flat-state kernel.  The constructor precomputes one
draw table per variable and one table per conjunct (its compiled evaluator
and the move targets of its variables), and the climber changes one plain
``name -> value`` dict in place, wrapping it in a :class:`Model` only when
it returns.  The random-number calls and their order are part of the
contract: a seeded sampler returns the same models call for call.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.smt import evalcompile, evalmodel
from repro.smt.evalmodel import Model, evaluate, satisfies
from repro.smt.interval import Interval, propagate_intervals
from repro.smt.simplify import simplify
from repro.smt.terms import Term, TermKind, mask

#: One variable's draw: ``(lo, hi, boundary candidates or None for a point,
#: low bit-length, high bit-length, (lo, hi) per bit-length)``.
_DrawTable = Tuple[int, int, Optional[Tuple[int, ...]], int, int, Tuple[Tuple[int, int], ...]]
#: One climber move target: ``(name, upper target, lower target, nudge
#: exponent bound, width mask, draw table)``.
_Move = Tuple[str, int, int, int, int, _DrawTable]
#: One conjunct: its 0/1 evaluator over a name -> value dict, and its moves.
_ConjunctTable = Tuple[Callable[[Dict[str, int]], int], Tuple[_Move, ...]]


@dataclass
class SamplerConfig:
    """Tuning knobs for :class:`ModelSampler`."""

    random_attempts_per_sample: int = 400
    hill_climb_steps: int = 60
    seed: Optional[int] = None
    boundary_bias: float = 0.4
    perturbation_attempts: int = 40


def split_conjuncts(constraint: Term) -> List[Term]:
    """Split nested boolean conjunctions into a flat list."""
    out: List[Term] = []
    stack = [constraint]
    while stack:
        term = stack.pop()
        if term.kind is TermKind.BAND:
            stack.extend(term.args)
        else:
            out.append(term)
    out.reverse()
    return out


class ModelSampler:
    """Sample diverse models of a boolean constraint."""

    def __init__(
        self,
        constraint: Term,
        variables: Sequence[Term],
        config: Optional[SamplerConfig] = None,
        fallback_solve: Optional[Callable[[Term], Optional[Model]]] = None,
    ) -> None:
        if not constraint.is_bool:
            raise ValueError("sampler constraint must be boolean")
        self.constraint = simplify(constraint)
        self.variables = list(variables)
        self.config = config or SamplerConfig()
        self.random = random.Random(self.config.seed)
        self.fallback_solve = fallback_solve
        self._widths = {str(v.name): v.width for v in self.variables}
        self._conjuncts = split_conjuncts(self.constraint)
        feasible, bounds = propagate_intervals(self._conjuncts, self._widths)
        self.feasible_hint = feasible
        self.bounds: Dict[str, Interval] = bounds
        self._anchor: Optional[Model] = None
        # Flat-state kernel tables: the search reads these, never the terms
        # or intervals, while it draws and climbs.
        self._boundary_cut = self.config.boundary_bias
        self._log_cut = self.config.boundary_bias + 0.3
        self._draws = [
            (str(v.name), self._draw_table(str(v.name), v.width)) for v in self.variables
        ]
        self._conjunct_tables = [self._conjunct_table(c) for c in self._conjuncts]
        self._closed = all(str(v.name) in self._widths for v in self.constraint.variables())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sample(self, count: int) -> List[Model]:
        """Return up to ``count`` models satisfying the constraint.

        Models are not guaranteed distinct (the paper samples with
        replacement: the same field values can be generated twice), but the
        sampler biases towards diversity.
        """
        models: List[Model] = []
        for _ in range(count):
            model = self.sample_one()
            if model is None:
                break
            models.append(model)
        return models

    def sample_one(self) -> Optional[Model]:
        """Return a single model of the constraint, or ``None`` on failure."""
        if self.constraint.kind is TermKind.BOOL_CONST:
            if self.constraint.value:
                return Model(self._draw_state())
            return None
        if not self.feasible_hint:
            return None
        for _ in range(self.config.random_attempts_per_sample):
            state = self._draw_state()
            if not self._closed:
                # Raises the unassigned-variable error of the whole
                # constraint, exactly where a full check of the draw would.
                satisfies(self.constraint, state)
            model = self._climb(state)
            if model is not None:
                return model
        return self._fallback_sample()

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def _draw_table(self, name: str, width: int) -> _DrawTable:
        """Everything one draw of ``name`` at ``width`` bits needs."""
        interval = self.bounds.get(name, Interval.full(width))
        if interval.is_empty:
            interval = Interval.full(width)
        lo, hi = interval.lo, interval.hi
        if interval.is_point:
            return lo, hi, None, 0, 0, ()
        # Boundary candidates: interval ends and near-power-of-two points
        # are where overflow constraints flip.
        candidates = [lo, hi, max(lo, hi - 1)]
        for shift in (8, 16, 24, 31):
            point = 1 << shift
            if lo <= point <= hi:
                candidates.append(point)
                candidates.append(point - 1)
        # Log-uniform draws pick a bit-length first, so small and large
        # magnitudes are equally likely.  Every length between the two ends'
        # lengths meets [lo, hi], so each clamped range is non-empty.
        low_bits = max(lo.bit_length(), 1)
        high_bits = max(hi.bit_length(), 1)
        ranges = tuple(
            (max(lo, 1 << (bits - 1)), min(hi, (1 << bits) - 1))
            for bits in range(low_bits, high_bits + 1)
        )
        return lo, hi, tuple(candidates), low_bits, high_bits, ranges

    def _conjunct_table(self, conjunct: Term) -> _ConjunctTable:
        """A conjunct's evaluator plus the moves the climber may make on it."""
        check = evalcompile.compiled_evaluator(conjunct) if evalmodel.USE_COMPILED else None
        if check is None:
            check = functools.partial(evaluate, conjunct)
        moves = []
        for variable in conjunct.variables():
            name = str(variable.name)
            if name not in self._widths:
                continue
            width = variable.width
            interval = self.bounds.get(name, Interval.full(width))
            top = mask(width) if interval.is_empty else interval.hi
            bottom = 0 if interval.is_empty else interval.lo
            # A nudge adds 1 << randint(0, exponent): bit width - 2 at most.
            exponent = max(width - 1, 1) - 1
            moves.append(
                (name, top, bottom, exponent, mask(width), self._draw_table(name, width))
            )
        return check, tuple(moves)

    # ------------------------------------------------------------------
    # Kernel
    # ------------------------------------------------------------------
    def _draw_value(self, table: _DrawTable) -> int:
        lo, hi, candidates, low_bits, high_bits, ranges = table
        if candidates is None:
            return lo
        rng = self.random
        roll = rng.random()
        if roll < self._boundary_cut:
            return rng.choice(candidates)
        if roll < self._log_cut:
            range_lo, range_hi = ranges[rng.randint(low_bits, high_bits) - low_bits]
            return rng.randint(range_lo, range_hi)
        return rng.randint(lo, hi)

    def _draw_state(self) -> Dict[str, int]:
        draw = self._draw_value
        return {name: draw(table) for name, table in self._draws}

    def _climb(self, state: Dict[str, int]) -> Optional[Model]:
        """Hill-climb ``state`` in place; a :class:`Model` of it on success.

        Each step finds the first falsified conjunct and moves one of its
        variables: to its upper or lower bound, by a power-of-two nudge, or
        to a fresh draw.  The first check doubles as the check of the draw.
        """
        rng = self.random
        draw = self._draw_value
        tables = self._conjunct_tables
        steps = self.config.hill_climb_steps
        while True:
            for check, moves in tables:
                if not check(state):
                    break
            else:
                return Model(state)
            if not steps or not moves:
                return None
            steps -= 1
            name, top, bottom, exponent, width_mask, table = rng.choice(moves)
            strategy = rng.random()
            if strategy < 0.3:
                state[name] = top
            elif strategy < 0.6:
                state[name] = bottom
            elif strategy < 0.8:
                state[name] = (state[name] + (1 << rng.randint(0, exponent))) & width_mask
            else:
                state[name] = draw(table)

    # ------------------------------------------------------------------
    # Complete-solver fallback
    # ------------------------------------------------------------------
    def _fallback_sample(self) -> Optional[Model]:
        if self._anchor is None and self.fallback_solve is not None:
            self._anchor = self.fallback_solve(self.constraint)
        if self._anchor is None:
            return None
        anchor = self._anchor
        for _ in range(self.config.perturbation_attempts):
            perturbed = anchor.copy()
            for variable in self.variables:
                name = str(variable.name)
                if self.random.random() < 0.5:
                    continue
                flip = 1 << self.random.randint(0, variable.width - 1)
                perturbed[name] = (perturbed.get(name, 0) ^ flip) & mask(variable.width)
            if satisfies(self.constraint, perturbed):
                return perturbed
        return anchor.copy()
