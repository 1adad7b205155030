"""Tests for the portfolio solver, the sampler and the overflow heuristics."""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.evalmodel import EvaluationError, Model, evaluate, satisfies
from repro.smt.heuristics import overflow_witness_hint, try_algebraic_solution
from repro.smt.interval import Interval
from repro.smt.sampler import ModelSampler, SamplerConfig, split_conjuncts
from repro.smt.solver import PortfolioSolver, SolverConfig, SolverStatus
from repro.smt.terms import Term, TermKind, mask


@pytest.fixture
def solver():
    return PortfolioSolver()


class TestPortfolioBasic:
    def test_empty_query_is_sat(self, solver):
        assert solver.check([]).is_sat

    def test_true_constant(self, solver):
        assert solver.check([b.TRUE]).is_sat

    def test_false_constant(self, solver):
        assert solver.check([b.FALSE]).is_unsat

    def test_point_constraint(self, solver):
        x = b.bv_var("x", 32)
        result = solver.check([b.eq(x, 1234)])
        assert result.is_sat
        assert result.model["x"] == 1234

    def test_contradiction_via_intervals(self, solver):
        x = b.bv_var("x", 32)
        result = solver.check([b.ult(x, 10), b.ugt(x, 20)])
        assert result.is_unsat

    def test_model_always_satisfies(self, solver):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        constraints = [b.ugt(b.mul(x, y), 1000), b.ult(x, 100), b.ult(y, 100)]
        result = solver.check(constraints)
        assert result.is_sat
        for constraint in constraints:
            assert satisfies(constraint, result.model)

    def test_sat_result_carries_metadata(self, solver):
        x = b.bv_var("x", 32)
        result = solver.check([b.ugt(x, 5)])
        assert result.is_sat
        assert result.stages_tried
        assert result.elapsed_seconds >= 0

    def test_solve_for_model_none_on_unsat(self, solver):
        x = b.bv_var("x", 32)
        assert solver.solve_for_model([b.ult(x, 3), b.ugt(x, 5)]) is None


class TestPortfolioOverflowQueries:
    def test_dillo_style_overflow_sat(self, solver):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        wide = b.mul(b.zext(w, 64), b.zext(h, 64))
        result = solver.check(
            [b.ugt(wide, b.bv_const(0xFFFFFFFF, 64)), b.ult(w, 10**6), b.ult(h, 10**6)]
        )
        assert result.is_sat
        assert evaluate(wide, result.model) > 0xFFFFFFFF

    def test_dillo_style_overflow_unsat_with_blocking_bound(self, solver):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        wide = b.mul(b.zext(w, 64), b.zext(h, 64))
        result = solver.check(
            [b.ugt(wide, b.bv_const(0xFFFFFFFF, 64)), b.ult(w, 1154), b.ult(h, 10**6)]
        )
        assert result.is_unsat

    def test_addition_overflow_two_solutions(self, solver):
        """The CVE-2008-2430 shape: x + 2 wraps for exactly two values."""
        x = b.bv_var("x", 32)
        wide = b.add(b.zext(x, 64), b.bv_const(2, 64))
        result = solver.check([b.ugt(wide, b.bv_const(0xFFFFFFFF, 64))])
        assert result.is_sat
        assert result.model["x"] in (0xFFFFFFFE, 0xFFFFFFFF)

    def test_small_bitblast_fallback(self, solver):
        x = b.bv_var("x", 8)
        y = b.bv_var("y", 8)
        constraint = b.eq(b.bvxor(b.mul(x, y), b.bv_const(0x5A, 8)), 0)
        result = solver.check([constraint, b.ugt(x, 3), b.ugt(y, 3)])
        assert result.is_sat
        assert satisfies(constraint, result.model)


class TestSampler:
    def test_split_conjuncts(self):
        p, q, r = b.bool_var("p"), b.bool_var("q"), b.bool_var("r")
        assert len(split_conjuncts(b.band(p, b.band(q, r)))) == 3

    def test_samples_satisfy_constraint(self):
        x = b.bv_var("x", 32)
        y = b.bv_var("y", 32)
        constraint = b.band(b.ult(x, 1000), b.ugt(b.mul(x, y), 500_000))
        sampler = ModelSampler(constraint, [x, y], SamplerConfig(seed=3))
        models = sampler.sample(20)
        assert len(models) == 20
        for model in models:
            assert satisfies(constraint, model)

    def test_samples_are_diverse(self):
        x = b.bv_var("x", 32)
        constraint = b.ugt(x, 10)
        sampler = ModelSampler(constraint, [x], SamplerConfig(seed=5))
        values = {model["x"] for model in sampler.sample(30)}
        assert len(values) > 5

    def test_unsatisfiable_returns_nothing(self):
        x = b.bv_var("x", 32)
        constraint = b.band(b.ult(x, 5), b.ugt(x, 10))
        sampler = ModelSampler(constraint, [x], SamplerConfig(seed=1))
        assert sampler.sample(5) == []

    def test_trivially_true_constraint(self):
        x = b.bv_var("x", 32)
        sampler = ModelSampler(b.TRUE, [x], SamplerConfig(seed=1))
        assert len(sampler.sample(3)) == 3

    def test_deterministic_with_seed(self):
        x = b.bv_var("x", 32)
        constraint = b.ugt(x, 100)
        first = ModelSampler(constraint, [x], SamplerConfig(seed=11)).sample(5)
        second = ModelSampler(constraint, [x], SamplerConfig(seed=11)).sample(5)
        assert [m.as_dict() for m in first] == [m.as_dict() for m in second]

    def test_solver_sample_models_interface(self):
        solver = PortfolioSolver()
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        constraint = b.ugt(b.mul(b.zext(w, 64), b.zext(h, 64)), b.bv_const(0xFFFFFFFF, 64))
        models = solver.sample_models([constraint], 10, seed=2)
        assert len(models) == 10
        for model in models:
            assert satisfies(constraint, model)


class TestHeuristics:
    def test_algebraic_solution_for_bounded_overflow(self):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        constraint = b.band(
            b.ugt(b.mul(b.zext(w, 64), b.zext(h, 64)), b.bv_const(0xFFFFFFFF, 64)),
            b.band(b.ult(w, 10**6), b.ult(h, 10**6)),
        )
        model = try_algebraic_solution(constraint)
        assert model is not None
        assert satisfies(constraint, model)

    def test_algebraic_solution_none_for_unsat(self):
        x = b.bv_var("x", 32)
        constraint = b.band(b.ult(x, 5), b.ugt(x, 10))
        assert try_algebraic_solution(constraint) is None

    def test_overflow_witness_hint_targets_large_values(self):
        w = b.bv_var("w", 32)
        h = b.bv_var("h", 32)
        hint = overflow_witness_hint(b.mul(w, h), 32)
        assert hint["w"] >= 1 << 16
        assert hint["h"] >= 1 << 16


class ReferenceSampler(ModelSampler):
    """The sampler's search before the flat-state kernel, kept as an oracle.

    It draws and climbs on :class:`Model` copies and re-derives intervals
    and variable lists on every move.  The kernel must make the same random
    calls in the same order, so a seeded pair returns identical models.
    """

    def sample_one(self) -> Optional[Model]:
        if self.constraint.kind is TermKind.BOOL_CONST:
            if self.constraint.value:
                return self._random_point()
            return None
        if not self.feasible_hint:
            return None
        for _ in range(self.config.random_attempts_per_sample):
            candidate = self._random_point()
            if satisfies(self.constraint, candidate):
                return candidate
            improved = self._hill_climb(candidate)
            if improved is not None:
                return improved
        return self._fallback_sample()

    def _random_point(self) -> Model:
        model = Model()
        for variable in self.variables:
            name = str(variable.name)
            model[name] = self._random_value(name, variable.width)
        return model

    def _random_value(self, name: str, width: int) -> int:
        interval = self.bounds.get(name, Interval.full(width))
        if interval.is_empty:
            interval = Interval.full(width)
        if interval.is_point:
            return interval.lo
        roll = self.random.random()
        if roll < self.config.boundary_bias:
            # Boundary-biased draws: interval ends and near-power-of-two
            # points are where overflow constraints flip.
            candidates = [interval.lo, interval.hi, max(interval.lo, interval.hi - 1)]
            for shift in (8, 16, 24, 31):
                point = 1 << shift
                if interval.lo <= point <= interval.hi:
                    candidates.append(point)
                    candidates.append(point - 1)
            return self.random.choice(candidates)
        if roll < self.config.boundary_bias + 0.3:
            # Log-uniform draw: choose a bit-length first so small and large
            # magnitudes are equally likely.
            low_bits = max(interval.lo.bit_length(), 1)
            high_bits = max(interval.hi.bit_length(), 1)
            bits = self.random.randint(low_bits, high_bits)
            lo = max(interval.lo, 1 << (bits - 1))
            hi = min(interval.hi, (1 << bits) - 1)
            if lo > hi:
                return self.random.randint(interval.lo, interval.hi)
            return self.random.randint(lo, hi)
        return self.random.randint(interval.lo, interval.hi)

    def _hill_climb(self, model: Model) -> Optional[Model]:
        current = model.copy()
        for _ in range(self.config.hill_climb_steps):
            failing = self._first_failing_conjunct(current)
            if failing is None:
                return current
            moved = self._move_towards(current, failing)
            if moved is None:
                return None
            current = moved
        if satisfies(self.constraint, current):
            return current
        return None

    def _first_failing_conjunct(self, model: Model) -> Optional[Term]:
        for conjunct in self._conjuncts:
            if not satisfies(conjunct, model):
                return conjunct
        return None

    def _move_towards(self, model: Model, conjunct: Term) -> Optional[Model]:
        """Randomly adjust one variable appearing in the failing conjunct."""
        variables = [v for v in conjunct.variables() if str(v.name) in self._widths]
        if not variables:
            return None
        variable = self.random.choice(variables)
        name = str(variable.name)
        width = variable.width
        interval = self.bounds.get(name, Interval.full(width))
        moved = model.copy()
        strategy = self.random.random()
        current_value = model.get(name, 0) or 0
        if strategy < 0.3:
            moved[name] = interval.hi if not interval.is_empty else mask(width)
        elif strategy < 0.6:
            moved[name] = interval.lo if not interval.is_empty else 0
        elif strategy < 0.8:
            delta = 1 << self.random.randint(0, max(width - 1, 1) - 1)
            moved[name] = (current_value + delta) & mask(width)
        else:
            moved[name] = self._random_value(name, width)
        return moved


X, Y, W = b.bv_var("x", 8), b.bv_var("y", 8), b.bv_var("w", 16)
#: Same name as ``X``, another width: moves use the conjunct's own width.
X4 = b.bv_var("x", 4)
BYTE = st.integers(min_value=0, max_value=255)


def _outcome(call):
    """A comparable record of one call: items in key order, None, or the error."""
    try:
        result = call()
    except EvaluationError as error:
        return ("error", str(error))
    if result is None:
        return None
    if isinstance(result, Model):
        return list(result.as_dict().items())
    return [list(model.as_dict().items()) for model in result]


def assert_same_search(constraint, variables, config, anchor=None, calls=3, count=4):
    """The kernel and the reference make identical draws, moves and results."""
    samplers, fallback_calls = [], []
    for cls in (ModelSampler, ReferenceSampler):
        log = []
        fallback_calls.append(log)

        def fallback(term, log=log):
            log.append(term)
            return None if anchor is None else Model(anchor)

        samplers.append(cls(constraint, variables, config, fallback_solve=fallback))
    kernel, reference = samplers
    for _ in range(calls):
        assert _outcome(kernel.sample_one) == _outcome(reference.sample_one)
    assert _outcome(lambda: kernel.sample(count)) == _outcome(lambda: reference.sample(count))
    assert fallback_calls[0] == fallback_calls[1]
    assert kernel.random.getstate() == reference.random.getstate()


@st.composite
def small_terms(draw, depth=2):
    """8-bit terms over ``x`` and ``y`` plus a zero-extended 16-bit ``w``."""
    if depth == 0 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "w", "const"]))
        if leaf == "const":
            return b.bv_const(draw(BYTE), 8)
        if leaf == "w":
            return b.extract(W, 7, 0)
        return X if leaf == "x" else Y
    op = draw(st.sampled_from([b.add, b.mul, b.bvand, b.bvxor, b.sub, b.shl]))
    return op(draw(small_terms(depth=depth - 1)), draw(small_terms(depth=depth - 1)))


@st.composite
def small_atoms(draw):
    kind = draw(st.sampled_from(["cmp", "cmp", "point", "range", "range", "wide", "narrow", "bool"]))
    if kind == "point":
        return b.eq(draw(st.sampled_from([X, Y])), draw(BYTE))
    if kind == "range":
        var = draw(st.sampled_from([X, Y]))
        return draw(st.sampled_from([b.ult, b.ugt, b.ule, b.uge]))(var, draw(BYTE))
    if kind == "wide":
        return b.ugt(b.mul(b.zext(X, 16), W), b.bv_const(draw(st.integers(0, 0xFFFF)), 16))
    if kind == "bool":
        # A conjunct no sampler variable covers: the portfolio never draws
        # boolean variables, so evaluating it fails the same way in both.
        return b.bor(b.bool_var("p"), b.ult(X, draw(BYTE)))
    if kind == "narrow":
        return b.ne(b.zext(X4, 8), draw(BYTE))
    op = draw(st.sampled_from([b.eq, b.ne, b.ult, b.ugt, b.ule, b.uge]))
    return op(draw(small_terms()), draw(small_terms()))


CONFIGS = st.builds(
    SamplerConfig,
    random_attempts_per_sample=st.integers(min_value=0, max_value=6),
    hill_climb_steps=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
    boundary_bias=st.sampled_from([0.0, 0.2, 0.4, 0.7, 1.0]),
    perturbation_attempts=st.integers(min_value=0, max_value=4),
)
VARIABLE_LISTS = st.one_of(
    st.permutations([X, Y, W]),
    st.permutations([X, Y, W, X4]),
    st.lists(st.sampled_from([X, Y, W, X4]), max_size=5),
)
ANCHORS = st.none() | st.dictionaries(st.sampled_from(["x", "y", "w"]), BYTE, max_size=3)


class TestKernelMatchesReference:
    @given(
        atoms=st.lists(small_atoms(), min_size=1, max_size=4),
        variables=VARIABLE_LISTS,
        config=CONFIGS,
        anchor=ANCHORS,
    )
    @settings(max_examples=250, deadline=None)
    def test_random_constraints(self, atoms, variables, config, anchor):
        assert_same_search(b.band(*atoms), variables, config, anchor)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=10, deadline=None)
    def test_default_budgets(self, seed):
        constraint = b.band(
            b.ugt(b.mul(b.zext(X, 16), W), b.bv_const(60_000, 16)),
            b.eq(b.bvand(b.add(X, b.extract(W, 7, 0)), b.bv_const(7, 8)), 3),
        )
        assert_same_search(constraint, [W, X], SamplerConfig(seed=seed), calls=2, count=2)

    @pytest.mark.parametrize(
        "constraint,variables",
        [
            pytest.param(b.band(b.eq(X, 7), b.eq(Y, 200)), [X, Y], id="point-intervals"),
            pytest.param(b.band(b.eq(X, 7), b.ugt(b.mul(X, Y), 30)), [Y, X], id="one-point"),
            pytest.param(b.band(b.ult(X, 9), b.bool_var("p")), [X], id="bool-conjunct"),
            pytest.param(b.band(b.ult(X, 9), b.ugt(Y, 3)), [X], id="undrawn-variable"),
            pytest.param(b.TRUE, [X, W], id="bool-const-true"),
            pytest.param(b.FALSE, [X, W], id="bool-const-false"),
            pytest.param(b.band(b.ult(X, 5), b.ugt(X, 10)), [X], id="infeasible-hint"),
            pytest.param(b.eq(b.mul(X, X), 2), [X, X], id="duplicate-variable"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_named_cases(self, constraint, variables, seed):
        config = SamplerConfig(random_attempts_per_sample=5, hill_climb_steps=6, seed=seed)
        assert_same_search(constraint, variables, config)

    @pytest.mark.parametrize("anchor", [None, {"x": 3}, {"x": 1, "y": 2, "w": 9}])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_fallback_perturbation(self, anchor, seed):
        # x * x == 2 has no 8-bit solution (squares are 0 or 1 mod 4), so
        # every call ends in the complete-solver fallback's perturbations.
        constraint = b.band(b.eq(b.mul(X, X), 2), b.ult(Y, 100))
        config = SamplerConfig(random_attempts_per_sample=3, hill_climb_steps=4, seed=seed)
        assert_same_search(constraint, [X, Y, W], config, anchor)


class TestPortfolioSamplerSeed:
    def test_sampling_layer_models_repeat_for_one_solver_seed(self):
        constraint = b.band(
            b.eq(b.bvand(b.add(X, b.mul(Y, b.bv_const(99, 8))), b.bv_const(255, 8)), 0xEA),
            b.ugt(b.mul(b.zext(X, 16), b.zext(Y, 16)), b.bv_const(3000, 16)),
        )
        results = [PortfolioSolver(SolverConfig(seed=3)).check([constraint]) for _ in range(3)]
        assert {r.reason for r in results} == {"sampling"}
        assert len({tuple(r.model.as_dict().items()) for r in results}) == 1
        for result in results:
            assert satisfies(constraint, result.model)
