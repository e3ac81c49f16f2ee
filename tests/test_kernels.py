"""The numpy kernels against plain-Python and geometric references."""

import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mosaicdensity import _kernels as K
from mosaicdensity import decomposable as D
from mosaicdensity import simplex as S
from mosaicdensity import tiling as TL
from mosaicdensity import zonotope as Z


def _grid_scan_reference(lam, grid_n, budget):
    # one composition (a, b, c, d, e) of grid_n at a time, tau34 = 0
    n = grid_n
    best = -1.0
    best_idx = (0, 0, 0, 0, 0)
    for a in range(n + 1):
        t12 = lam * a * budget / n
        for b in range(n + 1 - a):
            t13 = b * budget / n
            for c in range(n + 1 - a - b):
                t14 = c * budget / n
                for d in range(n + 1 - a - b - c):
                    e = n - a - b - c - d
                    t23 = d * budget / n
                    t24 = e * budget / n
                    val = (
                        t12 * t13 * t23
                        + t12 * t14 * t24
                        + t12 * (t13 * t24 + t14 * t23)
                        + (t13 + t24) * t14 * t23
                        + (t14 + t23) * t13 * t24
                    )
                    if val > best:
                        best = val
                        best_idx = (a, b, c, d, e)
    return best, best_idx


def _grid_scan_full_reference(lam, grid_n, budget):
    # the scan over every a: for each a, the (b, c, d) rows with s <= n - a,
    # keeping the first row of the first a that strictly improves
    n = grid_n
    b, c, d, s = K._triples_by_sum(n)
    t13, t14, t23 = (x * budget / n for x in (b, c, d))
    ends = np.searchsorted(s, np.arange(n + 1), side="right")
    best = -1.0
    best_idx = (0, 0, 0, 0, 0)
    for a in range(n + 1):
        m = ends[n - a]
        e = n - a - s[:m]
        vals = K.volume_cubic(lam * a * budget / n, t13[:m], t14[:m], t23[:m], e * budget / n, 0.0)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            best_idx = (a, int(b[k]), int(c[k]), int(d[k]), int(e[k]))
    return best, np.array(best_idx, dtype=np.int64)


def _cubic_reference(tau):
    # the volume cubic expanded: t_e t_f t_g over every three frame pairs
    # that do not all share one frame vector (16 of the 20 triples)
    total = 0.0
    for triple in combinations(range(6), 3):
        pairs = [set(Z.PAIRS[k]) for k in triple]
        if not set.intersection(*pairs):
            total += tau[triple[0]] * tau[triple[1]] * tau[triple[2]]
    return total


def _triples_by_sum_reference(n):
    # the table as built before: the whole (n + 1)^3 cube, masked to
    # b + c + d <= n, then stably sorted by the sum
    bcd = np.indices((n + 1,) * 3).reshape(3, -1)
    bcd = bcd[:, bcd.sum(axis=0) <= n]
    return bcd[:, np.argsort(bcd.sum(axis=0), kind="stable")]


# (value, composition) of simplex_grid_scan(lam, grid_n, 1.0), recorded
# from the scan over the masked-cube table
_GRID_SCAN_PINNED = {
    (10, 1.0): (0.06400000000000002, [2, 2, 2, 2, 2]),
    (10, 1.5): (0.08, [2, 2, 2, 2, 2]),
    (10, 2.0): (0.09600000000000002, [2, 2, 2, 2, 2]),
    (10, 2.37): (0.10784000000000002, [2, 2, 2, 2, 2]),
    (10, 3.0): (0.12800000000000003, [3, 1, 2, 2, 2]),
    (37, 1.0): (0.0657019327581782, [4, 8, 8, 8, 9]),
    (37, 1.5): (0.07980771129054548, [7, 7, 8, 7, 8]),
    (37, 2.0): (0.09673661974611575, [9, 7, 7, 7, 7]),
    (37, 2.37): (0.10962193749629837, [9, 7, 7, 7, 7]),
    (37, 3.0): (0.13197638836791506, [10, 6, 7, 7, 7]),
    (60, 1.0): (0.06578240740740741, [7, 13, 13, 14, 13]),
    (60, 1.5): (0.08, [12, 12, 12, 12, 12]),
    (60, 2.0): (0.0966851851851852, [14, 11, 12, 11, 12]),
    (60, 2.37): (0.10961703703703701, [16, 11, 11, 11, 11]),
    (60, 3.0): (0.13220370370370368, [16, 11, 11, 11, 11]),
    (150, 1.0): (0.06583377777777777, [17, 33, 33, 33, 34]),
    (150, 1.5): (0.08, [30, 30, 30, 30, 30]),
    (150, 2.0): (0.09673955555555556, [36, 28, 29, 28, 29]),
    (150, 2.37): (0.109699602962963, [38, 28, 28, 28, 28]),
    (150, 3.0): (0.132216, [41, 27, 27, 27, 28]),
}


class TestGridScan:
    @pytest.mark.parametrize("grid_n", [1, 10, 37, 60, 150])
    def test_triples_table_matches_masked_cube(self, grid_n):
        b, c, d, s = K._triples_by_sum(grid_n)
        want = _triples_by_sum_reference(grid_n)
        assert np.array_equal(np.stack((b, c, d)), want)
        assert np.array_equal(s, want.sum(axis=0))
        assert b.dtype == c.dtype == d.dtype == want.dtype

    @pytest.mark.parametrize("grid_n, lam", sorted(_GRID_SCAN_PINNED))
    def test_pinned_value_and_composition(self, grid_n, lam):
        value, comp = K.simplex_grid_scan(lam, grid_n, 1.0)
        want_value, want_comp = _GRID_SCAN_PINNED[grid_n, lam]
        assert value == want_value and comp.tolist() == want_comp

    @pytest.mark.parametrize("grid_n", [10, 16, 24])
    @pytest.mark.parametrize("lam", [1.0, 1.3, 2.0, 2.05, 3.0])
    def test_matches_plain_python_scan(self, grid_n, lam):
        value, comp = K.simplex_grid_scan(lam, grid_n, 1.0)
        want, _ = _grid_scan_reference(lam, grid_n, 1.0)
        assert abs(value - want) <= 1e-15
        # the returned composition is feasible and attains the reported value
        assert comp.dtype == np.int64 and comp.shape == (5,)
        assert (comp >= 0).all() and comp.sum() == grid_n
        t = comp / grid_n
        assert abs(Z.volume_polynomial([lam * t[0], t[1], t[2], t[3], t[4], 0.0]) - value) <= 1e-15

    # 1.5 has exact ties between compositions; 1e6 is the CLI's cap on lambda
    @pytest.mark.parametrize(
        "lam", [1.0, 1.5, 2.0, 2.05, 3.0, 1e6, *np.random.default_rng(15).uniform(1.0, 6.0, 3)]
    )
    def test_two_points_per_triple_match_every_a(self, lam):
        for grid_n in range(10, 41):
            for budget in (0.3, 1.0, 7.5):
                value, comp = K.simplex_grid_scan(lam, grid_n, budget)
                want_value, want_comp = _grid_scan_full_reference(lam, grid_n, budget)
                assert type(value) is float and value == want_value
                assert comp.dtype == np.int64 and comp.tolist() == want_comp.tolist()

    @pytest.mark.parametrize("rows", [1, 7, 100])
    @pytest.mark.parametrize("lam", [1.5, 2.0])
    def test_ties_across_row_blocks(self, monkeypatch, rows, lam):
        # tied maxima in different blocks still go to the smallest a, then the first row
        monkeypatch.setattr(K, "_SCAN_ROWS", rows)
        for grid_n in (10, 12, 20, 24):
            value, comp = K.simplex_grid_scan(lam, grid_n, 1.0)
            want_value, want_comp = _grid_scan_full_reference(lam, grid_n, 1.0)
            assert value == want_value and comp.tolist() == want_comp.tolist()


def _axis_dirs(d):
    # row 2 * axis steps down that axis, row 2 * axis + 1 steps up
    return np.repeat(np.eye(d), 2, axis=0) * np.tile([-1.0, 1.0], d)[:, None]


_FREE = (-np.inf, np.inf)  # the box of a descent with no bounds
_MAX_CALLS = 10_000  # f_many calls after which a descent in these tests counts as one that does not end


def _capped(f_many, calls):
    # f_many logging the columns of each call, and failing a descent that crawls instead of hanging the suite
    def f(y):
        calls.append(y.shape[1])
        assert len(calls) <= _MAX_CALLS, "the descent does not end"
        return f_many(y)

    return f


def _capped_descent(calls):
    # K.greedy_descent with its f_many capped, to patch into an oracle
    descent = K.greedy_descent
    return lambda f_many, *rest: descent(_capped(f_many, calls), *rest)


def _flat(y):
    # a function that no move improves
    return np.ones(y.shape[1])


def _quadratic(x):
    # elementwise over the columns of a stack, or at one point
    return (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.7) ** 2


def _coupled_l1(seed):
    # a weighted L1 distance with a coupling term: moves stall until the step drops below a coordinate's
    # distance to its target, then improve again
    rng = np.random.default_rng(seed)
    target, weight = rng.uniform(-2.0, 2.0, 3), rng.uniform(0.5, 2.0, 3)

    def f_many(y):
        return (weight[:, None] * np.abs(y - target[:, None])).sum(axis=0) + 0.7 * np.abs(y[0] - y[1])

    return f_many, rng.uniform(-2.0, 2.0, 3)


def _greedy_descent_reference(f, move, n_moves, x, step, rounds):
    # the one-move-at-a-time sweep: move(x, step, i) from the current point,
    # None to skip, every strict improvement kept
    best = f(x)
    for _ in range(rounds):
        improved = True
        while improved:
            improved = False
            for i in range(n_moves):
                y = move(x, step, i)
                if y is None:
                    continue
                v = f(y)
                if v < best:
                    best, x, improved = v, y, True
        step *= 0.5
    return best, x


def _one_move_per_call(f_many, dirs, lo, hi, x, step):
    # greedy_descent's interface served by the reference, one point per call
    def move(x, step, i):
        y = x + step * dirs[i]
        return y if ((y >= lo) & (y <= hi)).all() else None

    x = np.asarray(x, dtype=np.float64)
    best, x = _greedy_descent_reference(
        lambda y: f_many(y[:, None])[0], move, len(dirs), x, step, K.REFINE_ROUNDS
    )
    return float(best), x


class TestGreedyDescent:
    def test_reaches_quadratic_minimum(self):
        best, x = K.greedy_descent(_capped(_quadratic, []), _axis_dirs(2), *_FREE, [0.0, 0.0], 0.25)
        assert abs(x[0] - 0.3) < 1e-12 and abs(x[1] + 0.7) < 1e-12
        assert best == _quadratic(x)

    def test_none_move_is_skipped(self):
        # the box refuses x[0] < 1, so x[0] stays above the minimizer;
        # f = 0.49 + 2 (x[1] + 0.7)^2 then resolves x[1] only to ~1e-8
        evaluated = []

        def f_many(y):
            evaluated.append(y[0].copy())
            return _quadratic(y)

        best, x = K.greedy_descent(_capped(f_many, []), _axis_dirs(2), [1.0, -np.inf], np.inf, [1.0, 0.0], 0.25)
        assert x[0] == 1.0 and abs(x[1] + 0.7) < 1e-6
        assert best == _quadratic(x)
        assert (np.concatenate(evaluated) >= 1.0).all()  # the step down is never evaluated

    def test_step_halves_once_per_round(self, monkeypatch):
        # from a point that never moves, each move is evaluated once at each of the halving steps
        rounds, lengths = 12, []

        def f_many(y):
            lengths.extend(np.abs(y).max(axis=0).tolist())
            return _flat(y)

        monkeypatch.setattr(K, "REFINE_ROUNDS", rounds)
        K.greedy_descent(_capped(f_many, []), _axis_dirs(2), *_FREE, [0.0, 0.0], 1.0)
        assert lengths == [0.0] + [0.5**r for r in range(rounds) for _ in range(4)]
        # at the floor step no axis move improves on the quadratic's end point
        _, x = K.greedy_descent(_capped(_quadratic, []), _axis_dirs(2), *_FREE, [0.0, 0.0], 1.0)
        floor = 0.5 ** (rounds - 1)
        assert (_quadratic((x + floor * _axis_dirs(2)).T) >= _quadratic(x)).all()

    def test_ties_do_not_move(self):
        best, x = K.greedy_descent(_capped(_flat, []), _axis_dirs(2), *_FREE, [2.0, 3.0], 0.5)
        assert best == 1.0 and x.tolist() == [2.0, 3.0]

    def test_stalled_rounds_share_calls(self):
        # no move ever improves: after the call at x, each call takes the four moves of eight step sizes
        calls = []
        best, x = K.greedy_descent(_capped(_flat, calls), _axis_dirs(2), *_FREE, [2.0, 3.0], 0.5)
        assert best == 1.0 and x.tolist() == [2.0, 3.0]
        assert K.REFINE_ROUNDS == 60 and K._STEPS_PER_CALL == 8 and calls == [1] + [32] * 7 + [16]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_move_per_call_when_stalls_end(self, seed):
        # the descent ends where the one-move-at-a-time sweep does, to rounding
        f_many, x0 = _coupled_l1(seed)
        best, x = K.greedy_descent(_capped(f_many, []), _axis_dirs(3), *_FREE, x0, 1.0)
        want_best, _ = _one_move_per_call(f_many, _axis_dirs(3), *_FREE, x0, 1.0)
        assert abs(best - want_best) <= 1e-15 and best == f_many(x[:, None])[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_coupled_l1_within_budget(self, seed):
        # best improvement at the largest step that has one: going to the best of the whole window instead
        # lets a small step win, drops the larger ones, and the search crawls
        f_many, x0 = _coupled_l1(seed)
        calls = []
        K.greedy_descent(_capped(f_many, calls), _axis_dirs(3), *_FREE, x0, 1.0)
        assert len(calls) <= 120

    @pytest.mark.parametrize("grid_n", [20, 30, 41, 60])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_decomposable_oracle_matches_one_move_per_call(self, monkeypatch, n, grid_n):
        # the true minimum, and the one-move-at-a-time sweep's value, to rounding
        monkeypatch.setattr(K, "greedy_descent", _capped_descent([]))
        got = D.brute_force_minimize(n, grid_n)
        assert abs(got - D.corrected_minimum(n)[0]) <= 1e-15
        monkeypatch.setattr(K, "greedy_descent", _one_move_per_call)
        assert abs(got - D.brute_force_minimize(n, grid_n)) <= 1e-15 * got

    @pytest.mark.parametrize("grid_n", [10, 60])
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 2.5, 3.0])
    def test_simplex_oracle_matches_one_move_per_call(self, monkeypatch, lam, grid_n):
        monkeypatch.setattr(K, "greedy_descent", _capped_descent([]))
        got = S.grid_simplex_max(lam, grid_n=grid_n)
        monkeypatch.setattr(K, "greedy_descent", _one_move_per_call)
        assert abs(got - S.grid_simplex_max(lam, grid_n=grid_n)) <= 1e-15 * got

    @pytest.mark.parametrize("grid_n", [10, 60, 120])
    @pytest.mark.parametrize("lam", [1e-6, 0.25, 0.3, 0.5, 0.74, 0.75, 0.76, 0.9, 1.0, 1.5, 2.0, 2.37, 2.5, 3.0, 10.0, 1e3])
    def test_simplex_oracle_reaches_closed_form(self, monkeypatch, lam, grid_n):
        monkeypatch.setattr(K, "greedy_descent", _capped_descent([]))
        closed = S.scaled_simplex_max(lam)
        assert abs(S.grid_simplex_max(lam, grid_n=grid_n) - closed) <= 1e-15 * closed


def _each_move_once(descent, calls):
    """``descent`` with each move followed by a probe: the same point plus two coordinates holding the
    step and the row, which f_many scores +inf.  No probe is ever taken, so their coordinates stay
    exact; fails on a move evaluated twice from the same point.  The next point is the best move at
    the largest step that improves."""

    def checked(f_many, dirs, lo, hi, x, step):
        state = {"best": None, "seen": set()}
        labels = np.zeros((2 * len(dirs), 2))
        labels[1::2] = np.column_stack([np.ones(len(dirs)), np.arange(1, len(dirs) + 1)])  # (s, s * (row + 1))

        def checking(y):
            if state["best"] is None:  # the first call, at x
                state["best"] = f_many(y[:-2])[0]
                return np.array([state["best"]])
            vals, probes = f_many(y[:-2, 0::2]), y[-2:, 1::2]  # a move's probe is the next column
            moves = {tuple(p) for p in probes.T}
            assert len(moves) == probes.shape[1] and not moves & state["seen"], "a move evaluated twice from one point"
            state["seen"] |= moves
            better = vals < state["best"]
            if better.any():
                at_step = probes[0] == probes[0, np.argmax(better)]
                state["best"], state["seen"] = vals[at_step].min(), set()
            return np.column_stack([vals, np.full_like(vals, np.inf)]).ravel()

        extra = np.full(2, np.inf)
        best, x = descent(
            _capped(checking, calls), np.hstack([np.repeat(dirs, 2, axis=0), labels]),
            np.append(np.broadcast_to(lo, len(x)), -extra), np.append(np.broadcast_to(hi, len(x)), extra),
            np.append(x, (0.0, 0.0)), step,
        )
        return best, x[:-2]

    return checked


class TestEachMoveOnce:
    """Between two improvements the descent evaluates each move once: after a call that finds nothing it
    drops those steps, and after one that improves it goes on from the new point."""

    @pytest.mark.parametrize("seed", range(6))
    def test_coupled_l1(self, seed):
        f_many, x0 = _coupled_l1(seed)
        calls = []
        best, x = _each_move_once(K.greedy_descent, calls)(f_many, _axis_dirs(3), *_FREE, x0, 1.0)
        want_best, want_x = K.greedy_descent(_capped(f_many, []), _axis_dirs(3), *_FREE, x0, 1.0)
        assert best == want_best and x.tolist() == want_x.tolist() and len(calls) > 10

    # the descent is deterministic, so each oracle's f_many calls are an exact count
    @pytest.mark.parametrize("n, count", [(2, 9), (3, 16), (4, 9), (5, 35), (6, 9), (7, 52)])
    def test_decomposable_oracle(self, monkeypatch, n, count):
        descent, calls = K.greedy_descent, []
        monkeypatch.setattr(K, "greedy_descent", _capped_descent([]))
        want = D.brute_force_minimize(n, 30)
        monkeypatch.setattr(K, "greedy_descent", _each_move_once(descent, calls))
        assert D.brute_force_minimize(n, 30) == want and len(calls) == count

    @pytest.mark.parametrize("lam, count", [(1.5, 10), (2.0, 37), (2.5, 35)])
    def test_simplex_oracle(self, monkeypatch, lam, count):
        descent, calls = K.greedy_descent, []
        monkeypatch.setattr(K, "greedy_descent", _capped_descent([]))
        want = S.grid_simplex_max(lam, grid_n=60)
        monkeypatch.setattr(K, "greedy_descent", _each_move_once(descent, calls))
        assert S.grid_simplex_max(lam, grid_n=60) == want and len(calls) == count

    @pytest.mark.parametrize(
        "run",
        [lambda n=n: D.brute_force_minimize(n, 30) for n in range(2, 8)]
        + [lambda lam=lam: S.grid_simplex_max(lam, grid_n=60) for lam in (1.5, 2.0, 2.5)],
        ids=[f"decomp-{n}" for n in range(2, 8)] + [f"simplex-{lam}" for lam in (1.5, 2.0, 2.5)],
    )
    def test_one_moves_call_per_f_many_call(self, monkeypatch, run):
        # after the first call, at x, every f_many call evaluates the moves of one call: at most
        # _STEPS_PER_CALL step sizes of the oracle's direction table, every candidate inside its box
        descent, log = K.greedy_descent, []

        def counted(f_many, dirs, lo, hi, x, step):
            def f(y):
                log.append(y.shape[1])
                assert y.shape[1] <= K._STEPS_PER_CALL * len(dirs), "more than one call's moves"
                assert ((y.T >= lo) & (y.T <= hi)).all(), "a candidate outside the box"
                return f_many(y)

            return descent(_capped(f, []), dirs, lo, hi, x, step)

        monkeypatch.setattr(K, "greedy_descent", counted)
        want = run()
        assert log[0] == 1 and min(log[1:]) > 0 and len(log) > 2
        monkeypatch.setattr(K, "greedy_descent", _capped_descent([]))
        assert run() == want


def _products_of_norms(*vs):
    return np.prod([np.linalg.norm(v, axis=-1) for v in np.broadcast_arrays(*vs)], axis=0)


class TestCrossAndTripleProduct:
    @pytest.fixture
    def vecs(self):
        return np.random.default_rng(11).normal(size=(3, 500, 3))

    @pytest.fixture
    def wide(self, vecs):
        # lengths over six decades: the tolerance scales with the inputs
        return vecs * np.logspace(-3, 3, 500)[:, None]

    def test_cross3_matches_np_cross(self, vecs, wide):
        for a, b, _ in (vecs, wide):
            for x, y in [(a, b), (a[7], b[9]), (a, b[3]), (a[3], b), (a.reshape(50, 10, 3), b[:10])]:
                got, want = K.cross3(x, y), np.cross(x, y)
                assert got.shape == want.shape
                assert (np.abs(got - want).max(axis=-1) <= 1e-15 * _products_of_norms(x, y)).all()

    def test_det3_matches_linalg_det(self, vecs):
        a, b, c = vecs
        cases = [(a, b, c), (a[7], b[9], c[1]), (a, b[3], c), (a[3], b, c[4]), (a.reshape(50, 10, 3), b[:10], c[0])]
        for x, y, z in cases:
            got = K.det3(x, y, z)
            want = np.linalg.det(np.stack(np.broadcast_arrays(x, y, z), axis=-2))
            assert np.shape(got) == want.shape
            assert (np.abs(got - want) <= 1e-15 * _products_of_norms(x, y, z)).all()

    def test_det3_matches_exact_arithmetic(self, wide):
        # np.linalg.det forms exp(log|det|), whose error grows with |log|det||,
        # so over six decades the reference is the rational value
        a, b, c = wide
        exact = []
        for x, y, z in zip(*(v.tolist() for v in wide)):
            x, y, z = ([Fraction(t) for t in v] for v in (x, y, z))
            exact.append(float(x[0] * (y[1] * z[2] - y[2] * z[1]) - x[1] * (y[0] * z[2] - y[2] * z[0])
                               + x[2] * (y[0] * z[1] - y[1] * z[0])))
        assert (np.abs(K.det3(a, b, c) - exact) <= 1e-15 * _products_of_norms(a, b, c)).all()

    @pytest.mark.parametrize("seed", [0, 5, 7])
    def test_det3_sign_on_every_sweep_block(self, seed):
        # the draws of type4_sweep(m, 100_000, seed), block by block
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        done = 0
        while done < 100_000:
            p = rng.uniform(-1.0, 1.0, size=(min(2048, 100_000 - done), 4, 3))
            p -= p.mean(axis=1, keepdims=True)
            d, want = K.det3(p[:, 0], p[:, 1], p[:, 2]), np.linalg.det(p[:, :3])
            far = np.abs(want) > 1e-12
            assert (np.sign(d[far]) == np.sign(want[far])).all()
            kept = int((np.abs(d) > 5e-2).sum())
            rng.random(size=(kept, 5))
            done += kept


def test_one_cross_and_triple_product():
    # 3-vector cross and triple products go through cross3/det3 or the batch
    # kernels, all on the one component formula; LAPACK's det stays for
    # single 3x3 matrices and lattice bases, never for stacks
    copies = 0
    for path in sorted(Path(K.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "np.cross(" not in text, path.name
        copies += len(re.findall(r"\[1\] \* \w+\[2\] - \w+\[2\] \* \w+\[1\]", text))
        for arg in re.findall(r"np\.linalg\.det\((.*)", text):
            assert "[:," not in arg and "[..." not in arg, f"{path.name}: det of a stack: {arg}"
    assert copies == 1


class TestVolumeCubic:
    def test_matches_expanded_monomials(self):
        tau = np.random.default_rng(1).uniform(0.0, 2.0, size=(200, 6))
        got = K.volume_poly_many(tau)
        want = np.array([_cubic_reference(t) for t in tau])
        assert np.allclose(got, want, rtol=1e-13, atol=0)


_NONNEGATIVE = st.floats(0.0, 1e100) | st.just(0.0)  # products stay finite, and zeros are common


def _typed_bytes(v):
    return type(v), np.asarray(v).shape, np.asarray(v).tobytes()


class TestVolumeCubicFace:
    """With tau34 omitted, volume_cubic is the cubic at tau34 = 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_bits_on_nonnegative_arrays(self, data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=5, max_dims=3, max_side=4))
        t = [data.draw(hnp.arrays(np.float64, shape, elements=_NONNEGATIVE)) for shape in shapes.input_shapes]
        assert _typed_bytes(K.volume_cubic(*t)) == _typed_bytes(K.volume_cubic(*t, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[_NONNEGATIVE] * 5))
    def test_same_bits_on_scalars(self, t):
        assert _typed_bytes(K.volume_cubic(*t)) == _typed_bytes(K.volume_cubic(*t, 0.0))

    def test_same_bits_on_many_rows(self):
        rng = np.random.default_rng(21)
        t = rng.uniform(0.0, 2.0, size=(5, 100_000))
        t[rng.random(t.shape) < 0.2] = 0.0
        assert K.volume_cubic(*t).tobytes() == K.volume_cubic(*t, 0.0).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_same_numbers_on_signed_arrays(self, data):
        signed = st.floats(-1e100, 1e100) | st.just(0.0) | st.just(-0.0)
        t = [data.draw(hnp.arrays(np.float64, 7, elements=signed)) for _ in range(5)]
        assert np.array_equal(K.volume_cubic(*t), K.volume_cubic(*t, 0.0))

    def test_signed_zero_is_why_signed_callers_pass_tau34(self):
        t = (0.0, -1.0, -1.0, 1.0, 1.0)  # t13 t14 t34 = +0.0 turns the face's -0.0 into +0.0
        assert np.signbit(K.volume_cubic(*t)) and not np.signbit(K.volume_cubic(*t, 0.0))


class TestType4Functional:
    def test_matches_built_bodies(self):
        rng = np.random.default_rng(3)
        m = Z.WeightPair(1.0, 0.8)
        frames, betas, want = [], [], []
        while len(frames) < 8:
            v = rng.normal(size=(4, 3))
            v[3] = -(v[0] + v[1] + v[2])
            if abs(np.linalg.det(v[:3])) < 5e-2:
                continue
            frame = Z.validate_generators(v)
            beta = rng.uniform(0.2, 1.3, 5)
            z = Z.build_from_parameters(frame, Z.BetaVector(np.append(beta, 0.0)))
            frames.append(frame)
            betas.append(beta)
            want.append(Z.weighted_edge_functional(z, m) / z.volume() ** (1.0 / 3.0))
        got = K.type4_functional_many(np.array(frames), np.array(betas), m.alpha6, m.alpha4)
        assert np.allclose(got, want, rtol=1e-10)


    @pytest.mark.parametrize("scale", [1e110, 1e-110, 1e300, 1e-300])
    def test_beta_scale_does_not_matter(self, scale):
        # homogeneous of degree 0 in beta; unscaled, the cubic overflowed to
        # inf at 1e110 (value 0) and underflowed to 0 at 1e-110 (value inf)
        rng = np.random.default_rng(2)
        v, beta = rng.normal(size=(400, 4, 3)), rng.uniform(0.01, 1.3, size=(400, 5))
        want = K.type4_functional_many(v, beta, 1.0, 0.8)
        got = K.type4_functional_many(v, beta * scale, 1.0, 0.8)
        assert np.isfinite(got).all()
        assert (np.abs(got / want - 1.0) <= 1e-15).all()

    def test_power_of_two_scale_is_exact(self):
        rng = np.random.default_rng(2)
        v, beta = rng.normal(size=(400, 4, 3)), rng.uniform(0.01, 1.3, size=(400, 5))
        want = K.type4_functional_many(v, beta, 1.0, 0.8)
        for k in (-1000, -3, 5, 1000):
            assert np.array_equal(K.type4_functional_many(v, np.ldexp(beta, k), 1.0, 0.8), want)


class TestComponentRows:
    """The batch kernels give the same bits for every layout of the same frames."""

    @staticmethod
    def _layouts():
        strided = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2 * 999, 4, 3))[::2]
        dense = strided.copy()
        rows = dense.transpose(1, 2, 0).copy()
        view = rows.transpose(2, 0, 1)
        assert dense.flags.c_contiguous and not view.flags.c_contiguous and not strided.flags.c_contiguous
        assert np.shares_memory(K._frame_rows(view), rows)  # the view's rows are not copied
        return dense, view, strided

    def test_type4_functional_many(self):
        beta = np.random.default_rng(5).uniform(0.01, 1.0, size=(999, 5))
        got = [K.type4_functional_many(v, beta, 1.0, 0.7).tobytes() for v in self._layouts()]
        assert got[1] == got[0] and got[2] == got[0]

    def test_pair_scalars_many(self):
        got = [K.pair_scalars_many(v) for v in self._layouts()]
        for outputs in zip(*got):  # gamma, zeta, vol
            dense, view, strided = (np.ascontiguousarray(x).tobytes() for x in outputs)
            assert view == dense and strided == dense


class TestBallClipGeometry:
    def test_inside_segment_full_length(self):
        p0 = np.array([[0.0, 0.0, 0.0]])
        p1 = np.array([[1.0, 0.0, 0.0]])
        assert abs(K.segment_ball_clip(p0, p1, 5.0)[0] - 1.0) < 1e-14

    def test_outside_segment_zero(self):
        p0 = np.array([[10.0, 0.0, 0.0]])
        p1 = np.array([[11.0, 0.0, 0.0]])
        assert K.segment_ball_clip(p0, p1, 5.0)[0] == 0.0

    def test_chord_through_ball(self):
        p0 = np.array([[-10.0, 0.3, 0.0]])
        p1 = np.array([[10.0, 0.3, 0.0]])
        want = 2.0 * np.sqrt(2.0**2 - 0.3**2)
        assert abs(K.segment_ball_clip(p0, p1, 2.0)[0] - want) < 1e-12

    def test_degenerate_segment(self):
        p = np.array([[0.1, 0.2, 0.3]])
        assert K.segment_ball_clip(p, p, 2.0)[0] == 0.0


def _segment_ball_clip_reference(p0, p1, radius):
    """segment_ball_clip as written before its roots moved into a shared helper."""
    d = p1 - p0
    a = (d * d).sum(axis=-1)
    b = 2.0 * (p0 * d).sum(axis=-1)
    c = (p0 * p0).sum(axis=-1) - radius * radius
    disc = b * b - 4.0 * a * c
    out = np.zeros(p0.shape[0])
    ok = (disc > 0.0) & (a > 0.0)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.clip((-b - sq) / (2.0 * a), 0.0, 1.0)
        t2 = np.clip((-b + sq) / (2.0 * a), 0.0, 1.0)
    out[ok] = ((t2 - t1) * np.sqrt(a))[ok]
    return out


def _shell_clip(t, start, end, radius):
    """(S, E) lengths inside the ball from tiling._shell_pairs: whole pairs at
    their edge length, crossing pairs at their chord, the rest zero."""
    whole, idx, chord = TL._shell_pairs(start, end, radius)(t)
    clip = np.where(whole, np.linalg.norm(end - start, axis=1), 0.0)
    clip.flat[idx] = chord
    return clip


class TestShellClip:
    """The endpoint-classified shell clip of tiling.skeleton_density against segment_ball_clip."""

    # at translate 0 and radius 5: inside, outside, tangent at (5, 0, 0),
    # crossing once, crossing twice with both endpoints outside, zero length
    START = np.array(
        [[0.0, 0, 0], [10, 0, 0], [5, -1, 0], [4, 0, 0], [-10, 0.3, 0], [0.1, 0.2, 0.3]]
    )
    END = np.array(
        [[1.0, 0, 0], [11, 0, 0], [5, 1, 0], [6, 0, 0], [10, 0.3, 0], [0.1, 0.2, 0.3]]
    )

    @staticmethod
    def _translated(t, start, end, radius):
        p0 = (t[:, None] + start).reshape(-1, 3)
        p1 = (t[:, None] + end).reshape(-1, 3)
        return K.segment_ball_clip(p0, p1, radius).reshape(len(t), -1)

    def test_each_case_at_the_origin(self):
        whole, idx, _ = TL._shell_pairs(self.START, self.END, 5.0)(np.zeros((1, 3)))
        assert whole[0].tolist() == [True, False, False, False, False, True]
        assert idx.tolist() == [2, 3, 4]  # the tangent pair reaches the chord formula
        got = _shell_clip(np.zeros((1, 3)), self.START, self.END, 5.0)[0]
        want = [1.0, 0.0, 0.0, 1.0, 2.0 * np.sqrt(25.0 - 0.09), 0.0]
        assert np.abs(got - want).max() <= 1e-12
        assert got[[1, 2, 5]].tolist() == [0.0, 0.0, 0.0]

    def test_matches_segment_ball_clip_on_translates(self):
        t = np.random.default_rng(5).uniform(-8.0, 8.0, size=(400, 3))
        t[0] = 0.0
        got = _shell_clip(t, self.START, self.END, 5.0)
        want = self._translated(t, self.START, self.END, 5.0)
        assert got.shape == (400, 6)
        assert np.abs(got - want).max() <= 1e-12
        assert (got[:, 5] == 0.0).all()

    def test_matches_segment_ball_clip_on_a_tiling_shell(self, unit_shapes):
        z = unit_shapes["truncocta"]
        lat = TL.lattice_from_parallelohedron(z)
        start, end, _, _ = TL._pieces(z, lat)
        radius, circ = 20.0, z.circumradius()
        t = lat.points_in_ball(radius + circ)
        shell = t[np.linalg.norm(t, axis=1) + circ >= radius]
        got = _shell_clip(shell, start, end, radius)
        want = self._translated(shell, start, end, radius)
        assert np.abs(got - want).max() <= 1e-12
        # every kind occurs: whole edges, crossing edges and edges outside
        full = np.linalg.norm(end - start, axis=1)
        assert (got == full).any() and ((got > 0) & (got < full)).any() and (got == 0).any()


def test_segment_ball_clip_unchanged_on_the_benchmark_case():
    # the draws of the benchmark's kernel cases at seed 1, in their order
    rng = np.random.default_rng(1)
    rng.normal(size=(200_000, 6))
    rng.uniform(-1.0, 1.0, size=(50_000, 4, 3))
    rng.uniform(0.1, 1.0, size=(50_000, 5))
    seg0 = rng.uniform(-30, 30, size=(500_000, 3))
    seg1 = seg0 + rng.uniform(-1, 1, size=(500_000, 3))
    got = K.segment_ball_clip(seg0, seg1, 25.0)
    assert np.array_equal(got, _segment_ball_clip_reference(seg0, seg1, 25.0))
    assert (got > 0).any() and (got == 0).any()
