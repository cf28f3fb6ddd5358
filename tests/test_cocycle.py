"""Cocycle transport, Lyapunov spectra, level-0 frames, symplectic pairing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import default_rng

import ietlab.cocycle as cocycle_module
from ietlab.errors import DomainError, NonConvergenceError
from ietlab.rauzy import (IetData, Permutation, RauzyMove, induction_update,
                          rauzy_step)
from ietlab.cocycle import (
    CocyclePath,
    backward_flag_at_origin,
    induction_path,
    lyapunov_spectrum,
    origin_frame,
    second_plane_at_origin,
    symplectic_data,
    unstable_vector_at_origin,
)
from ietlab.zippered import random_surface

PHI = (1 + 5**0.5) / 2
GOLDEN = IetData((1 / PHI, 1 - 1 / PHI), Permutation((2, 1)))


def random_irreducible(rng, m):
    while True:
        images = tuple(int(v) for v in rng.permutation(m) + 1)
        try:
            return Permutation(images)
        except ValueError:
            continue


def desk4_iet(seed):
    rng = default_rng(seed)
    lam = rng.random(4) + 0.05
    return IetData(tuple(lam / lam.sum()), Permutation((4, 3, 2, 1)))


def unit_iet(images):
    """Lengths built the way desk4_iet builds them, at seed 1."""
    rng = default_rng(1)
    lam = rng.random(len(images)) + 0.05
    return IetData(tuple(lam / lam.sum()), Permutation(images))


def cli_iet(images, seed):
    """The exchange `ietlab lyapunov --perm ... --seed seed` runs on."""
    rng = default_rng(seed)
    lam = rng.random(len(images)) + 0.05
    lam = lam / lam.sum()
    return IetData(tuple(float(l) for l in lam), Permutation(images))


def induction_path_oracle(iet, n_steps, unit):
    """Oracle: the path built with a checked IetData per elementary step,
    as (moves, runs, perms, cumulative taus, lengths array)."""

    def step(cur):
        if not abs(float(cur.total) - 1.0) <= 1e-9:
            raise DomainError("oracle step requires |lengths| = 1")
        move, perm, new, _ = induction_update(cur.lengths, cur.perm)
        remaining = sum(new)
        return (move, -math.log(float(remaining)),
                IetData(tuple([l / remaining for l in new]), perm))

    moves, runs = [], []
    perms, taus, lengths = [iet.perm], [0.0], [iet.lengths]
    cur = iet
    if unit == "elementary":
        for _ in range(n_steps):
            move, tau, cur = step(cur)
            moves.append(move)
            runs.append(1)
            perms.append(cur.perm)
            taus.append(taus[-1] + tau)
            lengths.append(cur.lengths)
    else:
        run_move, run_len, run_tau = None, 0, 0.0
        while len(moves) < n_steps:
            move, tau, nxt = step(cur)
            if move is run_move:
                run_len += 1
                run_tau += tau
            else:
                if run_move is not None:
                    moves.append(run_move)
                    runs.append(run_len)
                    perms.append(cur.perm)
                    taus.append(taus[-1] + run_tau)
                    lengths.append(cur.lengths)
                run_move, run_len, run_tau = move, 1, tau
            cur = nxt
    return (tuple(moves), tuple(runs), perms, tuple(taus),
            np.array(lengths, dtype=float))


def golden_loop(pairs):
    """The move word `ab` on 2,1, `pairs` times, as an elementary path.

    Each pair acts by [[1,1],[0,1]] [[1,0],[1,1]] = [[2,1],[1,1]].  The
    lengths alternate between GOLDEN's and their reverse, and each step
    contracts by the golden ratio: the path induction follows from GOLDEN
    until roundoff pulls it off the loop.
    """
    torus = GOLDEN.perm
    n = 2 * pairs
    rows = [GOLDEN.lengths, GOLDEN.lengths[::-1]]
    return CocyclePath((RauzyMove.A, RauzyMove.B) * pairs, (1,) * n,
                       (torus,) * (n + 1),
                       tuple(i * math.log(PHI) for i in range(n + 1)),
                       np.array([rows[i % 2] for i in range(n + 1)]),
                       "elementary")


def step_product(path, n):
    """Oracle: M_0 M_1 .. M_{n-1} of the step matrices, in Python integers."""
    acc = np.eye(path.m, dtype=np.int64).astype(object)
    for i in range(n):
        acc = acc @ path.matrices(i)[0].astype(object)
    return acc


def symplectic_pairing(v, w, perm):
    """Oracle: the alternating pairing <v, L^{-1} w> for w in the image of
    the pairing matrix L."""
    L = symplectic_data(perm).L.astype(float)
    w = np.asarray(w, dtype=float)
    x = np.linalg.lstsq(L, w, rcond=None)[0]
    assert np.linalg.norm(L @ x - w) <= 1e-9 * max(1.0, np.linalg.norm(w))
    return float(np.asarray(v, dtype=float) @ x)


def sine_between(u, v):
    """Sine of the largest principal angle between two column spans of
    one dimension."""
    qu, _ = np.linalg.qr(np.atleast_2d(u.T).T)
    qv, _ = np.linalg.qr(np.atleast_2d(v.T).T)
    return float(np.linalg.norm(qu - qv @ (qv.T @ qu), 2))


# ----------------------------------------------------------------- paths

def test_induction_path_chains():
    path = induction_path(GOLDEN, 6)
    assert len(path) == 6
    assert [move.value for move in path.moves] == ["a", "b"] * 3
    assert path.runs == (1,) * 6 and path.unit == "elementary"
    for i, move in enumerate(path.moves):
        assert path.perms[i + 1] is path.perms[i].successors[move]
    assert path.lengths.shape == (7, 2)
    assert path.lengths[0].tolist() == list(GOLDEN.lengths)
    np.testing.assert_allclose(path.lengths, golden_loop(3).lengths,
                               rtol=1e-12)
    diffs = np.diff(path.cumulative_tau)
    assert (diffs > 0).all()
    np.testing.assert_allclose(diffs, math.log(PHI), rtol=1e-9)


@pytest.mark.parametrize("unit,n", [("elementary", 3000), ("zorich", 1000)])
@pytest.mark.parametrize("images", [
    (4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (2, 4, 3, 6, 1, 5), (5, 4, 3, 2, 1)])
def test_induction_path_matches_the_exchange_per_step_oracle(images, unit, n):
    for seed in (1, 2):
        iet = cli_iet(images, seed)
        path = induction_path(iet, n, unit=unit)
        moves, runs, perms, taus, lengths = induction_path_oracle(iet, n, unit)
        assert path.moves == moves and path.runs == runs
        assert len(path.perms) == len(perms)
        assert all(a is b for a, b in zip(path.perms, perms))
        assert path.cumulative_tau == taus
        assert path.lengths.tobytes() == lengths.tobytes()


def test_zorich_path_groups_runs():
    iet = desk4_iet(0)
    elem = induction_path(iet, 400, unit="elementary")
    zor = induction_path(iet, 40, unit="zorich")
    moves = zor.moves
    assert all(a is not b for a, b in zip(moves, moves[1:]))
    # the grouped product over the first groups matches the elementary prefix
    n_elem = 0
    prod = np.eye(4, dtype=np.int64)
    for i in range(10):
        prod = prod @ zor.matrices(i)[0]
    carried = np.eye(4, dtype=np.int64)  # the prefix product, transposed
    while not (carried.T == prod).all():
        carried = elem.carry(carried, n_elem, n_elem + 1)
        n_elem += 1
        assert n_elem <= 400
    assert n_elem > 10  # groups really aggregate several elementary steps


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_zorich_path_is_the_grouped_elementary_path(m, seed):
    rng = default_rng(seed)
    root = random_irreducible(rng, m)
    lam = rng.random(m) + 0.05
    lengths = tuple(float(l) for l in lam / lam.sum())
    n_groups = 30
    zor = induction_path(IetData(lengths, root), n_groups, unit="zorich")
    # elementary steps until run n_groups + 1 opens, grouped here
    moves, taus, perms, rows, starts = [], [], [root], [lengths], []
    while len(starts) <= n_groups:
        move, tau, nxt, perm = rauzy_step(rows[-1], perms[-1])
        if not moves or move is not moves[-1]:
            starts.append(len(moves))
        moves.append(move)
        taus.append(tau)
        perms.append(perm)
        rows.append(nxt)
    assert len(zor) == n_groups
    eye = np.eye(m, dtype=np.int64)
    shared = {}
    for g, (a, b) in enumerate(zip(starts, starts[1:])):
        move = moves[a]
        assert zor.moves[g] is move and zor.runs[g] == b - a
        assert zor.perms[g] is perms[a] and zor.perms[g + 1] is perms[b]
        prod, run_tau = perms[a].step_matrices[move], taus[a]
        for i in range(a + 1, b):
            prod = prod @ perms[i].step_matrices[move]
            run_tau += taus[i]
        mat, inv = zor.matrices(g)
        assert mat.dtype == inv.dtype == np.int64 and (mat == prod).all()
        assert (inv @ mat == eye).all() and (mat @ inv == eye).all()
        assert not mat.flags.writeable and not inv.flags.writeable
        assert zor.matrix(g) is mat
        if b - a == 1:
            assert mat is perms[a].step_matrices[move]
            assert inv is perms[a].step_inverses[move]
        else:
            # the product is memoized alone; the inverse is built per call
            assert mat is perms[a].run_products[move, b - a]
            again = zor.matrices(g)[1]
            assert again is not inv and (again == inv).all()
        assert shared.setdefault((perms[a], move, b - a), mat) is mat
        assert zor.cumulative_tau[g + 1] == zor.cumulative_tau[g] + run_tau
        assert zor.lengths[g + 1].tolist() == list(rows[b])
    # only the runs that were read are memoized, and no single steps
    for perm in set(perms):
        assert set(perm.run_products) == {
            (move, k) for p, move, k in shared if p is perm and k > 1}


def test_zorich_runs_are_continued_fraction_digits_in_genus_one():
    # on 2,1 a run subtracts the shorter length from the longer as often as
    # it fits, so the runs are the continued-fraction digits of
    # lambda0 / lambda1; a leading digit 0 (lambda0 < lambda1) opens no
    # run.  Float lengths are dyadic rationals, so Fraction gives the
    # digits exactly.  Roundoff takes the float path off the exact one
    # after 11 to 37 groups on these draws, so only 8 are compared
    assert induction_path(GOLDEN, 8, unit="zorich").runs == (1,) * 8
    for alpha in default_rng(5).random(16):
        iet = IetData((float(alpha), 1 - float(alpha)), Permutation((2, 1)))
        x = Fraction(iet.lengths[0]) / Fraction(iet.lengths[1])
        digits = []
        while len(digits) < 9:
            digits.append(math.floor(x))
            x = 1 / (x - digits[-1])
        if digits[0] == 0:
            digits = digits[1:]
        assert induction_path(iet, 8, unit="zorich").runs == \
            tuple(digits[:8])


@pytest.mark.parametrize("case", [*range(2, 13), "long-runs"])
def test_sweep_factors_are_numpy_qr_bit_for_bit(case):
    # the sweep calls numpy's QR kernels itself: its factors must be
    # np.linalg.qr's, bit for bit, forward over zorich groups and backward
    # over their exact inverses, on tall and square frames.  An integer
    # case m sweeps 30 groups from a random m-interval exchange; the
    # long-runs case sweeps groups 10-40 of `lyapunov`'s H^hyp(4) path at
    # seed 1, whose runs of 10, 17, 18 and 25 are 2-5 periods of 5 long
    if case == "long-runs":
        rng = default_rng(0)
        path = induction_path(cli_iet((6, 5, 4, 3, 2, 1), 1), 40,
                              unit="zorich")
        levels = 10, 40
        assert sum(path.runs[g] >= 2 * path.perms[g].run_period(
            path.moves[g]) for g in range(*levels)) >= 4
    else:
        rng = default_rng(case)
        root = random_irreducible(rng, case)
        lam = rng.random(case) + 0.05
        path = induction_path(IetData(tuple(lam / lam.sum()), root), 30,
                              unit="zorich")
        levels = 0, 30
    m = path.m
    for k in sorted({1, (m + 1) // 2, m}):
        frame, _ = np.linalg.qr(rng.standard_normal((m, k)))
        for start, stop in (levels, levels[::-1]):
            q, level, step = frame, start, 1 if stop > start else -1
            for got_q, got_r in path.sweep(frame, start, stop):
                # the carry's float step matrix is a fresh conversion's
                mat = path.matrix(level) if step > 0 else \
                    path.matrices(level - 1)[1]
                moved = path.carry(q, level, level + step)
                assert moved.tobytes() == (mat.T.astype(float) @ q).tobytes()
                want_q, want_r = np.linalg.qr(moved)
                assert got_q.shape == want_q.shape == (m, k)
                assert got_r.shape == want_r.shape == (k, k)
                assert got_q.tobytes() == want_q.tobytes()
                assert got_r.tobytes() == want_r.tobytes()
                q, level = want_q, level + step
            assert level == stop


def test_sweep_raises_when_a_factorization_fails(monkeypatch):
    # numpy's kernel signals `invalid` when LAPACK refuses its input; the
    # sweep must then raise LinAlgError, as np.linalg.qr does, and leave the
    # caller's error state alone between steps and after the failure
    path = induction_path(unit_iet((4, 3, 2, 1)), 5)
    state = np.geterr()
    steps = path.sweep(np.eye(4)[:, :2], 0, 5)
    next(steps)
    assert np.geterr() == state

    def failing(a, signature):
        np.subtract(np.inf, np.inf)
        return np.full(min(a.shape), np.nan)

    monkeypatch.setattr(cocycle_module._umath_linalg, "qr_r_raw", failing)
    with pytest.raises(np.linalg.LinAlgError):
        next(steps)
    with pytest.raises(np.linalg.LinAlgError):
        next(path.sweep(np.eye(4)[:, :2], 5, 0))
    assert np.geterr() == state


@pytest.mark.parametrize("images", [(4, 3, 2, 1), (6, 5, 4, 3, 2, 1)])
def test_forward_transport_builds_no_inverse(images):
    # a forward carry or sweep reads products only: no permutation of the
    # graph computes its step inverses, and the memo holds bare products
    path = induction_path(unit_iet(images), 300, unit="zorich")
    m, n = path.m, len(path)
    assert max(path.runs) > 1
    path.carry(np.eye(m, dtype=np.int64), 0, n)
    path.carry(np.eye(m), 0, n)
    for _ in path.sweep(np.eye(m)[:, :2], 0, n):
        pass
    graph = path.perms[0]._graph.values()
    assert not any("step_inverses" in vars(perm) for perm in graph)
    assert all(type(mat) is np.ndarray
               for perm in graph for mat in perm.run_products.values())
    # a backward carry builds them, from the inverses of single steps
    path.carry(np.eye(m, dtype=np.int64), n, 0)
    assert all("step_inverses" in vars(perm) for perm in path.perms[:-1])


def test_tail_is_the_path_from_a_level():
    path = induction_path(desk4_iet(1), 40, unit="zorich")
    tail = path.tail(15)
    assert len(tail) == 25 and tail.unit == "zorich"
    assert tail.perms == path.perms[15:] and tail.moves == path.moves[15:]
    assert tail.runs == path.runs[15:]
    assert (tail.lengths == path.lengths[15:]).all()
    taus = path.cumulative_tau
    assert tail.total_tau() == taus[40] - taus[15]
    for i in range(25):
        assert tail.matrix(i) is path.matrix(15 + i)
        assert (tail.matrices(i)[1] == path.matrices(15 + i)[1]).all()
    eye = np.eye(4, dtype=np.int64)
    assert (tail.carry(eye, 25, 0) == path.carry(eye, 40, 15)).all()


def test_path_validation():
    with pytest.raises(DomainError):
        CocyclePath(moves=(), runs=(), perms=(), cumulative_tau=(0.0,),
                    lengths=np.full((1, 2), 0.5), unit="elementary")
    with pytest.raises(DomainError):
        CocyclePath(moves=(RauzyMove.A,), runs=(), perms=(GOLDEN.perm,) * 2,
                    cumulative_tau=(0.0, 1.0), lengths=np.full((2, 2), 0.5),
                    unit="elementary")
    with pytest.raises(DomainError):
        induction_path(GOLDEN, 3, unit="bogus")


# --------------------------------------------------------------- products

# An exact carry of the integer identity from level 0 to level n is the
# transposed product M_0 .. M_{n-1} of the step matrices; carried back from
# level n to 0 it is the transposed inverse of that product.

def test_product_identity_and_frozen_value():
    path = induction_path(GOLDEN, 6)
    eye = np.eye(2, dtype=np.int64)
    assert (path.carry(eye, 0, 0) == eye).all()
    assert path.carry(eye, 0, 2).T.tolist() == [[2, 1], [1, 1]]


def test_product_inverse_and_transpose():
    path = induction_path(desk4_iet(1), 30, unit="elementary")
    eye = np.eye(4, dtype=np.int64)
    fw = path.carry(eye, 0, 30).T
    inv = path.carry(eye, 30, 0).T
    assert (np.asarray(fw, dtype=object) @ np.asarray(inv, dtype=object)
            == np.eye(4, dtype=object)).all()
    assert (path.carry(eye, 0, 17) == step_product(path, 17).T).all()


def _integer_inverse(mat: np.ndarray) -> np.ndarray:
    """Oracle: exact inverse of a unimodular integer matrix via Fraction
    elimination."""
    n = mat.shape[0]
    a = [[Fraction(int(mat[i, j])) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        fac = a[col][col]
        a[col] = [v / fac for v in a[col]]
        inv[col] = [v / fac for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            if inv[i][j].denominator != 1:
                raise DomainError("matrix is not unimodular")
            out[i, j] = int(inv[i][j])
    return out


@pytest.mark.parametrize("images,unit", [
    ((4, 3, 2, 1), "elementary"), ((4, 3, 2, 1), "zorich"),
    ((5, 4, 3, 2, 1), "elementary"), ((5, 4, 3, 2, 1), "zorich"),
    ((2, 4, 3, 6, 1, 5), "elementary"), ((2, 4, 3, 6, 1, 5), "zorich"),
    ((2, 1), "synthetic")])
def test_step_inverses_are_exact(images, unit):
    # the synthetic path is the word `ab` on 2,1, not an induction orbit
    path = golden_loop(60) if unit == "synthetic" else \
        induction_path(unit_iet(images), 400, unit=unit)
    m, n = path.m, len(path)
    eye = np.eye(m, dtype=np.int64)
    oracle = {}
    for i in range(n):
        mat, inv = path.matrices(i)
        assert inv.dtype == np.int64 and not inv.flags.writeable
        assert (mat @ inv == eye).all()
        key = id(mat)  # equal steps share their matrices
        if key not in oracle:
            oracle[key] = _integer_inverse(mat)
        assert (inv == oracle[key]).all()
    fw = step_product(path, n)
    assert (path.carry(eye, n, 0) == _integer_inverse(fw).T).all()
    v = np.arange(1, m + 1, dtype=np.int64) * (-1) ** np.arange(m)
    pushed = path.carry(v, 0, n)
    assert (pushed == fw.T @ v).all()
    assert (path.carry(pushed, n, 0) == v).all()


def test_product_big_integer_escalation_exact():
    m = [[2, 1], [1, 1]]  # each pair of moves of the loop
    path = golden_loop(120)
    eye = np.eye(2, dtype=np.int64)
    for k in range(0, 240, 2):
        assert path.carry(eye, k, k + 2).T.tolist() == m
    big = path.carry(eye, 0, 240).T
    assert big.dtype == object
    acc = [[1, 0], [0, 1]]
    for _ in range(120):
        acc = [[acc[i][0] * m[0][j] + acc[i][1] * m[1][j] for j in range(2)]
               for i in range(2)]
    assert all(int(big[i][j]) == acc[i][j] for i in range(2) for j in range(2))


# --------------------------------------------------------------- spectrum

def test_spectrum_golden_top_exponent():
    est = lyapunov_spectrum(GOLDEN, 400, 1)
    assert est.exponents[0] == pytest.approx(1.0, abs=0.01)
    assert est.stderr[0] < 0.1
    assert est.teich_time > 0


def test_spectrum_random_torus():
    rng = default_rng(3)
    lam = rng.random(2)
    iet = IetData(tuple(lam / lam.sum()), Permutation((2, 1)))
    est = lyapunov_spectrum(iet, 1000, 1)
    assert est.exponents[0] == pytest.approx(1.0, abs=0.005)


def test_full_space_symmetric_pair():
    # on the torus the pairing's image is the whole length space
    rng = default_rng(3)
    lam = rng.random(2)
    iet = IetData(tuple(lam / lam.sum()), Permutation((2, 1)))
    top, bottom = lyapunov_spectrum(iet, 1000, 2).exponents
    assert top == pytest.approx(1.0, abs=0.01)
    assert top + bottom == pytest.approx(0.0, abs=0.01)


def test_spectrum_desk4():
    est = lyapunov_spectrum(desk4_iet(0), 2000, 2)
    assert est.exponents[0] == pytest.approx(1.0, abs=0.01)
    assert 0.2 < est.exponents[1] < 0.45
    assert est.exponents[0] > est.exponents[1]


def test_spectrum_symplectic_pairing():
    est = lyapunov_spectrum(desk4_iet(0), 3000, 4)
    th = est.exponents
    assert th[0] + th[3] == pytest.approx(0.0, abs=0.03)
    assert th[1] + th[2] == pytest.approx(0.0, abs=0.03)


@pytest.mark.parametrize("images,k,picked,exact", [
    # lambda_2 = 1/2 on H(1,1) (Bainbridge 2007)
    ((5, 4, 3, 2, 1), 2, slice(1, 2), 1 / 2),
    # Eskin-Kontsevich-Zorich sums g^2/(2g-1) on H^hyp(4), 8/5 on H^odd(4)
    ((6, 5, 4, 3, 2, 1), 3, slice(0, 3), 9 / 5),
    ((2, 4, 3, 6, 1, 5), 3, slice(0, 3), 8 / 5),
    # lambda_2 = 1/3 on H(2) (Bainbridge 2007)
    ((4, 3, 2, 1), 2, slice(1, 2), 1 / 3),
    # EKZ sums (g+1)/2 on H^hyp(2,2) and g^2/(2g-1) on H^hyp(6)
    ((7, 6, 5, 4, 3, 2, 1), 3, slice(0, 3), 2),
    ((8, 7, 6, 5, 4, 3, 2, 1), 4, slice(0, 4), 16 / 7)])
def test_spectrum_matches_closed_forms(images, k, picked, exact):
    est = lyapunov_spectrum(unit_iet(images), 3000, k)
    value = sum(est.exponents[picked])
    err = math.sqrt(sum(e * e for e in est.stderr[picked]))
    assert abs(value - exact) <= 3 * err


def test_spectrum_rejects_zero_steps():
    with pytest.raises(NonConvergenceError):
        lyapunov_spectrum(GOLDEN, 0, 1)


def test_spectrum_rejects_too_many_exponents():
    with pytest.raises(DomainError):
        lyapunov_spectrum(IetData((0.3, 0.3, 0.4), Permutation((3, 2, 1))),
                          100, 3)  # rank of the pairing is 2


# --------------------------------------------------------------- symplectic

def test_symplectic_frozen_values():
    sd = symplectic_data(Permutation((2, 1)))
    assert sd.L.tolist() == [[0, 1], [-1, 0]]
    assert sd.genus == 1 and sd.N_basis.shape[1] == 0

    sd4 = symplectic_data(Permutation((4, 3, 2, 1)))
    expect = np.triu(np.ones((4, 4), dtype=int), 1)
    assert (sd4.L == expect - expect.T).all()
    assert sd4.genus == 2 and sd4.N_basis.shape[1] == 0

    sd3 = symplectic_data(Permutation((3, 2, 1)))
    assert sd3.genus == 1 and sd3.N_basis.shape[1] == 1


@given(st.integers(0, 10**6), st.integers(2, 7))
def test_symplectic_structure(seed, m):
    rng = default_rng(seed)
    perm = random_irreducible(rng, m)
    sd = symplectic_data(perm)
    assert (sd.L + sd.L.T == 0).all()
    assert set(np.unique(sd.L)) <= {-1, 0, 1}
    assert sd.H_basis.shape[1] == 2 * sd.genus
    assert sd.H_basis.shape[1] + sd.N_basis.shape[1] == m
    # independent entry check against the definition
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            assert sd.L[i - 1, j - 1] == (1 if perm(i) > perm(j) else 0)


def test_dual_pairing_constant_along_path():
    # heights carried forward pair with lengths moved by the step inverses
    path = induction_path(desk4_iet(2), 20, unit="elementary")
    rng = default_rng(9)
    v = rng.standard_normal(4)
    w = rng.standard_normal(4)
    vt = path.carry(v, 0, 20)
    wt = w
    for i in range(len(path)):
        wt = path.matrices(i)[1].astype(float) @ wt
    assert float(vt @ wt) == pytest.approx(float(v @ w), abs=1e-9)


def test_symplectic_pairing_antisymmetry_and_kernel():
    perm = Permutation((4, 3, 2, 1))
    v = np.array([1.0, 2.0, -1.0, 0.5])
    L = symplectic_data(perm).L.astype(float)
    assert v @ L @ v == pytest.approx(0.0, abs=1e-12)
    # genus one on three intervals: the pairing has a one-dimensional kernel
    sd = symplectic_data(Permutation((3, 2, 1)))
    w = np.array([1.0, -1.0, 1.0])
    assert sd.genus == 1 and sd.N_basis.shape == (3, 1)
    assert (sd.L @ w == 0).all()
    assert sine_between(sd.N_basis, w) < 1e-12
    assert np.abs(sd.H_basis.T @ w).max() < 1e-12


@given(st.integers(0, 10**6))
def test_symplectic_pairing_invariant_under_induction(seed):
    rng = default_rng(seed)
    m = int(rng.integers(2, 6))
    perm = random_irreducible(rng, m)
    lengths = tuple(float(v) for v in rng.random(m) + 0.05)
    iet = IetData(tuple(np.array(lengths) / sum(lengths)), perm)
    move, _, _, nxt = rauzy_step(iet.lengths, iet.perm)
    sd = symplectic_data(perm)
    v = sd.H_basis @ rng.standard_normal(2 * sd.genus)
    w = sd.H_basis @ rng.standard_normal(2 * sd.genus)
    before = symplectic_pairing(v, w, perm)
    act = perm.step_matrices[move].T.astype(float)
    after = symplectic_pairing(act @ v, act @ w, nxt)
    assert after == pytest.approx(before, abs=1e-9 * max(1, abs(before)))


@given(st.integers(0, 10**6))
def test_image_space_transport(seed):
    rng = default_rng(seed)
    m = int(rng.integers(2, 6))
    perm = random_irreducible(rng, m)
    lengths = tuple(float(v) for v in rng.random(m) + 0.05)
    iet = IetData(tuple(np.array(lengths) / sum(lengths)), perm)
    move, _, _, nxt = rauzy_step(iet.lengths, iet.perm)
    act = perm.step_matrices[move].T.astype(float)
    h_before = symplectic_data(perm).H_basis
    h_after = symplectic_data(nxt).H_basis
    assert sine_between(act @ h_before, h_after) < 1e-6


# ------------------------------------------------------------ splitting

def test_splitting_constant_matrix_oracle():
    # each pair of moves acts by [[2,1],[1,1]], which is symmetric, so its
    # transpose (the acting matrix) has eigenvectors (phi,1) and (-1,phi)
    path = golden_loop(60)
    e_cs = np.array([-1.0, PHI]) / math.sqrt(PHI**2 + 1)
    frame = origin_frame(path, [PHI, 1.0], 32)
    assert sine_between(frame.contracted, e_cs) < 1e-8
    half = backward_flag_at_origin(path, 1, 16)
    assert sine_between(frame.contracted, half) < 1e-6


def test_splitting_window_certificate():
    # halving the pull-back window moves the contracted span by less than
    # 1e-6 once the window is long enough, and visibly before that
    path = induction_path(desk4_iet(0), 400, unit="zorich")

    def halving_sine(window):
        return sine_between(backward_flag_at_origin(path, 3, window),
                            backward_flag_at_origin(path, 3, window // 2))

    assert halving_sine(30) > 1e-3
    assert halving_sine(120) < 1e-6


def test_splitting_equivariance():
    # the span of the 2g - 1 most contracted directions at level n, moved
    # by step n, is the span at level n + 1
    path = induction_path(desk4_iet(0), 400, unit="zorich")

    def contracted_at(n):
        return backward_flag_at_origin(path.tail(n), 3, 120)

    act = path.matrix(200).T.astype(float)
    assert sine_between(act @ contracted_at(200), contracted_at(201)) < 1e-6


def test_splitting_window_preconditions():
    path = induction_path(desk4_iet(0), 50, unit="zorich")
    with pytest.raises(DomainError, match="window exceeds"):
        backward_flag_at_origin(path, 3, 60)
    assert origin_frame(path, np.ones(4), 60).window == 50
    # the second plane needs a pairing of full rank
    torus3 = induction_path(unit_iet((3, 2, 1)), 20)
    with pytest.raises(DomainError, match="full pairing rank"):
        second_plane_at_origin(torus3, np.ones(3), np.eye(3)[:, :1])


# ------------------------------------------------------ origin-level frames

def test_unstable_vector_at_origin():
    iet = desk4_iet(0)
    path = induction_path(iet, 400, unit="zorich")
    zr = random_surface(iet, default_rng(7))
    h0 = np.array([float(h) for h in zr.heights])
    plane = origin_frame(path, h0, 80).plane
    v2 = unstable_vector_at_origin(path, h0, plane)
    assert np.linalg.norm(v2) == pytest.approx(1.0)
    perm0 = path.perms[0]
    # no most-contracted content: pairing with h0 vanishes by construction
    assert abs(symplectic_pairing(v2, h0, perm0)) < 1e-10
    # no top content: pairing with the most contracted direction vanishes
    b1 = backward_flag_at_origin(path, 1, 80)[:, 0]
    ref = abs(symplectic_pairing(h0 / np.linalg.norm(h0), b1, perm0))
    assert abs(symplectic_pairing(v2, b1, perm0)) < 1e-8 * ref
    # stepwise growth over the clean horizon shows the second exponent
    v = v2.copy()
    logs = [0.0]
    for i in range(70):
        v = path.matrix(i).T.astype(float) @ v
        nv = np.linalg.norm(v)
        logs.append(logs[-1] + math.log(nv))
        v /= nv
    slope = (logs[70] - logs[40]) / (path.cumulative_tau[70]
                                     - path.cumulative_tau[40])
    assert 0.2 < slope < 0.55


def test_unstable_vector_rejects_genus_one():
    path = induction_path(GOLDEN, 50)
    with pytest.raises(DomainError):
        origin_frame(path, np.ones(2), 20).second
