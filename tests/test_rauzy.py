"""Induction-layer tests: moves, matrices, classes, orbits.

Frozen values were produced by independent oracles run before the tests were
written: a second, structurally different implementation of the two moves
(pop-and-reinsert for `a`, inversion conjugation for `b`) drove the class
closures, and exact-rational orbit enumeration drove the Birkhoff fixtures.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ietlab.cli as cli_module
import ietlab.cocycle as cocycle_module
import ietlab.rauzy as rauzy_module
from ietlab import (
    BoundaryError,
    DomainError,
    IetData,
    Permutation,
    RauzyMove,
    apply_move,
    birkhoff_sum,
    iet_apply,
    induction_matrix,
    induction_path,
    induction_update,
    inverse_induction_matrix,
    parse_permutation,
    rauzy_class,
    rauzy_step,
)

TORUS = Permutation((2, 1))
DESK4 = Permutation((4, 3, 2, 1))


def random_irreducible(rng, m):
    while True:
        images = tuple(int(v) for v in rng.permutation(m) + 1)
        try:
            return Permutation(images)
        except ValueError:
            continue


# ---------------------------------------------------------------- permutations

def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 2))  # reducible
    with pytest.raises(ValueError):
        Permutation((2, 3, 1, 4))  # fixes {1,2,3}
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_permutation_inverse():
    p = Permutation((3, 1, 4, 2))
    assert p.inverse_images == (2, 4, 1, 3)
    for i in range(1, 5):
        assert p.inverse(p(i)) == i


def test_parse_permutation():
    assert parse_permutation("4,3,2,1").images == (4, 3, 2, 1)
    with pytest.raises(ValueError):
        parse_permutation("1,2")
    with pytest.raises(ValueError):
        parse_permutation("zebra")


# ----------------------------------------------------------------------- moves

def test_move_fixed_points_m2():
    assert apply_move(TORUS, RauzyMove.A).images == (2, 1)
    assert apply_move(TORUS, RauzyMove.B).images == (2, 1)


def test_moves_on_desk4():
    # frozen from the independent pop/reinsert + conjugation oracle
    assert apply_move(DESK4, RauzyMove.A).images == (4, 1, 3, 2)
    assert apply_move(DESK4, RauzyMove.B).images == (2, 4, 3, 1)


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_moves_preserve_irreducibility(m, seed):
    rng = np.random.default_rng(seed)
    p = random_irreducible(rng, m)
    for move in (RauzyMove.A, RauzyMove.B):
        apply_move(p, move)  # constructor re-validates irreducibility


# -------------------------------------------------------------------- matrices

def test_matrices_m2():
    a = induction_matrix(TORUS, RauzyMove.A)
    b = induction_matrix(TORUS, RauzyMove.B)
    assert a.tolist() == [[1, 1], [0, 1]]
    assert b.tolist() == [[1, 0], [1, 1]]


@given(st.integers(2, 7), st.integers(0, 10**6))
def test_matrices_unimodular_nonnegative(m, seed):
    rng = np.random.default_rng(seed)
    p = random_irreducible(rng, m)
    for move in (RauzyMove.A, RauzyMove.B):
        mat = induction_matrix(p, move)
        assert (mat >= 0).all()
        assert abs(round(np.linalg.det(mat.astype(float)))) == 1
        inv = inverse_induction_matrix(p, move)
        assert (mat @ inv == np.eye(m, dtype=np.int64)).all()
        assert (inv @ mat == np.eye(m, dtype=np.int64)).all()


# ---------------------------------------------------------- shared move graph

@given(st.integers(0, 10**6), st.integers(2, 7),
       st.sampled_from(["elementary", "zorich"]))
def test_move_graph_is_shared_along_paths(seed, m, unit):
    # No output can show a cache miss, so count the uncached calls instead.
    rng = np.random.default_rng(seed)
    root = random_irreducible(rng, m)
    lengths = rng.random(m) + 0.05
    iet = IetData(tuple(lengths / lengths.sum()), root)
    calls = {"apply_move": 0, "induction_matrix": 0,
             "inverse_induction_matrix": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    left = set()  # permutations left by an elementary step
    steps = []  # every rauzy_step call, through the name cocycle reads

    def stepping(lengths, perm):
        left.add(perm.images)
        steps.append(perm)
        return saved_step(lengths, perm)

    saved = {name: getattr(rauzy_module, name) for name in calls}
    saved_step = cocycle_module.rauzy_step
    for name, fn in saved.items():
        setattr(rauzy_module, name, counting(name, fn))
    cocycle_module.rauzy_step = stepping
    try:
        path = induction_path(iet, 300, unit=unit)
        pairs = [path.matrices(i) for i in range(len(path))]
    finally:
        for name, fn in saved.items():
            setattr(rauzy_module, name, fn)
        cocycle_module.rauzy_step = saved_step

    # one call per elementary step; a zorich path also takes the step that
    # opens group 301, which closes group 300
    assert len(steps) == (300 if unit == "elementary" else sum(path.runs) + 1)
    shared = {}
    for perm in path.perms:
        assert shared.setdefault(perm.images, perm) is perm
    # each permutation left by a step computes its two moves, their
    # matrices and their inverses once, also inside the runs of a zorich
    # path whose every matrix was read
    for name in calls:
        assert calls[name] <= 2 * len(left)
    if unit == "elementary":
        assert left == {perm.images for perm in path.perms[:-1]}
        assert calls == {name: 2 * len(left) for name in calls}
        for perm, move, nxt, (mat, inv) in zip(path.perms, path.moves,
                                               path.perms[1:], pairs):
            assert nxt is perm.successors[move]
            assert mat is perm.step_matrices[move]
            assert inv is perm.step_inverses[move]
    for perm in shared.values():
        for move in RauzyMove:
            successor = perm.successors[move]
            assert successor == apply_move(perm, move)
            assert shared.get(successor.images, successor) is successor
            mat, inv = perm.step_matrices[move], perm.step_inverses[move]
            assert (mat == induction_matrix(perm, move)).all()
            assert (inv == inverse_induction_matrix(perm, move)).all()
            for shared_array in (mat, inv):
                assert not shared_array.flags.writeable
                with pytest.raises(ValueError):
                    shared_array[0, 0] = 7

    twin = Permutation(root.images)
    assert twin is not root and twin == root and hash(twin) == hash(root)
    assert twin.successors == root.successors


def test_run_product_is_kept_and_walks_one_period():
    root = Permutation((4, 3, 2, 1))  # a graph of its own
    lengths = (3, 1, 7, 5, 12)  # fresh, one step, then longer ones
    eye = np.eye(4, dtype=np.int64)
    for move in RauzyMove:
        for length in lengths:
            perm, prod = root, root.step_matrices[move]
            for _ in range(length - 1):
                perm = perm.successors[move]
                prod = prod @ perm.step_matrices[move]
            mat = root.run_product(move, length)
            assert (mat == prod).all() and not mat.flags.writeable
            assert root.run_product(move, length) is mat
            # the exact inverse, built the way a path builds a group's
            path = cocycle_module.CocyclePath(
                (move,), (length,), (root, perm.successors[move]),
                (0.0, 1.0), np.ones((2, 4)), "zorich")
            same, inv = path.matrices(0)
            assert same is mat and not inv.flags.writeable
            assert (inv @ mat == eye).all() and (mat @ inv == eye).all()
    # only products are kept, one per run length asked for
    assert set(root.run_products) == {(move, k) for move in RauzyMove
                                      for k in lengths}
    assert all(isinstance(mat, np.ndarray)
               for mat in root.run_products.values())
    # a run at least a period long powers the product of its first
    # period: each permutation of the period reads its step matrix once,
    # where the left-to-right product reads one per step
    reads = []

    class Counted(dict):
        def __getitem__(self, move):
            reads.append(move)
            return dict.__getitem__(self, move)

    for move in RauzyMove:
        fresh = Permutation((4, 3, 2, 1))
        period = fresh.run_period(move)
        cycle = [fresh]
        for _ in range(period - 1):
            cycle.append(cycle[-1].successors[move])
        assert cycle[-1].successors[move] is fresh and len(set(cycle)) == period
        for perm in cycle:
            vars(perm)["step_matrices"] = Counted(perm.step_matrices)
        for length in (2, period, 3 * period + 1, 7673):
            reads.clear()
            fresh.run_product(move, length)
            assert len(reads) == min(length, period)


def test_run_product_refuses_an_empty_run():
    root = Permutation((4, 3, 2, 1))
    for length in (0, -3):
        with pytest.raises(DomainError):
            root.run_product(RauzyMove.A, length)
    assert not root.run_products


@pytest.mark.parametrize("images", [(4, 3, 2, 1), (6, 5, 4, 3, 2, 1)])
def test_run_products_are_left_to_right_bit_for_bit(images):
    # every member and move of the class: a run comes back after its
    # period, m - pi^-1(m) for `a` and m - pi(m) for `b`, and no sooner;
    # lengths 1 ... 3P + 1 and the longest run of spectrum-hyp (7,673)
    # equal the left-to-right product of the step matrices bit for bit
    members = rauzy_class(Permutation(images)).members
    m = len(images)
    for perm in members:
        for move in RauzyMove:
            period = perm.run_period(move)
            assert period == m - (perm.inverse(m) if move is RauzyMove.A
                                  else perm(m))
            visit = perm
            for k in range(1, period + 1):
                visit = visit.successors[move]
                assert (visit is perm) == (k == period)
            want = {*range(1, 3 * period + 2), 7673}
            visit, prod = perm, perm.step_matrices[move]
            for k in range(1, max(want) + 1):
                if k > 1:
                    visit = visit.successors[move]
                    prod = prod @ visit.step_matrices[move]
                if k in want:
                    got = perm.run_product(move, k)
                    assert got.dtype == np.int64 and not got.flags.writeable
                    assert got.tobytes() == prod.tobytes()


# ----------------------------------------------------------------- step type

def test_rauzy_type_cases():
    # `a` when the last image interval wins, `b` when the last domain one
    # does; the tie is refused
    assert rauzy_step((0.7, 0.3), TORUS)[0] is RauzyMove.A
    assert rauzy_step((0.3, 0.7), TORUS)[0] is RauzyMove.B
    with pytest.raises(BoundaryError):
        rauzy_step((0.5, 0.5), TORUS)


# -------------------------------------------------------------------- IetData

@pytest.mark.parametrize("lengths", [
    (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
    (0.0, 0.5, 0.5), (0.5, -0.25, 0.75), (0.5, 0.5)])
def test_iet_data_rejects_bad_lengths(lengths):
    with pytest.raises(ValueError):
        IetData(lengths, Permutation((3, 2, 1)))


def test_iet_data_stores_a_tuple():
    iet = IetData([0.25, 0.75], TORUS)
    assert iet.lengths == (0.25, 0.75) and type(iet.lengths) is tuple


# ----------------------------------------------------------------- rauzy_step

def test_step_torus_hand_values():
    move, tau, lengths, perm = rauzy_step((0.7, 0.3), TORUS)
    assert move is RauzyMove.A
    assert perm is TORUS.successors[move] and perm.images == (2, 1)
    assert type(lengths) is tuple
    assert lengths == pytest.approx((4 / 7, 3 / 7), abs=1e-15)
    assert tau == pytest.approx(-math.log(0.7), abs=1e-15)


def test_step_divides_by_the_remaining_total():
    # a `b` step keeps 0.3 and 0.7 - 0.3 of total 0.7, where 0.3 / 0.7
    # and 0.3 * (1 / 0.7) differ in the last bit
    move, _, lengths, _ = rauzy_step((0.3, 0.7), TORUS)
    assert move is RauzyMove.B
    assert lengths == (0.3 / 0.7, (0.7 - 0.3) / 0.7)
    assert lengths[0] == 0.4285714285714286 != 0.3 * (1 / 0.7)


@pytest.mark.parametrize("lengths", [
    (0.7, 0.3, 0.0), (0.25, 0.75), (0.25, 0.25, 0.25, 0.25, 0.0)])
def test_step_refuses_a_size_mismatch(lengths):
    with pytest.raises(ValueError, match="size mismatch"):
        rauzy_step(lengths, DESK4)


def test_step_requires_normalized():
    for lengths in [(0.7, 0.6), (0.3, 0.3), (math.inf, 0.5), (-math.inf, 0.5)]:
        with pytest.raises(DomainError, match="requires"):
            rauzy_step(lengths, TORUS)


@pytest.mark.parametrize("lengths", [
    (math.nan, 0.25, 0.25, 0.5), (0.25, math.nan, 0.25, 0.5),
    (0.25, 0.25, 0.5, math.nan), (math.nan,) * 4])
def test_step_refuses_nan_in_any_place(lengths):
    # a NaN total fails the unit-total check wherever the NaN stands;
    # min alone would return 0.25 for a NaN after the first entry
    with pytest.raises(DomainError, match="requires"):
        rauzy_step(lengths, DESK4)


@pytest.mark.parametrize("lengths", [
    (0.0, 0.25, 0.25, 0.5), (0.25, 0.25, 0.5, 0.0), (0.5, -0.25, 0.25, 0.5),
    (0.75, 0.5, 0.25, -0.5), (Fraction(0), Fraction(1, 2), Fraction(1, 4),
                              Fraction(1, 4))])
def test_step_refuses_nonpositive_lengths(lengths):
    with pytest.raises(ValueError, match="positive"):
        rauzy_step(lengths, DESK4)


def test_step_boundary_raises():
    with pytest.raises(BoundaryError):
        rauzy_step((0.5, 0.5), TORUS)
    with pytest.raises(BoundaryError):
        rauzy_step((0.25, 0.25, 0.25, 0.25), DESK4)
    with pytest.raises(BoundaryError):
        rauzy_step((Fraction(1, 2), Fraction(1, 2)), TORUS)
    with pytest.raises(BoundaryError):
        induction_update((Fraction(1, 2), Fraction(1, 2)), TORUS)


def test_golden_period_two():
    phi_inv = (math.sqrt(5) - 1) / 2
    golden = (phi_inv, 1 - phi_inv)
    move1, _, lengths, perm = rauzy_step(golden, TORUS)
    move2, _, lengths, perm = rauzy_step(lengths, perm)
    assert (move1, move2) == (RauzyMove.A, RauzyMove.B)
    assert lengths == pytest.approx(golden, abs=1e-12)


@given(st.integers(2, 6), st.integers(0, 10**6))
def test_step_reconstruction_identity(m, seed):
    # lengths = matrix @ (unnormalized image lengths), checked to 1e-10
    rng = np.random.default_rng(seed)
    p = random_irreducible(rng, m)
    lam = rng.dirichlet(np.ones(m))
    try:
        move, tau, lengths, _ = rauzy_step(tuple(lam), p)
    except BoundaryError:
        return
    recon = p.step_matrices[move] @ (np.array(lengths) * math.exp(-tau))
    assert np.allclose(recon, lam, atol=1e-10)
    assert min(lengths) > 0
    assert tau > 0


def test_exact_rational_step():
    iet = IetData((Fraction(7, 10), Fraction(3, 10)), TORUS)
    move, new_perm, new_lengths, shrink = induction_update(iet.lengths, iet.perm)
    assert move is RauzyMove.A
    assert new_lengths == (Fraction(2, 5), Fraction(3, 10))
    assert shrink == Fraction(3, 10)
    assert new_perm.images == (2, 1)


def test_exact_rational_rauzy_step():
    move, tau, lengths, perm = rauzy_step((Fraction(7, 10), Fraction(3, 10)),
                                          TORUS)
    assert move is RauzyMove.A and perm.images == (2, 1)
    assert lengths == (Fraction(4, 7), Fraction(3, 7))
    assert all(type(l) is Fraction for l in lengths)
    assert tau == -math.log(0.7)
    # twenty exact desk steps stay Fractions of total 1 (this rational
    # exchange ties at step 27)
    lengths, perm = tuple(Fraction(c, 101) for c in (10, 20, 30, 41)), DESK4
    for _ in range(20):
        _, _, lengths, perm = rauzy_step(lengths, perm)
        assert sum(lengths) == 1
        assert all(type(l) is Fraction for l in lengths)


# ---------------------------------------------------------------- rauzy_class

def test_class_m2_singleton():
    cls = rauzy_class(TORUS)
    assert [p.images for p in cls.members] == [(2, 1)]
    assert cls.edges == ((0, "a", 0), (0, "b", 0))


def test_class_m3_regression():
    # frozen from the independent-oracle closure
    cls = rauzy_class(Permutation((3, 2, 1)))
    assert [p.images for p in cls.members] == [(2, 3, 1), (3, 1, 2), (3, 2, 1)]


def test_class_desk4():
    cls = rauzy_class(DESK4)
    assert len(cls) == 7
    assert [p.images for p in cls.members] == [
        (2, 4, 1, 3), (2, 4, 3, 1), (3, 1, 4, 2), (3, 2, 4, 1),
        (4, 1, 3, 2), (4, 2, 1, 3), (4, 3, 2, 1),
    ]


@given(st.integers(0, 10**6), st.integers(2, 6))
def test_class_closed_and_contains_seed(seed, m):
    rng = np.random.default_rng(seed)
    p = random_irreducible(rng, m)
    cls = rauzy_class(p)
    members = {q.images for q in cls.members}
    assert p.images in members
    for q in cls.members:
        for move in (RauzyMove.A, RauzyMove.B):
            assert apply_move(q, move).images in members
    # every member has exactly two outgoing labeled edges
    assert len(cls.edges) == 2 * len(cls)


# ------------------------------------------------------------------ iet_apply

def test_apply_rotation_values():
    iet = IetData((0.7, 0.3), TORUS)
    assert iet_apply(iet, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert iet_apply(iet, 0.8) == pytest.approx(0.1, abs=1e-12)
    assert iet_apply(iet, 0.7) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        iet_apply(iet, 1.0)
    with pytest.raises(DomainError):
        iet_apply(iet, -0.1)


@given(st.integers(0, 10**6), st.integers(2, 6))
def test_apply_bijection_on_grid(seed, m):
    # Lebesgue-preservation surrogate: injective on a fine grid of points
    rng = np.random.default_rng(seed)
    p = random_irreducible(rng, m)
    lam = rng.dirichlet(np.ones(m))
    iet = IetData(tuple(lam), p)
    xs = (np.arange(200) + 0.5) / 200.0
    images = sorted(iet_apply(iet, x) for x in xs)
    assert all(0 <= y < 1 for y in images)
    assert all(b - a > 1e-12 for a, b in zip(images, images[1:]))


def test_apply_bijection_dense_grid():
    iet = IetData((0.7, 0.3), TORUS)
    xs = np.arange(10**4) / 10**4
    images = np.sort([iet_apply(iet, float(x)) for x in xs])
    assert len(np.unique(images)) == len(xs)


# --------------------------------------------------------------- birkhoff_sum

def test_birkhoff_zero_values():
    iet = IetData((0.7, 0.3), TORUS)
    assert birkhoff_sum(iet, [0.0, 0.0], 0.2, 50) == [0] * 51


def test_birkhoff_constant_function():
    iet = IetData((0.7, 0.3), TORUS)
    total = birkhoff_sum(iet, lambda x: 2.5, 0.1, 40)[-1]
    assert total == pytest.approx(100.0)


def test_birkhoff_frozen_rational_orbit():
    # frozen from the exact-rational direct-orbit oracle
    iet = IetData((Fraction(7, 10), Fraction(3, 10)), TORUS)
    vals = [Fraction(-3, 10), Fraction(7, 10)]
    partials = birkhoff_sum(iet, vals, Fraction(0), 10)
    assert partials == [
        Fraction(0), Fraction(-3, 10), Fraction(-3, 5), Fraction(-9, 10),
        Fraction(-1, 5), Fraction(-1, 2), Fraction(-4, 5), Fraction(-1, 10),
        Fraction(-2, 5), Fraction(-7, 10), Fraction(0),
    ]
    assert (partials[-1], min(partials), max(partials)) == \
        (0, Fraction(-9, 10), Fraction(0))


def test_birkhoff_evaluators_agree_piecewise_constant():
    iet = IetData((0.7, 0.3), TORUS)
    vals = [-0.3, 0.7]
    handle = lambda x: vals[iet.interval_index(x)]
    a = birkhoff_sum(iet, vals, 0.123, 200)
    b = birkhoff_sum(iet, handle, 0.123, 200)
    assert a == b  # bitwise identical arithmetic


@given(st.integers(0, 10**6))
def test_birkhoff_additivity_exact(seed):
    rng = np.random.default_rng(seed)
    den = 1000
    a = Fraction(int(rng.integers(1, den // 2)), den)
    iet = IetData((a, 1 - a), TORUS)
    vals = [Fraction(3), Fraction(-7)]
    x = Fraction(int(rng.integers(0, den)), den)
    n1, n2 = int(rng.integers(0, 40)), int(rng.integers(0, 40))
    mid = x
    for _ in range(n1):
        mid = iet_apply(iet, mid)
    s_full = birkhoff_sum(iet, vals, x, n1 + n2)[-1]
    s_split = birkhoff_sum(iet, vals, x, n1)[-1] + birkhoff_sum(
        iet, vals, mid, n2)[-1]
    assert s_full == s_split


# ----------------------------------------------------------- float orbits

CHUNK = rauzy_module._CHUNK


def scalar_orbit(iet, x, n):
    """The loop the vectorized orbit replaces: indices and points."""
    idx, xs = [], [x]
    for _ in range(n):
        i = iet.interval_index(x)
        x = x + iet.translations[i]
        idx.append(i)
        xs.append(x)
    return idx, xs


def kernel_orbit(iet, x, n, steps=None):
    """The chunks of `_orbit` joined; `steps` collects them as they come."""
    idx, xs = [] if steps is None else steps, [x]
    for part, pts in rauzy_module._orbit(iet, x, n):
        assert 0 < part.size <= CHUNK and pts.size == part.size + 1
        assert pts[0] == xs[-1]
        idx.extend(part.tolist())
        xs.extend(pts[1:].tolist())
    return idx, xs


def same_bits(a, b):
    return np.array(a, dtype=float).tobytes() == \
        np.array(b, dtype=float).tobytes()


def random_float_iet(rng, m):
    lengths = rng.random(m) + 0.05
    return IetData(tuple(float(v) for v in lengths / lengths.sum()),
                   random_irreducible(rng, m))


def sup_oracle(iet, values, x, marks):
    """The scalar running-supremum loop that `running_sup_profile` replaced."""
    sups, total, peak = [], 0, 0.0
    for k in range(1, marks[-1] + 1):
        i = iet.interval_index(x)
        total = total + values[i]
        x = x + iet.translations[i]
        peak = max(peak, abs(total))
        if k in marks:
            sups.append(float(peak))
    return sups


def test_rauzy_move_hash_is_identity():
    assert {RauzyMove.A: 1}[RauzyMove("a")] == 1
    assert hash(RauzyMove.B) == object.__hash__(RauzyMove.B)


@given(st.integers(0, 10**6), st.integers(2, 7), st.integers(1, 3000))
def test_orbit_matches_scalar_loop(seed, m, n):
    rng = np.random.default_rng(seed)
    iet = random_float_iet(rng, m)
    x = float(rng.random())
    idx, xs = kernel_orbit(iet, x, n)
    want_idx, want_xs = scalar_orbit(iet, x, n)
    assert idx == want_idx and same_bits(xs, want_xs)


@pytest.mark.parametrize("m", [2, 4, 7])
def test_orbit_and_sup_across_chunk_boundaries(m):
    rng = np.random.default_rng(40 + m)
    iet = random_float_iet(rng, m)
    x = float(rng.random())
    n = 2 * CHUNK + 3
    want_idx, want_xs = scalar_orbit(iet, x, n)
    for k in (1, CHUNK - 1, CHUNK, CHUNK + 1, n):
        idx, xs = kernel_orbit(iet, x, k)
        assert idx == want_idx[:k] and same_bits(xs, want_xs[:k + 1])
    values = [float(v) for v in rng.normal(size=m)]
    marks = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, n]
    got = rauzy_module.running_sup_profile(iet, values, x, marks)
    assert same_bits(got, sup_oracle(iet, values, x, marks))


@given(st.integers(0, 10**6), st.integers(2, 7))
def test_orbit_recovers_from_a_wrong_prediction(seed, m):
    rng = np.random.default_rng(seed)
    iet = random_float_iet(rng, m)
    x = float(rng.random())
    n = int(rng.integers(50, 600))
    flip = int(rng.integers(0, 50))
    predict = rauzy_module.Tower.predict
    calls = []

    def corrupted(tower, x, n):
        guess = predict(tower, x, n)
        if not calls and guess.size > flip:
            guess[flip] = (guess[flip] + 1) % m
        calls.append(n)
        return guess

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rauzy_module.Tower, "predict", corrupted)
        idx, xs = kernel_orbit(iet, x, n)
    want_idx, want_xs = scalar_orbit(iet, x, n)
    assert idx == want_idx and same_bits(xs, want_xs)
    assert len(calls) >= 2  # the wrong letter forced a second prediction


def test_orbit_on_a_tie_uses_level_zero_only():
    iet = IetData((0.25,) * 4, DESK4)
    idx, xs = kernel_orbit(iet, 0.1, 1000)
    want_idx, want_xs = scalar_orbit(iet, 0.1, 1000)
    assert idx == want_idx and same_bits(xs, want_xs)


def deviation_surface():
    """A surface whose shortest block stays short for thousands of levels:
    the deviation surface of 2,4,3,6,1,5 at seed 3."""
    cfg = cli_module.ExperimentConfig("deviation", (2, 4, 3, 6, 1, 5), 3)
    return cli_module._surface_from_config(cfg)[0]


def test_orbit_tower_stops_at_its_table():
    # the orbit tower ends at its last level of short blocks, however long
    # the shortest block stays short, and the sums keep the loop's bits
    iet = deviation_surface()
    values = [float(v) for v in np.random.default_rng(7).normal(size=iet.m)]
    x = float(np.random.default_rng(6).random() * iet.total)
    marks = [100, 1000, 4321, CHUNK, 3 * CHUNK + 5, 10**5]
    got = rauzy_module.running_sup_profile(iet, values, x, marks)
    assert same_bits(got, sup_oracle(iet, values, x, marks))


def predictor_oracle(iet):
    """The orbit predictor built one IetData per level by iterated
    `induction_update`: per level the lengths, breakpoints, translations,
    return times and words as rows, and the table of each block's level-0
    itinerary, spelled by joining lists.  It ends at a tie, at a level
    whose total is not below the total above (float resolution), or before
    the first level with a block longer than _TABLE_Q steps."""
    m, cap = iet.m, rauzy_module._TABLE_Q
    level = IetData(tuple(float(l) for l in iet.lengths), iet.perm)
    q = np.ones(m, dtype=np.int64)
    word = np.repeat(np.arange(m)[:, None], 2, axis=1)
    spelled = [[i] for i in range(m)]
    rows, tables = [], []
    while True:
        rows.append((level.lengths, level.breakpoints, level.translations,
                     q, word[:, 0], word[:, 1]))
        table = np.zeros((m, cap), dtype=np.int64)
        for i, steps in enumerate(spelled):
            table[i, :len(steps)] = steps
        tables.append(table)
        try:
            move, perm, lengths, _ = induction_update(level.lengths,
                                                      level.perm)
        except BoundaryError:
            break
        word = rauzy_module._substitution(level.perm, move)
        q = q[word[:, 0]] + np.where(word[:, 0] != word[:, 1],
                                     q[word[:, 1]], 0)
        spelled = [spelled[a] + (spelled[b] if a != b else [])
                   for a, b in word.tolist()]
        below = IetData(lengths, perm)
        if int(q.max()) > cap or \
                not below.breakpoints[-1] < level.breakpoints[-1]:
            break
        level = below
    return [np.array(col) for col in zip(*rows)], np.array(tables)


def assert_tower_is(tower, want):
    got = [tower.lengths, tower.bps, tower.shift, tower.q, tower.first,
           tower.last]
    assert tower.size == len(want[0])
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert tower.tot.tobytes() == want[1][:, -1].tobytes()


def check_predictor(iet):
    tower = rauzy_module.Tower.of_exchange(iet)
    want, table = predictor_oracle(iet)
    assert_tower_is(tower, want)
    assert tower._table.tobytes() == table.tobytes()
    return tower


@given(st.integers(0, 10**6), st.integers(2, 7))
def test_predictor_tower_equals_the_per_level_oracle(seed, m):
    iet = random_float_iet(np.random.default_rng(seed), m)
    tower = check_predictor(iet)
    # the table row of a top-level block is the orbit of its midpoint
    top = tower.size - 1
    for i, q in enumerate(tower.q[top].tolist()):
        x = float(tower.bps[top, i] - 0.5 * tower.lengths[top, i])
        assert scalar_orbit(iet, x, q)[0] == tower._table[top, i, :q].tolist()


def test_predictor_tower_at_a_tie_at_float_resolution_and_deep():
    # a tie ends the tower at level 0, and so does a first step that takes
    # less than half an ulp off the total; the deviation surface runs deep
    assert check_predictor(IetData((0.25,) * 4, DESK4)).size == 1
    assert check_predictor(IetData((1.0, 1e-17), TORUS)).size == 1
    assert check_predictor(deviation_surface()).size > 20


def exit_point(rng):
    """A point whose float image rounds out of [0, total)."""
    while True:
        iet = random_float_iet(rng, 3)
        for j, right in enumerate(iet.breakpoints):
            x = float(np.nextafter(right, 0.0))
            if iet.interval_index(x) == j and \
                    not x + iet.translations[j] < iet.breakpoints[-1]:
                return iet, x


def test_orbit_leaving_the_domain_raises_at_the_same_step():
    iet, x = exit_point(np.random.default_rng(3))
    values = [0.5, -0.25, -0.25]
    assert kernel_orbit(iet, x, 1) == scalar_orbit(iet, x, 1)
    assert rauzy_module.running_sup_profile(iet, values, x, [1]) == \
        sup_oracle(iet, values, x, [1])
    for n in (2, 5):
        steps = []
        with pytest.raises(DomainError) as got:
            kernel_orbit(iet, x, n, steps)
        with pytest.raises(DomainError) as want:
            scalar_orbit(iet, x, n)
        assert steps == [iet.interval_index(x)]
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError):
            rauzy_module.running_sup_profile(iet, values, x, [1, n])
    with pytest.raises(DomainError):
        kernel_orbit(iet, iet.breakpoints[-1], 3)


def test_running_sup_profile_rejects_bad_input():
    iet = IetData((0.7, 0.3), TORUS)
    for marks in ([], [0, 5], [5, 5], [5, 3]):
        with pytest.raises(DomainError):
            rauzy_module.running_sup_profile(iet, [0.3, -0.7], 0.1, marks)
    with pytest.raises(DomainError):
        rauzy_module.running_sup_profile(iet, [0.3, -0.7, 0.0], 0.1, [5])


@given(st.integers(0, 10**6), st.integers(2, 7))
def test_running_sup_profile_matches_loop_and_callable(seed, m):
    rng = np.random.default_rng(seed)
    iet = random_float_iet(rng, m)
    values = [float(v) for v in rng.normal(size=m)]
    x = float(rng.random())
    marks = sorted({int(v) for v in rng.integers(1, 600, size=6)})
    got = rauzy_module.running_sup_profile(iet, values, x, marks)
    assert same_bits(got, sup_oracle(iet, values, x, marks))
    handle = lambda pt: values[iet.interval_index(pt)]
    assert same_bits(
        rauzy_module.running_sup_profile(iet, handle, x, marks), got)


def test_running_sup_profile_exact_lengths():
    iet = IetData((Fraction(7, 10), Fraction(3, 10)), TORUS)
    vals = [Fraction(-3, 10), Fraction(7, 10)]
    got = rauzy_module.running_sup_profile(iet, vals, Fraction(0), [3, 10])
    assert got == [0.9, 0.9]


# ------------------------------------------------------------ return ladders

def ladder_oracle(path):
    """The ladder tower built one IetData per level: per level the lengths,
    breakpoints, translations, return times and words, as rows."""
    m = path.m
    q = np.ones(m, dtype=np.int64)
    word = np.repeat(np.arange(m)[:, None], 2, axis=1)
    rows = []
    for n in range(len(path) + 1):
        if n:
            word = rauzy_module._substitution(path.perms[n - 1],
                                              path.moves[n - 1])
            q = q[word[:, 0]] + np.where(word[:, 0] != word[:, 1],
                                         q[word[:, 1]], 0)
        scale = math.exp(-path.total_tau(n))
        level = IetData(tuple([l * scale for l in path.lengths[n].tolist()]),
                        path.perms[n])
        rows.append((level.lengths, level.breakpoints, level.translations,
                     q, word[:, 0], word[:, 1]))
        if n and int(q.min()) > rauzy_module._Q_CAP:
            break
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("images,seed,size", [
    ((4, 3, 2, 1), 1, 210), ((6, 5, 4, 3, 2, 1), 2, 401),
    ((2, 4, 3, 6, 1, 5), 3, 401)])
def test_ladder_tower_equals_the_per_level_oracle(images, seed, size):
    # the array-built ladder must be the per-level construction byte for
    # byte, whether the path (size 401) or the return-time cap ends it
    rng = np.random.default_rng(seed)
    lengths = rng.random(len(images)) + 0.05
    iet = IetData(tuple(float(v) for v in lengths / lengths.sum()),
                  Permutation(images))
    path = induction_path(iet, 400)
    tower = rauzy_module.Tower.from_path(path)
    assert_tower_is(tower, ladder_oracle(path))
    assert tower.size == size
