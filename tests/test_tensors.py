"""Symmetric tensor storage: construction, evaluation, multilinearity."""

import itertools
import math
import time

import numpy as np
import pytest

from fsjet.tensors import (
    LAYOUT_BUDGET,
    HomPoly,
    ScalarHomPoly,
    basis_coefficients,
    exponents_to_multi_index,
    layout,
    monomials,
    multinomial,
    polarization_check,
    slot_product,
)


def _random_hompoly(rng, degree, n, m):
    coeffs = {}
    for idx in layout(n, degree).indices:
        coeffs[idx] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return HomPoly(degree, n, m, coeffs)


def test_multi_index_round_trip():
    basis = layout(3, 3)
    assert basis.exponents[basis.rank[(1, 1, 3)]] == (2, 0, 1)
    assert exponents_to_multi_index((2, 0, 1)) == (1, 1, 3)


def test_multinomial_values():
    assert multinomial((1, 1)) == 1
    assert multinomial((1, 2)) == 2
    assert multinomial((1, 2, 3)) == 6
    assert multinomial((1, 1, 2)) == 3


def test_validation_rejects_bad_indices():
    with pytest.raises(ValueError):
        HomPoly(2, 2, 2, {(2, 1): np.ones(2)})  # unsorted
    with pytest.raises(ValueError):
        HomPoly(2, 2, 2, {(1, 3): np.ones(2)})  # out of range
    with pytest.raises(ValueError):
        HomPoly(2, 2, 2, {(1,): np.ones(2)})  # wrong length
    with pytest.raises(ValueError):
        HomPoly(2, 2, 2, {(1, 1): np.ones(3)})  # wrong codomain


def _monomial_coefficients(P):
    """The coefficient of every monomial of P's basis: the entries times
    their multinomial counts, keyed by exponent."""
    basis = layout(P.domain_dim, P.degree)
    return dict(zip(basis.exponents, P.entries * basis.multinomials[:, None]))


def test_from_monomials_round_trip():
    rng = np.random.default_rng(4)
    P = _random_hompoly(rng, 3, 2, 2)
    Q = HomPoly.from_monomials(3, 2, 2, _monomial_coefficients(P))
    assert P.allclose(Q, atol=0.0, rtol=1e-15)


def test_eval_matches_dense_contraction():
    rng = np.random.default_rng(5)
    for degree in (2, 3, 4):
        P = _random_hompoly(rng, degree, 3, 2)
        dense = P.dense()
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        expect = dense
        for _ in range(degree):
            expect = np.tensordot(x, expect, axes=(0, 0))
        assert np.allclose(P.eval(x), expect, atol=1e-12)


def test_eval_many_matches_eval():
    rng = np.random.default_rng(6)
    P = _random_hompoly(rng, 3, 2, 2)
    xs = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    batch = P.eval_many(xs)
    for i, x in enumerate(xs):
        assert np.allclose(batch[i], P.eval(x), atol=1e-13)


def test_multilinear_eval_diagonal_is_eval():
    rng = np.random.default_rng(7)
    P = _random_hompoly(rng, 3, 2, 2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.allclose(P.multilinear_eval([x, x, x]), P.eval(x), atol=1e-12)


def test_multilinear_eval_is_linear_in_each_slot():
    rng = np.random.default_rng(8)
    P = _random_hompoly(rng, 3, 3, 3)
    u, v, w, z = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(4))
    a = 0.7 - 0.3j
    lhs = P.multilinear_eval([u, a * v + w, z])
    rhs = a * P.multilinear_eval([u, v, z]) + P.multilinear_eval([u, w, z])
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_multilinear_eval_permutation_symmetry_bit_exact():
    rng = np.random.default_rng(9)
    P = _random_hompoly(rng, 3, 2, 2)
    u, v, w = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
    base = P.multilinear_eval([u, v, w])
    for perm in ([v, u, w], [w, v, u], [v, w, u]):
        assert np.array_equal(P.multilinear_eval(perm), base)


def test_multilinear_eval_matches_dense_contraction():
    rng = np.random.default_rng(10)
    P = _random_hompoly(rng, 2, 3, 2)
    u, v = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
    expect = np.einsum("abm,a,b->m", P.dense(), u, v)
    assert np.allclose(P.multilinear_eval([u, v]), expect, atol=1e-12)


def test_polarization_identity():
    rng = np.random.default_rng(11)
    P = _random_hompoly(rng, 2, 3, 3)
    x1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    x2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert polarization_check(P, x1, x2) < 1e-12


def test_polarization_rejects_wrong_degree():
    rng = np.random.default_rng(12)
    P = _random_hompoly(rng, 3, 2, 2)
    with pytest.raises(ValueError):
        polarization_check(P, np.ones(2), np.ones(2))


def test_add_and_scale():
    rng = np.random.default_rng(13)
    P = _random_hompoly(rng, 2, 2, 2)
    Q = _random_hompoly(rng, 2, 2, 2)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.allclose((P + Q).eval(x), P.eval(x) + Q.eval(x), atol=1e-12)
    assert np.allclose(P.scale(2.5j).eval(x), 2.5j * P.eval(x), atol=1e-12)
    assert (P + P.scale(-1.0)).max_coeff() <= 0.0


def test_scalar_hompoly():
    p = ScalarHomPoly.from_scalar_monomials(2, 2, {(2, 0): 3.0, (1, 1): -1.0j})
    x = np.array([0.5, 2.0 - 1.0j])
    expect = 3.0 * x[0] ** 2 - 1.0j * x[0] * x[1]
    assert abs(p.eval_scalar(x) - expect) < 1e-13
    assert p.codomain_dim == 1
    monos = {e: complex(v[0]) for e, v in _monomial_coefficients(p).items() if v.any()}
    assert monos == {(2, 0): 3.0 + 0j, (1, 1): -1.0j}


def _dense_eval(P, x):
    """P(x) by contracting every slot of the dense tensor with x."""
    letters = "abcdefgh"[: P.degree]
    return np.einsum(f"{letters}m," + ",".join(letters) + "->m", P.dense(), *[x] * P.degree)


@pytest.mark.parametrize(
    "n,q", [(2, 1), (3, 2), (2, 6)] + [(4, q) for q in range(1, 7)]
)
def test_slot_product_matches_dense_einsum(n, q):
    rng = np.random.default_rng(17 + 10 * n + q)
    B = _random_hompoly(rng, 2, n, 3)
    Q = _random_hompoly(rng, q, n, n)
    s = _random_hompoly(rng, q, n, 1)
    M = rng.standard_normal((n, 1, 2)) + 1j * rng.standard_normal((n, 1, 2))
    paired = slot_product(B.dense(), Q)
    scaled = slot_product(M, s)
    assert (paired.degree, paired.codomain_dim) == (q + 1, 3)
    assert (scaled.degree, scaled.codomain_dim) == (q + 1, 2)
    for _ in range(4):
        x = 0.6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # B[x, Q(x)] and sum_a x_a s(x) M[a], both from dense tensors
        pairs = (
            (paired, np.einsum("abm,a,b->m", B.dense(), x, _dense_eval(Q, x))),
            (scaled, np.einsum("apm,a,p->m", M, x, _dense_eval(s, x))),
        )
        for got, want in pairs:
            tol = EVAL_TOL * (1.0 + np.abs(want).max())
            assert np.allclose(_dense_eval(got, x), want, rtol=0.0, atol=tol)
    with pytest.raises(ValueError):
        slot_product(np.ones((n, 2, 2)), s)


def test_coeff_arrays_are_frozen():
    P = HomPoly(2, 2, 2, {(1, 1): np.ones(2)})
    arr = P.coeffs[(1, 1)]
    with pytest.raises(ValueError):
        arr[0] = 5.0


def test_dense_is_built_once_and_read_only():
    rng = np.random.default_rng(14)
    P = _random_hompoly(rng, 3, 2, 2)
    dense = P.dense()
    assert P.dense() is dense
    with pytest.raises(ValueError):
        dense[0, 0, 0, 0] = 5.0


def _monomial_loop(P, x):
    """Reference evaluation: sum over stored multi-indices, one monomial at a time."""
    out = np.zeros(P.codomain_dim, dtype=complex)
    for idx, vec in P.coeffs.items():
        term = 1.0 + 0.0j
        for i in idx:
            term *= x[i - 1]
        out += multinomial(idx) * term * vec
    return out


EVAL_TOL = 1e-12  # relative to the coefficient scale, for O(1) points


@pytest.mark.parametrize("n,K", [(2, 7), (3, 6), (4, 5)])
@pytest.mark.parametrize("rows", [0, 1, 16])
def test_compiled_eval_matches_monomial_loop(n, K, rows):
    from fsjet.transforms import OneDimJet

    rng = np.random.default_rng(15 + 100 * n + rows)
    xs = 0.6 * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    P = _random_hompoly(rng, K, n, n)
    want = np.array([_monomial_loop(P, x) for x in xs]).reshape(rows, n)
    got = P.eval_many(xs)
    assert got.shape == (rows, n)
    assert np.allclose(got, want, rtol=0.0, atol=EVAL_TOL * (1.0 + np.abs(want).max(initial=0.0)))
    for x, w in zip(xs, want):
        assert np.allclose(P.eval(x), w, rtol=0.0, atol=EVAL_TOL * (1.0 + np.abs(w).max()))

    scalars = {
        k: ScalarHomPoly(k, n, _random_hompoly(rng, k, n, 1).coeffs) for k in range(1, K)
    }
    od = OneDimJet(n, K, scalars)
    s_want = np.array(
        [1.0 + sum(_monomial_loop(p, x)[0] for p in scalars.values()) for x in xs],
        dtype=complex,
    )
    pK = scalars[K - 1]
    p_want = np.array([_monomial_loop(pK, x)[0] for x in xs], dtype=complex)
    tol = EVAL_TOL * (1.0 + np.abs(s_want).max(initial=0.0))
    assert pK.eval_scalar(xs).shape == (rows,)
    assert np.allclose(pK.eval_scalar(xs), p_want, rtol=0.0, atol=tol)
    assert od.s_eval(xs).shape == (rows,)
    assert np.allclose(od.s_eval(xs), s_want, rtol=0.0, atol=tol)
    for x, s, p in zip(xs, s_want, p_want):
        assert isinstance(od.s_eval(x), complex)
        assert abs(od.s_eval(x) - s) <= tol
        assert abs(pK.eval_scalar(x) - p) <= tol


@pytest.mark.parametrize("rows", [0, 1, 16, 2500])
def test_eval_many_of_polynomials_with_zero_rows_matches_monomial_loop(rows):
    # the compiled form keeps every basis row, zero or not, and a scalar
    # polynomial takes the real product; blocks of 1024 rows included
    from fsjet.transforms import koebe_onedim

    rng = np.random.default_rng(16 + rows)
    xs = 0.6 * (rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3)))
    polys = [
        HomPoly.from_monomials(3, 3, 3, {(1, 0, 2): [0.5, -1j, 2.0]}),
        HomPoly.from_monomials(2, 3, 1, {(0, 1, 1): [1.5 - 0.5j]}),
        *koebe_onedim(3, 5).scalar_polys.values(),
    ]
    for P in polys:
        want = np.array([_monomial_loop(P, x) for x in xs]).reshape(rows, P.codomain_dim)
        got = P.eval_many(xs)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=EVAL_TOL * (1.0 + np.abs(want).max(initial=0.0)))


def test_eval_many_large_batch_is_blocked_consistently():
    from fsjet.tensors import EVAL_BLOCK_ROWS

    rng = np.random.default_rng(16)
    P = _random_hompoly(rng, 3, 2, 2)
    rows = 2 * EVAL_BLOCK_ROWS + 7
    xs = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    want = np.array([_monomial_loop(P, x) for x in xs])
    got = P.eval_many(xs)
    assert got.shape == (rows, 2)
    assert np.allclose(got, want, rtol=0.0, atol=EVAL_TOL * (1.0 + np.abs(want).max()))


def test_eval_of_zero_poly_and_bad_shapes():
    Z = HomPoly.zero(3, 2, 2)
    assert np.array_equal(Z.eval_many(np.ones((4, 2))), np.zeros((4, 2)))
    assert np.array_equal(Z.eval(np.ones(2)), np.zeros(2))
    with pytest.raises(ValueError):
        Z.eval_many(np.ones((4, 3)))
    with pytest.raises(ValueError):
        Z.eval_many(np.ones(2))


@pytest.mark.parametrize("n,k", [(2, 7), (3, 5), (4, 7)])
def test_dense_matches_positionwise_reference(n, k):
    rng = np.random.default_rng(18 + 10 * n + k)
    full = _random_hompoly(rng, k, n, 2)
    # drop every other entry, so that positions without a stored entry
    # must read zero
    sparse = HomPoly(k, n, 2, dict(list(full.coeffs.items())[::2]))
    for P in (full, sparse, HomPoly.zero(k, n, 2)):
        want = np.zeros((n,) * k + (2,), dtype=complex)
        for pos in np.ndindex(*(n,) * k):
            idx = tuple(sorted(i + 1 for i in pos))
            if idx in P.coeffs:
                want[pos] = P.coeffs[idx]
        assert np.array_equal(P.dense(), want)


def _snapshot(P):
    return {idx: v.copy() for idx, v in P.coeffs.items()}


def _assert_same_coeffs(P, snapshot):
    assert P.coeffs.keys() == snapshot.keys()
    assert all(np.array_equal(P.coeffs[i], v) for i, v in snapshot.items())


def test_arithmetic_outputs_pass_public_validation():
    from fsjet.jets import MappingJet, linear_conjugate

    rng = np.random.default_rng(19)
    P = _random_hompoly(rng, 3, 3, 3)
    Q = _random_hompoly(rng, 3, 3, 3)
    B = _random_hompoly(rng, 2, 3, 3)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    inputs = (P, Q, B)
    before = [_snapshot(X) for X in inputs]
    conj = linear_conjugate(MappingJet(3, 3, {2: B, 3: P}), A, A.T)
    outputs = {
        "scale": P.scale(2.5j),
        "scale by 0": P.scale(0.0),
        "add": P + Q,
        "add cancelling": P + P.scale(-1.0),
        "slot_product": slot_product(B.dense(), B),
        "from_monomials": HomPoly.from_monomials(3, 3, 3, _monomial_coefficients(P)),
        "linear_conjugate 2": conj.poly(2),
        "linear_conjugate 3": conj.poly(3),
    }
    assert not outputs["scale by 0"].coeffs and not outputs["add cancelling"].coeffs
    for name, R in outputs.items():
        rebuilt = HomPoly(R.degree, R.domain_dim, R.codomain_dim, R.coeffs)
        _assert_same_coeffs(R, _snapshot(rebuilt))
        assert all(not v.flags.writeable for v in R.coeffs.values()), name
    for X, snapshot in zip(inputs, before):
        _assert_same_coeffs(X, snapshot)
        assert all(not v.flags.writeable for v in X.coeffs.values())
    p = ScalarHomPoly.from_scalar_monomials(2, 2, {(2, 0): 3.0, (1, 1): 0.0})
    assert type(p) is ScalarHomPoly
    assert list(p.coeffs) == [(1, 1)]


def test_from_monomials_rejects_bad_input():
    for degree, monos in (
        (2, {(1, 0, 1): [1.0, 0.0]}),  # three variables for a two-dimensional domain
        (2, {(3, -1): [1.0, 0.0]}),  # negative exponent
        (2, {(1, 0): [1.0, 0.0]}),  # wrong total degree
        (2, {(1, 1): [1.0, 0.0, 0.0]}),  # wrong codomain
        (0, {(0, 0): [1.0, 0.0]}),  # degree 0
    ):
        with pytest.raises(ValueError):
            HomPoly.from_monomials(degree, 2, 2, monos)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 3), (3, 2), (4, 3)])
def test_basis_coefficients_evaluate_like_eval_many(n, k):
    # one coefficient array over the full sorted basis, zeros where a
    # polynomial stores nothing, evaluates each polynomial of the stack
    rng = np.random.default_rng(60 + n + k)
    full = _random_hompoly(rng, k, n, n)
    sparse = HomPoly(k, n, n, {(1,) * k: full.coeffs[(1,) * k]})
    polys = [full, HomPoly.zero(k, n, n), sparse]
    cols, coef = basis_coefficients(polys)
    assert coef.shape == (3, len(full.coeffs), n)
    xs = rng.standard_normal((2, 5, n)) + 1j * rng.standard_normal((2, 5, n))
    values = monomials(xs, cols)  # (2, 5, T) at once
    for j, P in enumerate(polys):
        for x in xs:
            expect = P.eval_many(x)
            assert np.abs(monomials(x, cols) @ coef[j] - expect).max() <= 1e-14 * (
                1.0 + np.abs(expect).max()
            )
        assert np.array_equal(values[1] @ coef[j], monomials(xs[1], cols) @ coef[j])
    with pytest.raises(ValueError):
        basis_coefficients([full, _random_hompoly(rng, k + 1, n, n)])


def _with_nan_entry():
    """[1, 0] at (1, 1) and NaN at (1, 2), made by arithmetic: the
    constructor rejects a non-finite entry."""
    P = HomPoly(2, 2, 2, {(1, 1): [1.0, 0.0]})
    return P + HomPoly(2, 2, 2, {(1, 2): [1.0, 0.0]}).scale(np.nan)


def test_nan_entry_is_not_dropped_by_max_or_allclose():
    # builtin max drops a NaN that is not its first argument
    P = _with_nan_entry()
    Q = HomPoly(2, 2, 2, {(1, 1): [1.0 + 1e-12, 0.0]})
    assert np.isnan(P.max_coeff())
    assert not P.allclose(Q) and not Q.allclose(P)
    assert not P.allclose(P)
    with np.errstate(invalid="ignore"):
        inf = HomPoly(2, 2, 2, {(1, 2): [1.0, 0.0]}).scale(np.inf)
    assert not inf.allclose(Q) and not Q.allclose(inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_public_constructors_reject_non_finite_entries(bad):
    with pytest.raises(ValueError, match=r"\(1, 2\).*not finite"):
        HomPoly(2, 2, 2, {(1, 1): [1.0, 0.0], (1, 2): [0.0, bad]})
    with pytest.raises(ValueError, match=r"\(1, 1\).*not finite"):
        HomPoly.from_monomials(2, 2, 2, {(2, 0): [1.0, 0.0], (1, 1): [bad, 0.0]})
    with pytest.raises(ValueError, match=r"\(2, 2\).*not finite"):
        ScalarHomPoly(2, 2, {(2, 2): [bad]})
    with pytest.raises(ValueError, match=r"\(0, 2\).*not finite"):
        ScalarHomPoly.from_scalar_monomials(2, 2, {(0, 2): bad})


@pytest.mark.parametrize("n,k", [(1, 7), (2, 7), (3, 5), (4, 7)])
def test_coeffs_round_trip_through_entries_is_bitwise(n, k):
    rng = np.random.default_rng(70 + 10 * n + k)
    full = {
        idx: rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for idx in itertools.combinations_with_replacement(range(1, n + 1), k)
    }
    half = dict(list(full.items())[1::2])
    for given in (full, half, {}):
        P = HomPoly(k, n, 3, given)
        assert P.entries.shape == (len(full), 3) and not P.entries.flags.writeable
        assert list(P.coeffs) == sorted(given)
        for idx, vec in given.items():
            assert np.array_equal(P.coeffs[idx], vec)
            assert np.array_equal(P.entries[layout(n, k).rank[idx]], vec)
        again = HomPoly(k, n, 3, P.coeffs)
        assert np.array_equal(again.entries, P.entries)
        with pytest.raises(TypeError):
            P.coeffs[(1,) * k] = np.zeros(3)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 4), (3, 5), (4, 3)])
def test_layout_matches_per_index_helpers(n, k):
    basis = layout(n, k)
    assert list(basis.indices) == list(
        itertools.combinations_with_replacement(range(1, n + 1), k)
    )
    for r, idx in enumerate(basis.indices):
        assert basis.exponents[r] == tuple(idx.count(i) for i in range(1, n + 1))
        assert exponents_to_multi_index(basis.exponents[r]) == idx
        assert basis.multinomials[r] == multinomial(idx)
        assert tuple(c[r] + 1 for c in basis.cols) == idx
        for s in range(k):
            dropped = layout(n, k - 1).indices[basis.drop_rank[r, s]]
            assert dropped == idx[:s] + idx[s + 1 :]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_rank_ranks_each_index_with_one_variable_added(n):
    for k in range(1, 8):
        basis, upper = layout(n, k), layout(n, k + 1)
        rows = np.empty((len(basis.indices), n, k + 1), dtype=np.intp)
        rows[..., :-1] = basis.variables[:, None, :]
        rows[..., -1] = np.arange(n)
        want = upper.rank_of(np.sort(rows, axis=-1))
        assert np.array_equal(basis.lift_rank, want), k
        assert not basis.lift_rank.flags.writeable
        # and by multi-index, against the rank dict of the degree above
        for r, idx in enumerate(basis.indices):
            for i in range(n):
                assert upper.rank[tuple(sorted(idx + (i + 1,)))] == basis.lift_rank[r, i]


@pytest.mark.parametrize("n,k", [(1, 21), (2, 25), (3, 22)])
def test_layout_counts_are_exact_past_int64_factorials(n, k):
    # 21! does not fit in an int64
    basis = layout(n, k)
    for count, exps in zip(basis.multinomials, basis.exponents):
        assert count == math.factorial(k) // math.prod(map(math.factorial, exps))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multinomial_matches_the_factorial_formula(n):
    for k in range(1, 8):
        basis = layout(n, k)
        for r, (idx, exps) in enumerate(zip(basis.indices, basis.exponents)):
            count = math.factorial(k) // math.prod(map(math.factorial, exps))
            assert multinomial(idx) == count
            assert basis.multinomials[r] == float(count)


def test_one_row_layout_at_the_budget_edge_builds_within_a_second():
    # the largest degree the budget allows over C^1: its one count is 1,
    # which no factorial of the degree should be needed to find
    start = time.perf_counter()
    basis = layout.__wrapped__(1, LAYOUT_BUDGET)  # uncached
    assert time.perf_counter() - start < 1.0
    assert basis.multinomials.tolist() == [1.0]


def test_layout_of_degree_2000_builds_no_lower_degree():
    basis = layout(1, 2000)
    assert basis.indices == ((1,) * 2000,)
    assert basis.multinomials.tolist() == [1.0]
    # the one lower degree drop_rank reads, built on first use
    assert basis.drop_rank.tolist() == [[0] * 2000]


@pytest.mark.parametrize("n,k", [(2, 64), (3, 40)])
def test_rank_of_is_exact_past_int64_codes(n, k):
    # the largest base-n code of these rows, n ** k - 1, does not fit an int64
    basis = layout(n, k)
    assert np.array_equal(basis.rank_of(basis.variables), np.arange(len(basis.indices)))


def test_drop_rank_is_exact_past_int64_codes():
    basis, lower = layout(2, 66), layout(2, 65)
    want = [[lower.rank[idx[:s] + idx[s + 1 :]] for s in range(66)] for idx in basis.indices]
    assert basis.drop_rank.tolist() == want


@pytest.mark.parametrize("n,k", [(1000000, 2), (81, 2), (1, 1000000), (1, LAYOUT_BUDGET + 1)])
def test_layout_over_the_size_budget_is_refused_before_it_is_built(n, k):
    # a wide basis (rows x dim) and a long one (rows x degree), counted
    # without enumerating: 5e11 rows at (10^6, 2)
    for build in (lambda: layout(n, k), lambda: HomPoly(k, n, n), lambda: HomPoly(k, n, 1)):
        with pytest.raises(ValueError, match="size budget"):
            build()


@pytest.mark.parametrize("n,k", [(4, 7), (1, 2000), (1, 21), (3, 40), (2, 66), (80, 2)])
def test_layout_within_the_size_budget_is_built(n, k):
    # (80, 2) has 3,240 rows of 80 entries, just under the budget; (81, 2)
    # above is just over it
    assert len(layout(n, k).indices) * max(n, k) <= LAYOUT_BUDGET
    assert len(layout(n, k).indices) == math.comb(n + k - 1, k)
