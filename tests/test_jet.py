import ast
import itertools
import math
import re
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import jet as J
from warpgeo import verify
from warpgeo.ambient import AmbientChart
from warpgeo.biharmonic import classify
from warpgeo.errors import ConfigError, EvalDomainError, SingularJetError, UsageError
from warpgeo.immersion import PointGeometry, hypersurface_normal, immersion


def finite(lo=-3.0, hi=3.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


jets22 = st.builds(lambda c: J.Jet(2, 2, np.array(c)),
                   st.lists(finite(), min_size=6, max_size=6))


class TestConstructors:
    def test_constant(self):
        j = J.jet_constant(5.0, 2, 2)
        assert j.value == 5.0
        assert np.count_nonzero(j.coeffs) == 1

    def test_constant_zero(self):
        j = J.jet_constant(0.0, 1, 4)
        assert not np.any(j.coeffs)

    def test_constant_negative(self):
        j = J.jet_constant(-1.5, 3, 1)
        assert j.coeffs[J._space(3, 1).index[(0, 0, 0)]] == -1.5
        assert all(j.partial(a) == 0 for a in [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_variable(self):
        j = J.jet_variable(0, 2.0, 2, 2)
        index = J._space(2, 2).index
        assert j.coeffs[index[(0, 0)]] == 2.0
        assert j.coeffs[index[(1, 0)]] == 1.0
        assert j.coeffs[index[(0, 1)]] == 0.0

    def test_variable_other_slot(self):
        j = J.jet_variable(1, 0.0, 2, 4)
        assert j.coeffs[J._space(2, 4).index[(0, 1)]] == 1.0
        assert j.value == 0.0

    def test_variable_three(self):
        j = J.jet_variable(2, 3.0, 3, 3)
        assert j.value == 3.0
        assert j.partial((0, 0, 1)) == 1.0

    def test_coefficient_count(self):
        assert J._space(2, 2).size == 6
        assert J._space(3, 4).size == 35
        assert J._space(6, 4).size == 210

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            J.jet_constant(1.0, 0, 2)
        with pytest.raises(ConfigError):
            J.jet_constant(1.0, 2, 5)
        with pytest.raises(ConfigError):
            J.jet_variable(2, 1.0, 2, 2)


class TestArithmetic:
    def test_square_of_seed(self):
        u = J.jet_variable(0, 2.0, 2, 2)
        sq = u * u
        assert sq.value == 4.0
        assert sq.partial((1, 0)) == 4.0
        assert sq.coeffs[J._space(2, 2).index[(2, 0)]] == 1.0

    def test_reciprocal_vs_finite_difference(self):
        u = J.jet_variable(0, 2.0, 2, 2)
        inv = 1.0 / u
        h = 1e-5
        fd = (1 / (2 + h) - 1 / (2 - h)) / (2 * h)
        assert inv.value == pytest.approx(0.5)
        assert inv.partial((1, 0)) == pytest.approx(fd, abs=1e-9)

    def test_additive_identity(self):
        u = J.jet_variable(0, 1.7, 2, 3)
        zero = J.jet_constant(0.0, 2, 3)
        assert np.array_equal((u + zero).coeffs, u.coeffs)

    def test_shape_mismatch(self):
        a = J.jet_constant(1.0, 2, 2)
        b = J.jet_constant(1.0, 2, 3)
        with pytest.raises(UsageError):
            a + b

    def test_singular_division(self):
        a = J.jet_constant(1.0, 1, 2)
        b = J.jet_variable(0, 0.0, 1, 2)
        with pytest.raises(SingularJetError):
            a / b

    @pytest.mark.parametrize("value", [0.0, 2.0])
    def test_non_number_over_jet_is_a_type_error(self, value):
        # the operand is looked at before the jet is inverted: a singular
        # jet does not turn the TypeError into a SingularJetError
        with pytest.raises(TypeError, match="'object' and 'Jet'"):
            object() / J.jet_constant(value, 1, 2)

    def test_mixed_partial(self):
        u = J.jet_variable(0, 1.0, 2, 2)
        v = J.jet_variable(1, 1.0, 2, 2)
        assert (u * v).partial((1, 1)) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(jets22, jets22)
    def test_product_rule(self, a, b):
        prod = a * b
        for i, e in enumerate([(1, 0), (0, 1)]):
            expected = a.value * b.partial(e) + b.value * a.partial(e)
            assert prod.partial(e) == pytest.approx(expected, abs=1e-13 * (1 + abs(expected)))

    @settings(max_examples=60, deadline=None)
    @given(jets22, jets22)
    def test_mul_commutative(self, a, b):
        assert np.allclose((a * b).coeffs, (b * a).coeffs, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(jets22, jets22, jets22)
    def test_mul_associative(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = 1 + np.abs(lhs.coeffs).max()
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13 * scale)


class TestElementary:
    def test_exp_of_zero(self):
        j = J.exp(J.jet_constant(0.0, 2, 3))
        assert j.value == 1.0
        assert np.count_nonzero(j.coeffs) == 1

    def test_sqrt_seed(self):
        t = J.jet_variable(0, 4.0, 1, 2)
        r = J.jpow(t, 0.5)
        assert r.value == pytest.approx(2.0)
        assert r.partial((1,)) == pytest.approx(0.25)
        assert r.coeffs[J._space(1, 2).index[(2,)]] == pytest.approx(-1 / 64)
        assert r.partial((2,)) == pytest.approx(-1 / 32)

    def test_sin_maclaurin(self):
        u = J.jet_variable(0, 0.0, 1, 4)
        s = J.sin(u)
        assert s.value == 0.0
        assert s.partial((1,)) == pytest.approx(1.0)
        assert s.coeffs[J._space(1, 4).index[(3,)]] == pytest.approx(-1 / 6)

    def test_integer_pow_negative_base(self):
        u = J.jet_variable(0, -2.0, 1, 3)
        c = J.jpow(u, 3)
        assert c.value == pytest.approx(-8.0)
        assert c.partial((1,)) == pytest.approx(12.0)

    def test_fractional_pow_domain(self):
        u = J.jet_variable(0, -2.0, 1, 2)
        with pytest.raises(EvalDomainError) as exc:
            J.jpow(u, 0.5)
        assert exc.value.value == -2.0

    def test_integer_pow_above_the_cap_names_its_exponent(self):
        # integer exponents beyond 128 in size take the series of a real
        # power, which needs a positive base
        u = J.jet_variable(0, -1.0, 1, 2)
        with pytest.raises(
            EvalDomainError,
            match=r"^integer power 200 \(\|p\| > 128\) of non-positive value -1$",
        ):
            J.jpow(u, 200)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_exponent_is_refused(self, p):
        # eval_jet refuses a non-finite constant before it gets here; a
        # direct call is refused by value, where round(p) would raise
        u = J.jet_variable(0, 2.0, 1, 2)
        with pytest.raises(EvalDomainError, match=rf"^power with non-finite exponent {p:g}$"):
            J.jpow(u, p)

    @pytest.mark.parametrize("f, x", [(J.reciprocal, 1e200), (J.log, 1e300)],
                             ids=["1/x", "log x"])
    def test_far_series_is_kept_only_where_nothing_is_dropped(self, f, x):
        # its terms past the value underflow: a constant jet is its value,
        # and a varying one is refused, since x + h may give them weight
        c = J.jet_constant(x, 1, 4)
        assert f(c).coeffs.tolist() == [f(J.jet_constant(x, 1, 0)).value, 0, 0, 0, 0]
        message = f"series at {x:g} leaves the float range"
        with pytest.raises(EvalDomainError, match=re.escape(message)):
            f(J.jet_variable(0, x, 1, 4))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_reciprocal_of_a_value_that_is_not_finite_is_refused(self, x):
        # 1/inf would be 0: the value itself is checked
        with pytest.raises(EvalDomainError, match=rf"^power -1 series at {x:g} leaves"):
            J.reciprocal(J.jet_variable(0, x, 1, 4))

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            J.log(J.jet_constant(0.0, 1, 2))

    def test_log_exp_roundtrip(self):
        u = J.jet_variable(0, 1.3, 2, 4)
        v = J.jet_variable(1, -0.4, 2, 4)
        w = J.exp(J.log(u * u + v * v + 1.0))
        ref = u * u + v * v + 1.0
        assert np.allclose(w.coeffs, ref.coeffs, atol=1e-12)


class TestPartialExtraction:
    def test_value_slot(self):
        u = J.jet_variable(0, 2.5, 2, 2)
        assert u.partial((0, 0)) == 2.5

    def test_order_overflow(self):
        u = J.jet_variable(0, 1.0, 2, 2)
        with pytest.raises(UsageError):
            u.partial((2, 1))

    def test_derivative_operator(self):
        u = J.jet_variable(0, 2.0, 2, 3)
        v = J.jet_variable(1, 3.0, 2, 3)
        f = u * u * v
        fu = f.d(0)
        assert fu.value == pytest.approx(12.0)  # d(u^2 v) = 2uv
        assert fu.partial((0, 1)) == pytest.approx(4.0)  # d2/dudv = 2u

    def test_truncation_is_prefix(self):
        u = J.jet_variable(0, 2.0, 2, 4)
        f = J.exp(u)
        g = f.trunc(2)
        assert np.array_equal(g.coeffs, f.coeffs[: J._space(2, 2).size])


matrix_cases = st.tuples(
    st.integers(1, 4),  # matrix or tangent dimension
    st.integers(1, 4),  # n_vars
    st.integers(0, 4),  # order
    st.integers(0, 2**32 - 1),
)


class TestLinearAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(matrix_cases)
    def test_series_inverse_is_the_inverse(self, case):
        d, n_vars, order, seed = case
        size = J._space(n_vars, order).size
        c = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, d, d))
        c[0] += 3.0 * d * np.eye(d)  # diagonally dominant
        inv = J.jet_mat_inverse(c, n_vars, np.linalg.inv(c[0]))
        identity = np.zeros_like(c)
        identity[0] = np.eye(d)
        scale = J.contract("ij,jk->ik", np.abs(c), np.abs(inv), n_vars)
        residual = J.contract("ij,jk->ik", c, inv, n_vars) - identity
        assert np.all(np.abs(residual) <= 1e-13 * scale)

    @settings(max_examples=60, deadline=None)
    @given(matrix_cases)
    def test_normal_is_orthogonal_and_positively_oriented(self, case):
        m, n_vars, order, seed = case
        size = J._space(n_vars, order).size
        dX = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, m, m + 1))
        w = hypersurface_normal(dX, n_vars)
        assert w.shape == (size, m + 1)
        dots = J.contract("ia,a->i", dX, w, n_vars)
        bound = J.contract("ia,a->i", np.abs(dX), np.abs(w), n_vars)
        assert np.all(np.abs(dots) <= 1e-13 * bound)
        assert np.linalg.det(np.vstack([dX[0], w[0]])) > 0.0
        if m == 2:
            assert np.array_equal(w[0], np.cross(dX[0, 0], dX[0, 1]))


# -- jet tensors: contract, deriv, trunc ---------------------------------------


def _package_patterns():
    """Every contraction pattern the package uses: each string literal
    passed to contract in src/warpgeo, and the patterns hypersurface_normal
    forms for m = 2 and 3."""
    found = set()
    for path in Path(J.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "contract"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                found.add(node.args[0].value)
    contract = J.contract
    with mock.patch.object(J, "contract", lambda p, *args: found.add(p) or contract(p, *args)):
        for m in (2, 3):
            hypersurface_normal(np.zeros((1, m, m + 1)), 1)
    return sorted(found)


KERNEL_PATTERNS = _package_patterns()

tensor_cases = st.tuples(
    st.sampled_from(KERNEL_PATTERNS),
    st.integers(1, 4),  # n_vars
    st.integers(0, 4),  # order
    st.lists(st.integers(1, 5), min_size=6, max_size=6),  # index sizes
    st.integers(0, 2**32 - 1),
)


def _operands(case, batch=()):
    pattern, n_vars, order, sizes, seed = case
    left, right = pattern.split("->")[0].split(",")
    dims = dict(zip(sorted(set(left + right)), sizes))
    size = J._space(n_vars, order).size
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (size,) + tuple(dims[k] for k in left) + batch)
    b = rng.uniform(-1.0, 1.0, (size,) + tuple(dims[k] for k in right) + batch)
    return pattern, n_vars, dims, a, b


def _loop_contract(pattern, a, b, n_vars, dims):
    """The contraction as a loop of scalar jet products and sums."""
    (left, right), out = pattern.split("->")[0].split(","), pattern.split("->")[1]
    every = left + "".join(k for k in right if k not in left)
    sums = {}
    for idx in np.ndindex(*[dims[k] for k in every]):
        at = dict(zip(every, idx))
        x = J.unstack(a[(slice(None),) + tuple(at[k] for k in left)], n_vars)
        y = J.unstack(b[(slice(None),) + tuple(at[k] for k in right)], n_vars)
        key = tuple(at[k] for k in out)
        sums[key] = x * y if key not in sums else sums[key] + x * y
    ref = np.zeros((len(a),) + tuple(dims[k] for k in out))
    for key, jet in sums.items():
        ref[(slice(None),) + key] = jet.coeffs
    return ref


@settings(max_examples=60, deadline=None)
@given(tensor_cases)
def test_contract_equals_scalar_jet_loop(case):
    pattern, n_vars, dims, a, b = _operands(case)
    got = J.contract(pattern, a, b, n_vars)
    ref = _loop_contract(pattern, a, b, n_vars, dims)
    bound = J.contract(pattern, np.abs(a), np.abs(b), n_vars)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * bound)


# batch widths with a plan each: one point, a few, the grid workload's 16,
# an odd width and classify's chunk
PLAN_WIDTHS = [1, 2, 16, 17, 128]


@settings(max_examples=60, deadline=None)
@given(tensor_cases, st.sampled_from(PLAN_WIDTHS))
def test_contract_batch_equals_its_columns(case, width):
    pattern, n_vars, _, a, b = _operands(case, (width,))
    got = J.contract(pattern, a, b, n_vars)
    for j in range(width):
        assert np.array_equal(got[..., j], J.contract(pattern, a[..., j], b[..., j], n_vars))
    # an unbatched operand broadcasts against a batched one, on either side
    got = J.contract(pattern, a[..., 0], b, n_vars)
    for j in range(width):
        assert np.array_equal(got[..., j], J.contract(pattern, a[..., 0], b[..., j], n_vars))
    got = J.contract(pattern, a, b[..., 0], n_vars)
    for j in range(width):
        assert np.array_equal(got[..., j], J.contract(pattern, a[..., j], b[..., 0], n_vars))


@pytest.mark.parametrize("pattern", ["ia,ja->ij", "abc,ib->aci", "ij,->ij"])
def test_contract_plans_of_interleaved_widths(pattern):
    # a plan is compiled per operand shape: width 16 after 17 takes its own
    case = (pattern, 3, 3, [3, 4, 2, 3, 4, 2], 5)
    for width in (16, 17, 16):
        _, n_vars, _, a, b = _operands(case, (width,))
        got = J.contract(pattern, a, b, n_vars)
        for j in range(width):
            assert np.array_equal(
                got[..., j], J.contract(pattern, a[..., j], b[..., j], n_vars)
            )


@pytest.fixture
def plans(monkeypatch):
    """The plans compiled from here on, by key, through an empty cache of
    _plan's size."""
    made = {}
    compile_plan = J._plan.__wrapped__

    def recorded(*key):
        made[key] = compile_plan(*key)
        return made[key]

    cache = lru_cache(maxsize=J._plan.cache_info().maxsize)(recorded)
    monkeypatch.setattr(J, "_plan", cache)
    yield made
    assert cache.cache_info().currsize == len(made)  # every plan made is held


def test_cached_plans_of_a_chunked_classify_stay_under_the_bound(plans):
    # 1,100 points build in parts of 128 and 76 points: two builds' plans,
    # each under the 3.3 MB _plan's docstring gives a 2-variable build at
    # width 128
    spec = verify.cone(1.0)
    rng = np.random.default_rng(3)
    points = [(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)) for _ in range(1100)]
    classify(spec, points, 1e-7)
    assert {plan.shape[-1] for plan in plans.values()} == {128, 76}
    assert sum(plan.bins.nbytes for plan in plans.values()) <= 2 * 3.3e6


def test_a_chunk_caches_every_scatter_index(plans):
    # a curved hypersurface of S4 at classify's chunk width makes the
    # largest index that is cached expanded, PLAN_INDEX_BYTES (the slice's
    # tangents are constant, and its constant plans are smaller)
    spec = immersion(("u", "v", "w"), ("u", "v", "w", "0.7+u*v/4"), {}, AmbientChart("sphere", 4))
    rng = np.random.default_rng(5)
    PointGeometry(spec, [rng.uniform(-0.3, 0.3, 128) for _ in range(3)])
    assert all(plan.spread == 1 for plan in plans.values())
    assert max(plan.bins.nbytes for plan in plans.values()) == J.PLAN_INDEX_BYTES


def test_cached_plans_of_a_wide_build_stay_under_the_bound(plans):
    # a 10,000-point build held 135 MB of scatter index when every plan
    # kept its index expanded over the batch
    rng = np.random.default_rng(7)
    points = [rng.uniform(0.5, 2.0, 10_000), rng.uniform(0.0, 1.0, 10_000)]
    PointGeometry(verify.cone(1.0), points)
    assert any(plan.spread == 10_000 for plan in plans.values())
    assert all(plan.bins.nbytes <= J.PLAN_INDEX_BYTES for plan in plans.values())
    assert sum(plan.bins.nbytes for plan in plans.values()) <= 2 * J.PLAN_INDEX_BYTES


def _reference_contract(pattern, a, b, n_vars):
    """The product kernel as einsum and bincount: every product term in
    the order of its coefficient pair, the indices of the left operand and
    the new ones of the right one, then the batch, added into its bin."""
    s = J._space_of(n_vars, len(a))
    left, right = pattern.split("->")[0].split(",")
    every = left + "".join(k for k in right if k not in left)
    terms = np.einsum(
        f"Z{left}...,Z{right}...->Z{every}...", a[s.mul_ia], b[s.mul_ib], order="C"
    )
    shape, bins = _reference_bins(pattern, n_vars, len(a), terms.shape)
    return np.bincount(bins, terms.ravel(), math.prod(shape)).reshape(shape)


@lru_cache(maxsize=4)
def _reference_bins(pattern, n_vars, size, terms_shape):
    """The result shape and the bin of each term of _reference_contract."""
    (left, right), out = pattern.split("->")[0].split(","), pattern.split("->")[1]
    every = left + "".join(k for k in right if k not in left)
    s = J._space_of(n_vars, size)
    at = np.indices(terms_shape)
    batch = terms_shape[1 + len(every):]
    shape = (s.size,) + tuple(terms_shape[1 + every.index(k)] for k in out) + batch
    index = [s.mul_ic[at[0]]] + [at[1 + every.index(k)] for k in out]
    index += list(at[1 + len(every):])
    return shape, np.ravel_multi_index(index, shape).ravel()


def _constant(x, zero=0.0):
    """x with every coefficient past the value set to `zero`."""
    out = x.copy()
    out[1:] = zero
    return out


def _signed_zeros(x):
    """x with every other coefficient past the value -0.0."""
    out = x.copy()
    out[1::2] = -0.0
    return out


def _infinite(x, at):
    """x with the first entry of coefficient `at` infinite."""
    out = x.copy()
    out[at].flat[0] = np.inf
    return out


@pytest.mark.parametrize("pattern", KERNEL_PATTERNS)
def test_contract_equals_the_einsum_kernel(pattern, monkeypatch):
    # bit for bit, at every width, batched or broadcast on either side, with
    # the scatter index cached expanded and spread at each call, for general
    # operands, constant ones on either side or both (their plans keep only
    # the value's coefficient pairs), and operands holding -0.0; an infinite
    # coefficient gives a non-finite result as the reference does
    for bound, (n_vars, order), width in itertools.product(
        (J.PLAN_INDEX_BYTES, 0), ((2, 4), (3, 2)), (1, 2, 17, 128)
    ):
        monkeypatch.setattr(J, "PLAN_INDEX_BYTES", bound)
        J._plan.cache_clear()
        case = (pattern, n_vars, order, [2, 3, 4, 3, 2, 3], width)
        _, _, _, a, b = _operands(case, (width,))
        for x, y in ((a, b), (a[..., 0], b), (a, b[..., 0])):
            exact = [
                (x, y), (_constant(x), y), (x, _constant(y)),
                (_constant(x), _constant(y)), (_signed_zeros(x), _constant(y, -0.0)),
                (_constant(x, -0.0), _signed_zeros(y)),
            ]
            for u, w in exact:
                got = J.contract(pattern, u, w, n_vars)
                assert np.array_equal(got, _reference_contract(pattern, u, w, n_vars))
            infinite = [
                (_infinite(x, 1), _constant(y)), (_constant(x), _infinite(y, 1)),
                (x, _infinite(_constant(y), 0)), (_infinite(_constant(x), 0), _constant(y)),
            ]
            with np.errstate(invalid="ignore"):
                for u, w in infinite:
                    got = J.contract(pattern, u, w, n_vars)
                    ref = _reference_contract(pattern, u, w, n_vars)
                    assert np.isfinite(got).all() == np.isfinite(ref).all()
    J._plan.cache_clear()


@pytest.mark.parametrize("width, spread", [(16, 1), (64, 64)])
def test_a_constant_operand_takes_the_pairs_of_its_value(width, spread):
    # the right operand is constant; the plan keeps the pairs (i, 0) of the
    # full plan in their order, and expands its index over the batch when
    # the full plan does (at width 64 the full index would pass the bound)
    case = ("abc,ib->aci", 3, 4, [2, 3, 4, 3, 2, 3], 16)
    _, n_vars, _, a, b = _operands(case, (width,))
    full = J._plan("abc,ib->aci", n_vars, a.shape, b.shape, "")
    const = J._plan("abc,ib->aci", n_vars, a.shape, b.shape, "b")
    assert (const.ib == 0).all() and np.array_equal(const.ia, full.ia[full.ib == 0])
    assert const.spread == full.spread == spread
    assert const.bins.nbytes < full.bins.nbytes
    assert J._plan("abc,ib->aci", n_vars, a.shape, b.shape, "ab").ia.tolist() == [0]


def _horner_with_a_constant_jet(a, series):
    """A univariate series composed with `a` by Horner steps that all are
    contractions, the first one with the constant jet series[-1]."""
    nil = a.coeffs.copy()
    nil[0] = 0.0
    out = J.jet_constant(series[-1], a.n_vars, a.order).coeffs
    for c in reversed(series[:-1]):
        out = J.contract(",->", out, nil, a.n_vars)
        out[0] += c
    return out


@pytest.mark.parametrize("order", range(J.MAX_ORDER + 1))
def test_series_start_equals_a_product_with_its_constant_jet(order, monkeypatch):
    # _compose scales by the last series coefficient: the same bits, signed
    # zeros included, as contracting with it as a constant jet
    rng = np.random.default_rng(order)
    a = J.Jet(2, order, rng.uniform(0.5, 1.5, (J._space(2, order).size, 3)))
    a.coeffs[1::2] = -0.0
    for fn in (J.exp, J.log, J.sin, J.cos, J.reciprocal, J.sqrt):
        series = []
        compose = J._compose
        monkeypatch.setattr(J, "_compose", lambda x, s: series.append(s) or compose(x, s))
        got = fn(a).coeffs
        monkeypatch.undo()
        want = _horner_with_a_constant_jet(a, series[0])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("axis", [1, 2])
def test_gradient_equals_stacked_derivatives(axis):
    rng = np.random.default_rng(11)
    for n_vars, order in ((2, 4), (3, 2), (4, 1)):
        c = rng.uniform(-1.0, 1.0, (J._space(n_vars, order).size, 3, 5))
        for slots in (range(n_vars), (n_vars - 1, 0)):
            want = np.stack([J.deriv(c, n_vars, v) for v in slots], axis=axis)
            assert np.array_equal(J.gradient(c, n_vars, slots, axis=axis), want)


def test_contract_rejects_an_index_repeated_in_an_operand():
    with pytest.raises(UsageError):
        J.contract("aa,a->", np.zeros((6, 2, 2)), np.zeros((6, 2)), 2)


@pytest.mark.parametrize(
    "pattern, shape_a, shape_b, fault",
    [
        ("ab,b->aa", (6, 2, 2), (6, 2), "'a'"),  # a result index repeated
        ("a,a->b", (6, 2), (6, 2), "'b'"),  # a result index in no operand
        ("a,a", (6, 2), (6, 2), "left,right->out"),
        ("a,b,c->", (6, 2), (6, 2), "left,right->out"),
        ("ij,jk->ik", (6, 2, 3), (6, 2, 2), "'j'"),  # j of size 3 and 2
        ("a,a->", (6, 2, 3), (6, 2, 4), "(6, 2, 3) and (6, 2, 4)"),  # batches
        # patterns outside the class contract serves
        ("ab,ba->", (6, 2, 2), (6, 2, 2), "different orders"),
        ("ab,ca->", (6, 2, 2), (6, 2, 2), "'b'"),  # b summed in one operand only
    ],
    ids=["repeated result index", "result index in no operand", "no second operand",
         "three operands", "index sizes differ", "batches do not broadcast",
         "shared indices reordered", "summed index not shared"],
)
def test_contract_refuses_a_pattern_it_does_not_serve(pattern, shape_a, shape_b, fault):
    with pytest.raises(UsageError, match=r"\A" + re.escape(repr(pattern))) as err:
        J.contract(pattern, np.ones(shape_a), np.ones(shape_b), 2)
    assert fault in str(err.value)


@settings(max_examples=30, deadline=None)
@given(tensor_cases)
def test_array_forms_match_jet_methods(case):
    _, n_vars, order, _, _ = case
    _, _, _, a, _ = _operands(case)
    if a.ndim == 2:
        entries = [J.unstack(a[:, i], n_vars) for i in range(a.shape[1])]
        assert np.array_equal(J.stack(entries), a)
    flat = a.reshape(len(a), -1)
    for k in range(flat.shape[1]):
        jet = J.Jet(n_vars, order, flat[:, k])
        if order:
            grad = J.gradient(a, n_vars, range(n_vars)).reshape(-1, n_vars, flat.shape[1])
            for v in range(n_vars):
                assert np.array_equal(grad[:, v, k], jet.d(v).coeffs)
        assert np.array_equal(J.trunc(a, n_vars, order // 2).reshape(-1, flat.shape[1])[:, k],
                              jet.trunc(order // 2).coeffs)


def test_contract_rejects_mixed_orders():
    with pytest.raises(UsageError):
        J.contract("a,a->", np.zeros((6, 2)), np.zeros((3, 2)), 2)


def _view_gather_contract(pattern, a, b, n_vars):
    """The product kernel as it gathered before each plan held its
    operands' gathers: each operand takes its factor of every term as whole
    coefficients along its first axis, and the gather is reshaped and
    transposed into a view over every index, the left operand's followed
    by the right one's new ones, and the batch; the views are multiplied
    and each term added into its bin by np.bincount.  An operand constant
    past its value forms only the terms with its value, as in contract."""
    s = J._space_of(n_vars, len(a))
    inputs, out = pattern.split("->")
    left, right = inputs.split(",")
    every = left + "".join(k for k in right if k not in left)
    keep = np.ones(len(s.mul_ia), dtype=bool)
    if pattern != ",->":
        keep &= (s.mul_ia == 0) | bool(np.count_nonzero(a[1:]))
        keep &= (s.mul_ib == 0) | bool(np.count_nonzero(b[1:]))
    batch = np.broadcast_shapes(a.shape[1 + len(left) :], b.shape[1 + len(right) :])

    def view(x, letters, coeffs):
        gathered = x.take(coeffs, axis=0)
        missing = "".join(k for k in every if k not in letters)
        own = x.shape[1 + len(letters) :]
        gathered = gathered.reshape(
            gathered.shape[: 1 + len(letters)]
            + (1,) * (len(missing) + len(batch) - len(own))
            + own
        )
        order = letters + missing
        axes = (0,) + tuple(1 + order.index(k) for k in every)
        return gathered.transpose(axes + tuple(range(len(axes), len(axes) + len(batch))))

    terms = np.multiply(
        view(a, left, s.mul_ia[keep]), view(b, right, s.mul_ib[keep]), order="C"
    )
    dims = dict(zip(left, a.shape[1:]))
    dims.update(zip(right, b.shape[1:]))
    shape = (s.size,) + tuple(dims[k] for k in out) + batch
    at = np.indices(terms.shape)
    index = [s.mul_ic[keep][at[0]]] + [at[1 + every.index(k)] for k in out]
    index += list(at[1 + len(every) :])
    bins = np.ravel_multi_index(index, shape).ravel()
    return np.bincount(bins, terms.ravel(), math.prod(shape)).reshape(shape)


# (batch of the left operand, batch of the right one)
KERNEL_BATCHES = [
    ((), ()), ((16,), (16,)), ((), (16,)), ((16,), ()), ((3, 2), (2,)), ((2,), (3, 2)),
]
SPECIAL_ENTRIES = [0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def kernel_cases(draw):
    """Operands of a pattern and batch, constant past their values or
    not, some of their entries drawn from SPECIAL_ENTRIES, and whether the
    plan's scatter index is spread at each call."""
    pattern = draw(st.sampled_from(KERNEL_PATTERNS))
    n_vars, order = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    batch_a, batch_b = draw(st.sampled_from(KERNEL_BATCHES))
    left, right = pattern.split("->")[0].split(",")
    dims = dict(zip("abcdijkl", draw(st.lists(st.integers(1, 3), min_size=8, max_size=8))))
    size = J._space(n_vars, order).size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    operands = []
    for letters, batch in ((left, batch_a), (right, batch_b)):
        x = rng.uniform(-1.0, 1.0, (size,) + tuple(dims[k] for k in letters) + batch)
        special = rng.random(x.shape) < special_share
        x[special] = rng.choice(SPECIAL_ENTRIES, special.sum())
        if draw(st.booleans()):
            x[1:] = draw(st.sampled_from([0.0, -0.0]))
        operands.append(x)
    return pattern, n_vars, *operands, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_contract_equals_the_view_gather_kernel(case):
    # bit for bit, sign bits included, NaN where the reference has one
    pattern, n_vars, a, b, spread = case
    J._plan.cache_clear()
    try:
        with mock.patch.object(J, "PLAN_INDEX_BYTES", 0 if spread else J.PLAN_INDEX_BYTES):
            with np.errstate(invalid="ignore"):
                got = J.contract(pattern, a, b, n_vars)
                want = _view_gather_contract(pattern, a, b, n_vars)
    finally:
        J._plan.cache_clear()
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
