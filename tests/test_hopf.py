from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra, add_into
from reference_ops import all_elements, coproduct, counit, product, weight


def cop(H, x):
    """Coproduct of a basis element as a dict on pairs."""
    out = {}
    for left, right, c in coproduct(H, x):
        add_into(out, (left, right), c)
    return out


def cop_left(H, pairs):
    """(Delta (x) id) applied to a dict on pairs; keys become triples."""
    out = {}
    for (left, right), c in pairs.items():
        for a, b, d in coproduct(H, left):
            add_into(out, (a, b, right), c * d)
    return out


def cop_right(H, pairs):
    out = {}
    for (left, right), c in pairs.items():
        for a, b, d in coproduct(H, right):
            add_into(out, (left, a, b), c * d)
    return out


def conv_antipode_left(H, x):
    """m(S (x) id) Delta of a basis element, as a vector."""
    out = {}
    for left, right, c in coproduct(H, x):
        sign, elem = H.antipode(left)
        add_into(out, product(H, elem, right), c * sign)
    return out


def conv_antipode_right(H, x):
    out = {}
    for left, right, c in coproduct(H, x):
        sign, elem = H.antipode(right)
        add_into(out, product(H, left, elem), c * sign)
    return out


def koszul(H, x, y) -> int:
    """The sign of moving x past y: -1 when both are odd."""
    return -1 if H.odd and len(x) % 2 and len(y) % 2 else 1


ALGEBRAS = [HopfAlgebra(SYM, 2), HopfAlgebra(TENSOR, 2), HopfAlgebra(TENSOR, 2, odd=True)]
IDS = ["sym2", "tensor2", "tensor2odd"]


@pytest.fixture(params=ALGEBRAS, ids=IDS)
def H(request):
    return request.param


class TestBasics:
    def test_one_and_degree(self, H):
        assert weight(H, ()) == (0,) * H.num_vars
        assert counit(()) == 1
        for v in range(H.num_vars):
            g = (v,)
            assert counit(g) == 0
            assert weight(H, g) == tuple(int(u == v) for u in range(H.num_vars))

    def test_product_unit(self, H):
        for x in all_elements(H, 4):
            assert product(H, (), x) == x
            assert product(H, x, ()) == x

    def test_generators_primitive(self, H):
        for v in range(H.num_vars):
            g = (v,)
            assert cop(H, g) == {((), g): 1, (g, ()): 1}

    def test_weight_additivity(self, H):
        for x in all_elements(H, 3):
            for y in all_elements(H, 3):
                got = weight(H, product(H, x, y))
                want = tuple(a + b for a, b in zip(weight(H, x), weight(H, y)))
                assert got == want

    def test_elements_of_weight(self, H):
        if H.kind == SYM:
            assert H.elements_of_weight((2, 1)) == [(0, 0, 1)]
            return
        words = H.elements_of_weight((2, 1))
        assert words == sorted(words)
        assert len(words) == len(set(words)) == factorial(3) // factorial(2)
        assert set(words) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}

    def test_elements_of_weight_length_check(self, H):
        with pytest.raises(ValueError):
            H.elements_of_weight((1, 1, 1))


class TestExplicitCoproducts:
    def test_sym_binomial_coefficients(self):
        H = HopfAlgebra(SYM, 2)
        # x0^2 x1 is the word (0, 0, 1)
        got = cop(H, (0, 0, 1))
        want = {
            ((), (0, 0, 1)): 1,
            ((0,), (0, 1)): 2,
            ((0, 0), (1,)): 1,
            ((1,), (0, 0)): 1,
            ((0, 1), (0,)): 2,
            ((0, 0, 1), ()): 1,
        }
        assert got == want

    def test_tensor_unshuffle(self):
        H = HopfAlgebra(TENSOR, 2)
        assert cop(H, (0, 1)) == {
            ((), (0, 1)): 1,
            ((0,), (1,)): 1,
            ((1,), (0,)): 1,
            ((0, 1), ()): 1,
        }
        assert cop(H, (0, 0)) == {
            ((), (0, 0)): 1,
            ((0,), (0,)): 2,
            ((0, 0), ()): 1,
        }

    def test_odd_unshuffle_cancels(self):
        H = HopfAlgebra(TENSOR, 2, odd=True)
        assert cop(H, (0, 0)) == {((), (0, 0)): 1, ((0, 0), ()): 1}
        assert cop(H, (0, 1))[((1,), (0,))] == -1

    def test_tensor_antipode_reverses_with_sign(self):
        H = HopfAlgebra(TENSOR, 3)
        assert H.antipode((0, 1, 2)) == (-1, (2, 1, 0))
        assert H.antipode((0, 1)) == (1, (1, 0))
        odd = HopfAlgebra(TENSOR, 3, odd=True)
        assert odd.antipode((0, 1, 2)) == (1, (2, 1, 0))
        assert odd.antipode((0, 1)) == (-1, (1, 0))


class TestAxioms:
    def test_coassociativity(self, H):
        for x in all_elements(H, 5):
            assert cop_left(H, cop(H, x)) == cop_right(H, cop(H, x))

    def test_counit(self, H):
        for x in all_elements(H, 5):
            left = {}
            right = {}
            for a, b, c in coproduct(H, x):
                if counit(a):
                    add_into(left, b, c)
                if counit(b):
                    add_into(right, a, c)
            assert left == {x: 1}
            assert right == {x: 1}

    def test_cocommutativity(self, H):
        for x in all_elements(H, 5):
            pairs = cop(H, x)
            flipped = {(b, a): c * koszul(H, a, b) for (a, b), c in pairs.items()}
            assert pairs == flipped

    def test_antipode_law(self, H):
        for x in all_elements(H, 5):
            expected = {(): 1} if not x else {}
            assert conv_antipode_left(H, x) == expected
            assert conv_antipode_right(H, x) == expected

    def test_antipode_involutive(self, H):
        # cocommutative, so S has order two
        for x in all_elements(H, 5):
            sign, elem = H.antipode(x)
            sign2, elem2 = H.antipode(elem)
            assert (sign * sign2, elem2) == (1, x)

    def test_antipode_antihomomorphism(self, H):
        for x in all_elements(H, 3):
            for y in all_elements(H, 3):
                sx, ex = H.antipode(x)
                sy, ey = H.antipode(y)
                sxy, exy = H.antipode(product(H, x, y))
                assert {exy: sxy} == {product(H, ey, ex): sy * sx * koszul(H, x, y)}

    def test_coproduct_multiplicative(self, H):
        for x in all_elements(H, 3):
            for y in all_elements(H, 3):
                lhs = cop(H, product(H, x, y))
                rhs = {}
                for (a, b), c in cop(H, x).items():
                    for (u, v), d in cop(H, y).items():
                        sign = koszul(H, b, u)
                        add_into(rhs, (product(H, a, u), product(H, b, v)), c * d * sign)
                assert lhs == rhs

    def test_counit_multiplicative(self, H):
        for x in all_elements(H, 3):
            for y in all_elements(H, 3):
                assert counit(product(H, x, y)) == counit(x) * counit(y)


class TestEngineMaps:
    """The maps the engine applies, against the reference product and
    coproduct, over every word of length at most 4."""

    def test_coproduct_transpose(self, H):
        words = all_elements(H, 4)
        expected: dict = {}
        for a in words:
            for left, right, c in coproduct(H, a):
                expected.setdefault((left, right), {})[a] = c
        for left in words:
            for right in all_elements(H, 4 - len(left)):
                got = H.coproduct_transpose(left, right)
                assert len({a for a, _ in got}) == len(got)
                assert dict(got) == expected.get((left, right), {}), (left, right)

    def test_factorizations(self, H):
        words = all_elements(H, 4)
        expected: dict = {}
        for left in words:
            for right in all_elements(H, 4 - len(left)):
                expected.setdefault(product(H, left, right), []).append((left, right))
        for x in words:
            got = H.factorizations(x)
            assert len(set(got)) == len(got)
            assert sorted(got) == sorted(expected[x]), x


class TestVectorHelpers:
    def test_add_into_drops_zero(self):
        v = {}
        add_into(v, "a", 3)
        add_into(v, "a", -3)
        assert v == {}
        add_into(v, "b", 2)
        add_into(v, "b", 5)
        assert v == {"b": 7}


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            HopfAlgebra("group", 2)

    def test_bad_num_vars(self):
        with pytest.raises(ValueError):
            HopfAlgebra(SYM, 0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_antipode_law_random_words(data):
    H = HopfAlgebra(TENSOR, 3)
    word = tuple(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=7)))
    assert conv_antipode_left(H, word) == {}
    assert cop_left(H, cop(H, word)) == cop_right(H, cop(H, word))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_antipode_law_random_monomials(data):
    H = HopfAlgebra(SYM, 3)
    # the monomial with exponents 0..4 in each variable, as its sorted word
    mono = tuple(v for v in range(3) for _ in range(data.draw(st.integers(0, 4))))
    expected = {(): 1} if not mono else {}
    assert conv_antipode_left(H, mono) == expected
