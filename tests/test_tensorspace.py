from dataclasses import replace
from itertools import product as iproduct
from math import comb

import pytest

import reference_ops as ref
from hopfquotients.exactla import rank_distinct
from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra
from hopfquotients.presentations import _CONJUGATION_DEFECT, RELATIONS
from hopfquotients.tensorspace import (
    _kernel,
    adjoint,
    apply_atom,
    apply_expr,
    basis_size,
    tensor_basis,
)

SYM2 = HopfAlgebra(SYM, 2)
TEN2 = HopfAlgebra(TENSOR, 2)
TEN2_ODD = HopfAlgebra(TENSOR, 2, odd=True)
TEN3 = HopfAlgebra(TENSOR, 3)
TEN3_ODD = HopfAlgebra(TENSOR, 3, odd=True)
SYM3 = HopfAlgebra(SYM, 3)


def identity(basis):
    """The support in which vector i is basis[i]."""
    return {t: ((i, 1),) for i, t in enumerate(basis)}


def images(H, exprs, tuples, basis):
    """The engine's image of each sum of exprs on the columns tuples, as
    {image tuple: {column: coeff}}, zeros dropped: apply_expr with the
    identity support over basis, a weight block that holds the images."""
    out = [{} for _ in exprs]
    for r, sums in enumerate(apply_expr(H, exprs, tuples, identity(basis))):
        for i, cols in sums.items():
            cols = {j: c for j, c in cols.items() if c}
            if cols:
                out[r][basis[i]] = cols
    return out


def apply_word(H, word, t):
    """The engine's image of one word on one column: the expression
    ((1, word),) applied to the tuples [t], over the weight block of t."""
    basis = tensor_basis(H, len(t), total_weight(H, t))
    (image,) = images(H, (((1, word),),), [t], basis)
    return {u: cols[0] for u, cols in image.items()}


def pair_blocks(H, total):
    """All two-slot weight blocks of a given total degree, as bases."""
    out = []
    for weight in iproduct(*(range(total + 1) for _ in range(H.num_vars))):
        if sum(weight) == total:
            out.append(tensor_basis(H, 2, weight))
    return out


def total_weight(H, t):
    w = [0] * H.num_vars
    for e in t:
        for i, v in enumerate(ref.weight(H, e)):
            w[i] += v
    return tuple(w)


class TestTensorBasis:
    def test_sym_block_size_is_product_of_binomials(self):
        for n in (1, 2, 3):
            for weight in [(2, 1), (0, 3), (2, 2)]:
                want = 1
                for w in weight:
                    want *= comb(w + n - 1, n - 1)
                assert len(tensor_basis(SYM2, n, weight)) == want

    def test_tensor_block_brute_force(self):
        # distribute the multiset of letters over slots, then order
        # each slot independently
        basis = tensor_basis(TEN3, 3, (1, 1, 1))
        brute = set()
        for assign in iproduct(range(3), repeat=3):
            slots = [[], [], []]
            for letter, slot in enumerate(assign):
                slots[slot].append(letter)
            from itertools import permutations

            for p0 in permutations(slots[0]):
                for p1 in permutations(slots[1]):
                    for p2 in permutations(slots[2]):
                        brute.add((p0, p1, p2))
        assert set(basis) == brute
        assert len(basis) == 60

    def test_basis_size_counts_without_building(self):
        for H in (SYM2, TEN2, SYM3, TEN3):
            for n in (1, 2, 3):
                for weight in iproduct(range(3), repeat=H.num_vars):
                    assert basis_size(H, n, weight) == len(tensor_basis(H, n, weight))

    def test_sorted_and_distinct(self):
        basis = tensor_basis(TEN2, 3, (2, 1))
        assert list(basis) == sorted(set(basis))
        # sym tuples are ordered by their slots' weight vectors
        keys = [tuple(ref.weight(SYM2, e) for e in t) for t in tensor_basis(SYM2, 3, (2, 1))]
        assert keys == sorted(set(keys))

    def test_weight_length_check(self):
        for H in (SYM2, TEN2):
            for n in (1, 2, 3):
                for weight in [(1, 1, 1), (1,)]:
                    with pytest.raises(ValueError, match="weight length must match num_vars"):
                        tensor_basis(H, n, weight)


class TestExplicitActions:
    def test_split_left_on_square_monomial(self):
        t = ((0, 0), (1,), ())
        got = ref.apply_atom(SYM2, ("E",), t)
        assert got == {
            ((), (0, 0, 1), ()): 1,
            ((0,), (0, 1), ()): 2,
            ((0, 0), (1,), ()): 1,
        }

    def test_split_right_on_word(self):
        t = ((0,), (0, 1), ())
        got = ref.apply_atom(TEN2, ("F",), t)
        assert got == {
            ((0,), (0, 1), ()): 1,
            ((0, 0), (1,), ()): 1,
            ((0, 1), (0,), ()): 1,
            ((0, 0, 1), (), ()): 1,
        }

    def test_split_ignores_later_slots(self):
        # E and F touch slots 0 and 1 only, whatever the tuple length
        for H in (SYM2, TEN2):
            for a, b, c in tensor_basis(H, 3, (2, 1)):
                for atom in (("E",), ("F",)):
                    pair = ref.apply_atom(H, atom, (a, b))
                    assert ref.apply_atom(H, atom, (a, b, c)) == {
                        k + (c,): v for k, v in pair.items()}
                    assert ref.apply_atom(H, atom, (a, b, c, c)) == {
                        k + (c, c): v for k, v in pair.items()}

    def test_unit_slot_filter(self):
        t = ((), (0,), ())
        assert apply_atom(SYM2, ("U", 0), t) == {t: 1}
        assert apply_atom(SYM2, ("U", 1), t) == {}
        assert apply_atom(SYM2, ("U", 2), t) == {t: 1}
        assert apply_atom(TEN2, ("U", 1), ((0,), (), (1,))) == {((0,), (), (1,)): 1}
        assert apply_atom(TEN2, ("U", 0), ((0,), (), (1,))) == {}

    def test_twist_on_generators(self):
        # gamma(x (x) y) = -1 (x) xy - y (x) x
        got = ref.apply_atom(SYM2, ("gamma",), ((0,), (1,)))
        assert got == {((), (0, 1)): -1, ((1,), (0,)): -1}

    def test_signed_swap_on_generators(self):
        got = ref.apply_atom(SYM2, ("s",), ((0,), (1,)))
        assert got == {((1,), (0,)): -1}

    def test_unknown_atom(self):
        for atom in (("frobenius",), ("gamma",)):
            with pytest.raises(ValueError):
                apply_atom(SYM2, atom, ((), ()))

    def test_engine_refuses_forward_atoms(self):
        # the engine builds rows through adjoint() only; the forward
        # branching atoms are the tests' reference
        for atom in (("E",), ("F",), ("ad",)):
            with pytest.raises(ValueError):
                apply_atom(TEN2, atom, ((0,), (1,)))


class TestOperatorIdentities:
    def atoms_preserve_weight(self, H, basis, atoms):
        for t in basis:
            w = total_weight(H, t)
            for atom in atoms:
                for out, c in ref.apply_atom(H, atom, t).items():
                    assert c != 0
                    assert total_weight(H, out) == w

    def test_weight_preservation_pairs(self):
        for H in (SYM2, TEN2):
            for basis in pair_blocks(H, 3):
                self.atoms_preserve_weight(
                    H, basis, [("gamma",), ("tau",), ("delta",), ("s",), ("S", 0), ("swap", 0, 1)]
                )

    def test_weight_preservation_triples(self):
        for H in (SYM2, TEN2):
            for t in tensor_basis(H, 3, (2, 1)):
                w = total_weight(H, t)
                for atom in [("E",), ("F",), ("swap", 0, 2), ("S", 1)]:
                    for out, _ in ref.apply_atom(H, atom, t).items():
                        assert total_weight(H, out) == w

    def test_involutions(self):
        for H in (SYM2, TEN2):
            for basis in pair_blocks(H, 4):
                for t in basis:
                    for atom in [("S", 0), ("S", 1), ("swap", 0, 1)]:
                        assert apply_word(H, (atom, atom), t) == {t: 1}
                    for atom in [("tau",), ("delta",)]:
                        assert ref.apply_word(H, (atom, atom), t) == {t: 1}

    def test_engine_atoms_match_reference_maps(self):
        # the words are read left to right: s is S in slot 1, then the swap
        for H in (SYM2, TEN2):
            for basis in pair_blocks(H, 4):
                for t in basis:
                    assert apply_atom(H, ("swap", 0, 1), t) == ref.apply_atom(H, ("tau",), t)
                    assert apply_atom(H, ("S", 0), t) == ref.apply_atom(H, ("delta",), t)
                    s_word = (("S", 1), ("swap", 0, 1))
                    assert apply_word(H, s_word, t) == ref.apply_atom(H, ("s",), t)

    def test_signed_swap_squares_to_double_antipode(self):
        for H in (SYM2, TEN2):
            for basis in pair_blocks(H, 4):
                for t in basis:
                    twice = ref.apply_word(H, (("s",), ("s",)), t)
                    assert twice == apply_word(H, (("S", 0), ("S", 1)), t)

    def test_swap_conjugates_antipode_slot(self):
        for t in tensor_basis(TEN2, 2, (2, 1)):
            lhs = apply_word(TEN2, (("swap", 0, 1), ("S", 0), ("swap", 0, 1)), t)
            rhs = apply_word(TEN2, (("S", 1),), t)
            assert lhs == rhs

    def test_braid_relation(self):
        word_a = (("swap", 0, 1), ("swap", 1, 2), ("swap", 0, 1))
        word_b = (("swap", 1, 2), ("swap", 0, 1), ("swap", 1, 2))
        for H in (SYM2, TEN2, TEN2_ODD):
            for t in tensor_basis(H, 3, (2, 1)):
                assert apply_word(H, word_a, t) == apply_word(H, word_b, t)
                # both exchange slots 0 and 2, with the same Koszul sign
                assert apply_word(H, word_a, t) == apply_atom(H, ("swap", 0, 2), t)

    def test_odd_swap_signs(self):
        assert apply_atom(TEN2_ODD, ("swap", 0, 1), ((0,), (1,), ())) == {((1,), (0,), ()): -1}
        # |a||b| = 3 plus (|a| + |b|) times the 2 letters between them
        t = ((0,), (1, 1), (0, 1, 1))
        assert apply_atom(TEN2_ODD, ("swap", 0, 2), t) == {((0, 1, 1), (1, 1), (0,)): -1}
        t = ((0, 1), (1,), (0, 1))
        assert apply_atom(TEN2_ODD, ("swap", 0, 2), t) == {t: 1}

    def test_twist_has_order_three(self):
        for H in (SYM2, TEN2):
            for total in range(1, 6):
                for basis in pair_blocks(H, total):
                    for t in basis:
                        assert ref.apply_word(H, (("gamma",),) * 3, t) == {t: 1}

    def test_twist_differs_from_identity(self):
        t = ((0,), (1,))
        assert ref.apply_word(SYM2, (("gamma",),), t) != {t: 1}

    def test_relation_words_match_term_by_term_reading(self):
        # apply_expr sums each word's terms once, at the end, as the
        # engine's walk does; apply_word merges them after every atom.  The
        # words of RELATIONS merge no terms, the three extra words do, and
        # cancel some of them.
        merging = ((("E",), ("F",)), (("E",), ("S", 0), ("F",)), (("F",), ("S", 1), ("F",)))
        words = {word for exprs in RELATIONS.values() for expr in exprs for _, word in expr}
        merged = cancelled = False
        for H in (TEN3, SYM3):
            for t in tensor_basis(H, 3, (2, 1, 1)):
                for word in words | set(merging):
                    want = {k: c for k, c in ref.apply_word(H, word, t).items() if c}
                    assert ref.apply_expr(H, ((1, word),), t) == want, word
                for word in merging:
                    terms = [(t, 1)]
                    for atom in word:
                        terms = [(t2, c * c2) for t1, c in terms
                                 for t2, c2 in ref.apply_atom(H, atom, t1).items()]
                    keys = {k for k, _ in terms}
                    merged |= len(keys) < len(terms)
                    cancelled |= len(keys) > len(ref.apply_word(H, word, t))
        assert merged and cancelled


class TestSlotOperations:
    def test_split_then_counit_merges(self):
        for H in (SYM2, TEN2):
            for t in tensor_basis(H, 3, (2, 1)):
                merged = ref.merge_slots(H, {t: 1}, 0)
                via_f = ref.counit_slot(H, ref.apply_atom(H, ("F",), t), 1)
                via_e = ref.counit_slot(H, ref.apply_atom(H, ("E",), t), 0)
                assert via_f == merged
                assert via_e == merged

    def test_coproduct_then_counit_is_identity(self):
        for H in (SYM2, TEN2):
            for t in tensor_basis(H, 2, (2, 2)):
                for slot in (0, 1):
                    spread = ref.coproduct_into(H, t, slot)
                    assert ref.counit_slot(H, spread, slot) == {t: 1}
                    assert ref.counit_slot(H, spread, slot + 1) == {t: 1}

    def test_expr_linearity(self):
        t = ((0,), (0, 1))
        w1 = (("F",),)
        w2 = (("S", 1), ("swap", 0, 1))
        expr = ((2, w1), (-1, w2))
        got = ref.apply_expr(SYM2, expr, t)
        a = ref.apply_word(SYM2, w1, t)
        b = apply_word(SYM2, w2, t)
        want = {}
        for k, c in a.items():
            want[k] = want.get(k, 0) + 2 * c
        for k, c in b.items():
            want[k] = want.get(k, 0) - c
        want = {k: c for k, c in want.items() if c}
        assert got == want

    def test_word_reversal_changes_result(self):
        word = (("S", 0), ("swap", 0, 1))
        t = ((0, 0), (1,))
        forward = apply_word(SYM2, word, t)
        backward = apply_word(SYM2, word[::-1], t)
        assert forward == {((1,), (0, 0)): 1}
        assert backward == {((1,), (0, 0)): -1}
        assert forward != backward

    def test_empty_word_is_identity(self):
        t = ((0, 1), ())
        assert apply_word(SYM2, (), t) == {t: 1}


class TestKernels:
    """swap, S and U each go through one kernel per atom (_kernel), in
    the walk and through apply_atom alike; on every tuple of the rank-3
    weight blocks to degree 4 each gives the image of the reference map,
    whose swap sign is that of the permutation of slots."""

    ATOMS = [("swap", i, j) for i in range(3) for j in range(3) if i != j] + [
        (kind, i) for kind in ("S", "U") for i in range(3)]

    @pytest.mark.parametrize("H", [TEN3, TEN3_ODD, SYM3], ids=["even", "odd", "sym"])
    def test_kernels_match_the_reference_maps(self, H):
        across_odd_middle = 0
        for weight in iproduct(range(5), repeat=3):
            if sum(weight) > 4:
                continue
            for t in tensor_basis(replace(H, odd=False), 3, weight):
                for atom in self.ATOMS:
                    want = ref.apply_atom(H, atom, t)
                    image = _kernel(H, atom)(t)
                    assert ({} if image is None else dict((image,))) == want, (atom, t)
                    assert apply_atom(H, atom, t) == want, (atom, t)
                # the middle slot's parity enters the sign of swap(0, 2)
                if H.odd and len(t[1]) % 2 and (len(t[0]) + len(t[2])) % 2:
                    across_odd_middle += 1
        assert across_odd_middle > 0 if H.odd else across_odd_middle == 0


class TestApplyExprColumns:
    """apply_expr takes a list of columns and a support, and returns the
    row sums, one {vector: {column: coeff}} per sum, of the vectors that
    hold the image tuples."""

    SWAP = ((1, (("swap", 0, 1),)),)
    BLOCK = tensor_basis(TEN2, 2, (1, 1))

    def test_a_repeated_tuple_yields_both_indices(self):
        t, u = ((0,), (1,)), ((1,), (0,))
        index = {v: i for i, v in enumerate(self.BLOCK)}
        sums = apply_expr(TEN2, (self.SWAP,), [t, u, t], identity(self.BLOCK))
        assert sums == [{index[u]: {0: 1, 2: 1}, index[t]: {1: 1}}]

    def test_no_columns_give_empty_images(self):
        assert apply_expr(TEN2, (self.SWAP, ((1, ()),)), [], identity(self.BLOCK)) == [{}, {}]

    def test_cancelled_terms_are_dropped(self):
        # the sums keep a cancelled term as a zero; relation_rows drops it
        basis = tensor_basis(TEN2, 2, (2, 1))
        cancelled = ((1, (("swap", 0, 1), ("S", 0))), (-1, (("swap", 0, 1), ("S", 0))))
        sums = apply_expr(TEN2, (cancelled,), basis, identity(basis))
        (rows,) = sums
        assert rows and not any(c for cols in rows.values() for c in cols.values())


class TestAdjoints:
    """adjoint(R) is the transpose of R in the basis tuples: the
    coefficient of u in R t equals that of t in adjoint(R) u, for every
    atom, every expression of RELATIONS and the conjugation defect, over
    whole weight blocks.  The forward atoms are the reference."""

    def exprs(self, n):
        """One-atom words on n slots, then every relation on n slots."""
        atoms = [("swap", i, j) for i in range(n) for j in range(n) if i != j]
        atoms += [(kind, i) for kind in ("S", "U") for i in range(n)]
        atoms += [("E",), ("F",), ("ad",)] if n > 1 else [("ad",)]
        relations = [expr for (_, rank, _), exprs in RELATIONS.items() if rank == n
                     for expr in exprs]
        return [((1, (atom,)),) for atom in atoms] + relations + [_CONJUGATION_DEFECT]

    def assert_transposes(self, H, n, weight):
        basis = tensor_basis(replace(H, odd=False), n, weight)
        for expr in self.exprs(n):
            star = adjoint(expr)
            assert adjoint(star) == expr
            forward = {(t, u): c for t in basis for u, c in ref.apply_expr(H, expr, t).items()}
            # the whole block in one call: column j is basis[j]
            (image,) = images(H, (star,), basis, basis)
            backward = {(t, basis[j]): c for t, cols in image.items() for j, c in cols.items()}
            assert forward == backward, (H, weight, expr)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sym(self, n):
        for weight in [(3, 2, 0), (2, 1, 1)]:
            self.assert_transposes(SYM3, n, weight)

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tensor(self, n, odd):
        for weight in [(2, 1, 1), (3, 1, 0)]:
            self.assert_transposes(HopfAlgebra(TENSOR, 3, odd), n, weight)

    def test_starred_atoms(self):
        # over sym E* picks each submonomial p of slot 1 and weighs
        # x * p by the binomials of the coproduct, not the shuffle count
        assert apply_atom(SYM2, ("E*",), ((0,), (0, 1))) == {
            ((0,), (0, 1)): 1, ((0, 0), (1,)): 2, ((0, 1), (0,)): 1, ((0, 0, 1), ()): 2,
        }
        # over odd generators F* shuffles the suffix p of slot 0 into
        # slot 1 with the Koszul sign of the coproduct
        assert apply_atom(TEN2_ODD, ("F*",), ((0,), (1,))) == {
            ((0,), (1,)): 1, ((), (0, 1)): 1, ((), (1, 0)): -1,
        }


AD = ((1, (("ad",),)),)


class TestBarRows:
    """Bar rows: the images of the conjugation-defect word (('ad',),)."""

    def test_sym_has_none(self):
        for t in tensor_basis(SYM2, 2, (3, 1)):
            assert ref.apply_expr(SYM2, AD, t) == {}

    def test_unit_slot_zero_has_none(self):
        for t in tensor_basis(TEN2, 3, (2, 1)):
            if t[0] == ():
                assert ref.apply_expr(TEN2, AD, t) == {}

    def test_rows_live_in_block_and_sum_to_zero(self):
        for weight in [(2, 1), (1, 1), (3, 0)]:
            basis = tensor_basis(TEN2, 2, weight)
            for t in basis:
                row = ref.apply_expr(TEN2, AD, t)
                assert set(row) <= set(basis)
                assert sum(row.values()) == 0

    def test_defect_of_a_leading_letter(self):
        # the letter 0 comes off slot 0, leaving r = ((1,), (1,))
        t = ((0, 1), (1,))
        assert ref.apply_atom(TEN2, ("ad",), t) == {
            ((0, 1), (1,)): 1,
            ((1, 0), (1,)): -1,
            ((1,), (0, 1)): 1,
            ((1,), (1, 0)): -1,
        }

    def test_defect_over_odd_generators(self):
        # v moves past r_0 = (1,), which is odd, before it reaches r_1,
        # and r_i * v picks up the sign of moving v past r_i as well
        assert ref.apply_atom(TEN2_ODD, ("ad",), ((0, 1), (1,))) == {
            ((0, 1), (1,)): 1,
            ((1, 0), (1,)): 1,
            ((1,), (0, 1)): -1,
            ((1,), (1, 0)): -1,
        }

    def necklace_count(self, weight):
        """Orbits of words under rotation, brute force."""
        words = [w for (w,) in tensor_basis(TEN2, 1, weight)]
        seen = set()
        classes = 0
        for w in words:
            if w in seen:
                continue
            classes += 1
            for k in range(len(w)):
                seen.add(w[k:] + w[:k])
        return classes

    def test_single_slot_quotient_counts_necklaces(self):
        # modding T(V) by all conjugation defects identifies each word
        # with its rotations
        for weight in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
            basis = tensor_basis(TEN2, 1, weight)
            idx = {t: i for i, t in enumerate(basis)}
            rows = [{idx[u]: c for u, c in ref.apply_expr(TEN2, AD, t).items()} for t in basis]
            assert len(basis) - rank_distinct(rows) == self.necklace_count(weight)
