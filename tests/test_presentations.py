import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

from reference_dims import gl2_h1_dim, h1_dim, mf_dim, normalized_row, quotient_dim
from reference_ops import (
    apply_expr as reference_apply_expr,
    bar_rows,
    forward_rows,
    general_reading,
    hw_vectors,
    reversed_reading,
    sign_block_rows,
    sign_fold,
    space_groups,
    unprojected_hw_rows,
)
from hopfquotients.combinatorics import cusp_dim, partitions_of, weyl_dim
from hopfquotients import exactla
from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra
from hopfquotients import cli, presentations, version
from hopfquotients.presentations import (
    H_FUNCTOR,
    OMEGA_FUNCTOR,
    FunctorSpec,
    block_cols,
    block_group,
    block_relations,
    block_result,
    block_space,
    compute_block,
    relation_rows,
    semistandard_tableaux,
    standard_tableaux,
)
from hopfquotients import tensorspace
from hopfquotients.hopf import _coproduct_transpose
from hopfquotients.tensorspace import adjoint, tensor_basis


def spec(functor, rank, kind, m, odd=False, hw=False):
    return FunctorSpec(functor, rank, HopfAlgebra(kind, m, odd), highest_weight=hw)


def weights(max_degree):
    """Every partition of each degree d up to max_degree, padded to
    max(d, 1) variables."""
    for degree in range(max_degree + 1):
        m = max(degree, 1)
        for lam in partitions_of(degree, m):
            yield tuple(lam) + (0,) * (m - len(lam))


def assert_rows_match_up_to_signs(basis, rows, reference):
    """rows, dicts over indices into basis, equal the reference rows
    (dicts over basis tuples) in order, once column c is multiplied by
    (-1)^inv(basis[c]) and each row by one sign: inv counts inversions
    of the tuple's letters in reading order.  This is the change of
    basis between the sign-isotypic part of the multilinear block and
    the weight block over odd generators."""
    def inversions(t):
        letters = [x for word in t for x in word]
        return sum(1 for i, x in enumerate(letters) for y in letters[:i] if y > x)

    index = {t: i for i, t in enumerate(basis)}
    assert len(rows) == len(reference)
    for k, (row, ref) in enumerate(zip(rows, reference)):
        ref = {index[t]: (-c if inversions(t) % 2 else c) for t, c in ref.items()}
        assert row in (ref, {i: -c for i, c in ref.items()}), k


class TestFunctorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec("K", 2, SYM, 2)
        with pytest.raises(ValueError):
            spec(H_FUNCTOR, 4, SYM, 2)

    def test_with_num_vars(self):
        s = spec(H_FUNCTOR, 2, SYM, 2)
        assert s.with_num_vars(5).hopf.num_vars == 5
        assert s.with_num_vars(5).functor == s.functor

    def test_keys_distinguish(self):
        keys = {
            spec(f, r, k, m).key()
            for f in (H_FUNCTOR, OMEGA_FUNCTOR)
            for r in (1, 2, 3)
            for k in (SYM, TENSOR)
            for m in (1, 2)
        }
        assert len(keys) == 24

    def test_highest_weight_keys(self):
        assert spec(H_FUNCTOR, 2, SYM, 2, hw=True).key() == "H|2|sym|2|hw"
        assert spec(H_FUNCTOR, 2, TENSOR, 2, hw=True).key() == "H|2|tensor|2|hw"
        assert spec(H_FUNCTOR, 2, TENSOR, 2, odd=True, hw=True).key() == "H|2|tensor|2|odd|hw"
        assert spec(H_FUNCTOR, 2, SYM, 2, hw=True).with_num_vars(3).highest_weight


class TestRankOne:
    def test_single_variable_sym_is_odd_part(self):
        s = spec(H_FUNCTOR, 1, SYM, 1)
        dims = [quotient_dim(s, (k,)) for k in range(8)]
        assert dims == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_functors_coincide(self):
        for kind in (SYM, TENSOR):
            a = spec(H_FUNCTOR, 1, kind, 2)
            b = spec(OMEGA_FUNCTOR, 1, kind, 2)
            for weight in [(1, 0), (1, 1), (2, 1), (2, 2)]:
                assert quotient_dim(a, weight) == quotient_dim(b, weight)

    def test_against_image_route(self):
        # the presentation quotient must agree with the rank difference
        # computed directly from the image of (id - antipode)
        cases = [
            (SYM, 1, [(k,) for k in range(7)]),
            (SYM, 2, [(2, 1), (2, 2), (3, 1), (4, 2)]),
            (TENSOR, 2, [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]),
            (TENSOR, 3, [(1, 1, 1), (2, 1, 1)]),
        ]
        for kind, m, weights in cases:
            H = HopfAlgebra(kind, m)
            s = FunctorSpec(H_FUNCTOR, 1, H)
            for weight in weights:
                assert quotient_dim(s, weight) == h1_dim(H, weight), (kind, weight)


class TestRankTwoBlocks:
    def test_finer_quotient_degree_four(self):
        s = spec(H_FUNCTOR, 2, SYM, 2)
        assert quotient_dim(s, (3, 1)) == 1
        assert quotient_dim(s, (2, 2)) == 1
        assert quotient_dim(s, (4, 0)) == 0

    def test_weight_permutation_invariance(self):
        for functor in (H_FUNCTOR, OMEGA_FUNCTOR):
            for kind in (SYM, TENSOR):
                s = spec(functor, 2, kind, 2)
                for weight in [(3, 1), (4, 2), (5, 1)]:
                    flipped = weight[::-1]
                    assert quotient_dim(s, weight) == quotient_dim(s, flipped)

    def test_coarser_contains_finer(self):
        # the coarser quotient imposes at most the relations of a
        # quotient of the finer one's source, so blockwise it can only
        # be larger or equal after degree 2
        s_h = spec(H_FUNCTOR, 2, SYM, 2)
        s_o = spec(OMEGA_FUNCTOR, 2, SYM, 2)
        for weight in [(3, 1), (4, 2), (5, 1), (6, 2), (4, 4)]:
            assert quotient_dim(s_o, weight) >= quotient_dim(s_h, weight)


class TestBlockResult:
    def test_fields(self):
        s = spec(H_FUNCTOR, 2, SYM, 2)
        res = compute_block(s, (3, 1))
        assert res.ambient_dim == len(relation_rows(s, (3, 1))[0])
        assert res.quotient_dim == res.ambient_dim - res.rank == 1


    def test_rows_reach_the_rank_in_generation_order(self, handed):
        s = spec(H_FUNCTOR, 2, TENSOR, 3)
        compute_block(s, (2, 1, 1))
        expected = []
        for row in relation_rows(s, (2, 1, 1))[1]:
            norm = normalized_row(row)
            if norm not in expected:
                expected.append(norm)
        assert handed == [expected]


def padded_partitions(max_degree, m):
    for degree in range(max_degree + 1):
        for lam in partitions_of(degree, m):
            yield tuple(lam) + (0,) * (m - len(lam))


def hw_blocks(functor):
    """Every HW block of Sym ranks 1-3 to degree 6, and of the tensor
    algebra at rank 2 to degree 5 and rank 3 to degree 4, over even and
    odd generators."""
    for rank in (1, 2, 3):
        for weight in padded_partitions(6, rank):
            yield spec(functor, rank, SYM, rank, hw=True), weight
    for rank, max_degree in ((2, 5), (3, 4)):
        for weight in weights(max_degree):
            for odd in (False, True):
                yield spec(functor, rank, TENSOR, len(weight), odd=odd, hw=True), weight


def lead_key(s, t):
    """The order the bideterminants lead in: lexicographic in the
    exponents of x_{0,0}, x_{0,1}, ...  Over the tensor algebra a larger
    monomial is a smaller word; cuts come first, as their tuples are
    apart."""
    if s.hopf.kind == SYM:
        return tuple(word.count(j) for word in t for j in range(s.hopf.num_vars))
    return tuple(map(len, t)), tuple(-x for word in t for x in word)


class TestHighestWeightBlocks:
    """The HW block at lam has the bideterminants of shape lam as its
    basis: over sym with the n slots as rows of the minors, over the
    tensor algebra with the d letter positions, one word cut every way
    into n slots.  The tests check that they are highest-weight vectors
    of weight lam with distinct diagonal leading monomials, as many as
    the block's columns, so a basis of the HW space."""

    @pytest.mark.parametrize("kind, n", [(SYM, 1), (SYM, 2), (SYM, 3), (TENSOR, 2), (TENSOR, 3)],
                             ids=["1", "2", "3", "tensor-2", "tensor-3"])
    def test_bideterminants_are_highest_weight_vectors(self, kind, n):
        for weight in padded_partitions(6, 3) if kind == SYM else weights(5):
            m = len(weight)
            lam = [p for p in weight if p]
            if kind == SYM:
                tableaux = semistandard_tableaux(lam, n)
                assert len(tableaux) == weyl_dim(lam, n)
                cuts = 1
            else:
                tableaux = standard_tableaux(lam)
                assert len(set(tableaux)) == len(tableaux)
                for tableau in tableaux:
                    assert sorted(sum(tableau, ())) == list(range(sum(lam)))
                    assert all(list(row) == sorted(row) for row in tableau)
                    assert all(a < b for upper, lower in zip(tableau, tableau[1:])
                               for a, b in zip(upper, lower))
                cuts = comb(sum(lam) + n - 1, n - 1)
            s = spec(H_FUNCTOR, n, kind, m, hw=True)
            assert cuts * len(tableaux) == block_cols(s, weight)
            basis, support = presentations._highest_weight_basis(s.hopf, n, weight)
            # the engine's vectors, regrouped from support, are the
            # reference expansion, cut by cut and tableau by tableau
            vectors = [{} for _ in basis]
            for t, coeffs in support.items():
                for i, x in coeffs:
                    vectors[i][t] = x
            assert vectors == hw_vectors(s, weight)
            for i, vector in enumerate(vectors):
                tableau = tableaux[i % len(tableaux)]
                for t in vector:
                    assert tuple(sum(word.count(j) for word in t) for j in range(m)) == weight
                # the raising operators sum_s x_{s,j} d/dx_{s,j+1} kill it:
                # each letter j + 1 in turn becomes j
                for j in range(m - 1):
                    raised = {}
                    for t, c in vector.items():
                        for a, word in enumerate(t):
                            for p, x in enumerate(word):
                                if x == j + 1:
                                    new = word[:p] + (j,) + word[p + 1:]
                                    if kind == SYM:
                                        new = tuple(sorted(new))
                                    key = t[:a] + (new,) + t[a + 1:]
                                    raised[key] = raised.get(key, 0) + c
                    assert not any(raised.values()), (tableau, j)
                # the leading tuple is the diagonal, with coefficient 1:
                # over sym slot s holds letter r once per s in row r of the
                # tableau, over the tensor algebra position p holds the row
                # of p, in the vector's cut
                lead = max(vector, key=lambda t: lead_key(s, t))
                if kind == SYM:
                    diagonal = tuple(tuple(r for r, row in enumerate(tableau)
                                           for _ in range(row.count(slot))) for slot in range(n))
                else:
                    row_of = {p: r for r, row in enumerate(tableau) for p in row}
                    word = tuple(row_of[p] for p in range(sum(lam)))
                    ends = [sum(map(len, lead[:a + 1])) for a in range(n)]
                    diagonal = tuple(word[end - len(w):end] for end, w in zip(ends, lead))
                assert lead == diagonal and vector[lead] == 1, (tableau, lead)
                assert basis[i] == lead
            assert len(set(basis)) == len(basis)

    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    def test_projection_keeps_the_rank(self, functor):
        """The kept columns are the leading tuples of the basis, on which
        the basis is unitriangular in lead order, and the projected rows
        have the rank of the rows over all of the block's tuples."""
        for s, weight in hw_blocks(functor):
            basis, _ = relation_rows(s, weight)
            vectors = hw_vectors(s, weight)
            by_lead = {max(vector, key=lambda t: lead_key(s, t)): vector for vector in vectors}
            assert len(by_lead) == len(vectors) and sorted(by_lead) == sorted(basis), (s.key(), weight)
            leads = sorted(by_lead, key=lambda t: lead_key(s, t), reverse=True)
            for i, lead in enumerate(leads):
                restricted = [by_lead[lead].get(other, 0) for other in leads]
                assert restricted[i] == 1 and not any(restricted[:i]), (s.key(), weight, lead)
            full = unprojected_hw_rows(s, weight)
            index = {t: i for i, t in enumerate({t for row in full for t in row})}
            expected = exactla.rank_sparse([{index[t]: c for t, c in row.items()} for row in full])
            assert compute_block(s, weight).rank == expected, (s.key(), weight)

    def test_rows_and_ambient(self):
        s = spec(OMEGA_FUNCTOR, 3, SYM, 3, hw=True)
        basis, rows = relation_rows(s, (4, 2, 0))
        assert len(basis) == weyl_dim((4, 2), 3) == 27
        result = compute_block(s, (4, 2, 0))
        assert result.ambient_dim == 27 and result.quotient_dim == 1

    def test_weight_must_be_a_partition(self):
        with pytest.raises(ValueError):
            relation_rows(spec(H_FUNCTOR, 2, SYM, 2, hw=True), (1, 3))

    def test_dependent_basis_is_refused(self, monkeypatch):
        # one tableau twice gives two vectors with one leading tuple
        tableaux = semistandard_tableaux((3, 1), 2)
        monkeypatch.setattr(presentations, "semistandard_tableaux",
                            lambda shape, n: tableaux + tableaux[:1])
        with pytest.raises(AssertionError, match="leading monomial"):
            relation_rows(spec(H_FUNCTOR, 2, SYM, 2, hw=True), (3, 1))


def _reblock(record, old, new):
    """The record with old replaced by new in the token of its block."""
    return {**record, "block": record["block"].replace(old, new)}


def _wrong_rank(record):
    """The record with rank 0, consistent in itself, so that accepting it
    would show."""
    return {**record, "rank": 0, "quotient_dim": record["ambient_dim"]}


# a record names its block by its cache token, e.g. "H|2|sym|2|3,1"
_MANGLES = {
    "list": lambda record: [record],
    "weight-int": lambda record: {**record, "block": 5},
    "other-weight": lambda record: _reblock(record, "|3,1", "|1,3"),
    "rank-str": lambda record: {**record, "rank": "x"},
    "rank-null": lambda record: {**record, "rank": None},
    "dim-float": lambda record: {**record, "ambient_dim": 4.0},
    "other-spec": lambda record: _wrong_rank(_reblock(record, "H|", "Omega|")),
    "spec-null": lambda record: _wrong_rank({**record, "block": None}),
    # well typed, but the numbers disagree with each other or the block
    "rank-above-dim": lambda record: {**record, "rank": record["ambient_dim"] + 3,
                                      "quotient_dim": -3},
    "rank-negative": lambda record: {**record, "rank": -1,
                                     "quotient_dim": record["ambient_dim"] + 1},
    "other-dim": lambda record: {**record, "ambient_dim": record["ambient_dim"] + 1,
                                 "rank": record["rank"] + 1},
    "other-quotient": lambda record: {**record, "rank": record["rank"] - 1},
}
# an HW record must also hold weyl_dim(lam, rank) columns, not the
# weight block's count, and say that it is an HW record
_HW_MANGLES = {
    # the weight block at (3, 1, 0) has 30 columns
    "hw-weight-block-dim": lambda record: {**record, "ambient_dim": 30,
                                           "rank": 30 - record["quotient_dim"]},
    "hw-not-marked": lambda record: _wrong_rank(_reblock(record, "|hw|", "|")),
    "hw-partition-reversed": lambda record: _reblock(record, "|3,1,0", "|0,1,3"),
}


class TestCaching:
    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    def test_block_cols_counts_the_basis(self, functor):
        # _read_record checks a record's ambient_dim against block_cols
        for s, weight in hw_blocks(functor):
            assert block_cols(s, weight) == len(relation_rows(s, weight)[0]), (s.key(), weight)

    @pytest.mark.parametrize("odd", [False, True])
    def test_tensor_hw_record_reads_back(self, clean_cache, tmp_path, odd):
        s, weight = spec(OMEGA_FUNCTOR, 2, TENSOR, 4, odd=odd, hw=True), (2, 1, 1, 0)
        first = block_result(s, weight, cache_dir=str(tmp_path))
        (path,) = tmp_path.iterdir()
        assert presentations._read_record(path, s, weight) == first
        # consistent in itself, but not the block's column count
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "ambient_dim": record["ambient_dim"] + 1,
                                    "quotient_dim": record["quotient_dim"] + 1}))
        assert presentations._read_record(path, s, weight) is None
        clean_cache()
        assert block_result(s, weight, cache_dir=str(tmp_path)) == first

    def test_disk_roundtrip(self, clean_cache, tmp_path, forbid):
        s = spec(H_FUNCTOR, 2, SYM, 2)
        first = block_result(s, (3, 1), cache_dir=str(tmp_path))
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].endswith(".json")
        record = json.loads((tmp_path / files[0]).read_text())
        assert record["quotient_dim"] == first.quotient_dim
        assert record["block"] == "H|2|sym|2|3,1"

        clean_cache()
        forbid(presentations, "compute_block", "should have come from disk")
        again = block_result(s, (3, 1), cache_dir=str(tmp_path))
        assert again == first

    def test_stale_version_recomputed(self, clean_cache, tmp_path):
        s = spec(H_FUNCTOR, 2, SYM, 2)
        block_result(s, (3, 1), cache_dir=str(tmp_path))
        path = tmp_path / os.listdir(tmp_path)[0]
        record = json.loads(path.read_text())
        record["engine_version_hash"] = "0" * 12
        record["rank"] = 12345
        path.write_text(json.dumps(record))
        clean_cache()
        fresh = block_result(s, (3, 1), cache_dir=str(tmp_path))
        assert fresh.rank != 12345

    def test_fingerprint_covers_the_engine(self):
        # a module the engine loads but the fingerprint skips would let
        # --cache-dir serve records computed by older code
        script = ("import sys, hopfquotients.decompose; "
                  "print(*(m for m in sys.modules if m.startswith('hopfquotients.')))")
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True).stdout
        loaded = {m.split(".", 1)[1] + ".py" for m in out.split()} - {"version.py"}
        assert "decompose.py" in loaded
        assert loaded <= set(version._CORE), loaded - set(version._CORE)

    @pytest.mark.parametrize(
        "mangle, hw",
        [(_MANGLES[name], False) for name in _MANGLES]
        + [(_MANGLES[name], True) for name in _MANGLES]
        + [(_HW_MANGLES[name], True) for name in _HW_MANGLES],
        ids=list(_MANGLES) + [f"hw-{name}" for name in _MANGLES] + list(_HW_MANGLES),
    )
    def test_malformed_record_is_a_miss(self, clean_cache, tmp_path, mangle, hw):
        s, weight = (spec(H_FUNCTOR, 3, SYM, 3, hw=True), (3, 1, 0)) if hw else (
            spec(H_FUNCTOR, 2, SYM, 2), (3, 1))
        first = block_result(s, weight, cache_dir=str(tmp_path))
        path = tmp_path / os.listdir(tmp_path)[0]
        path.write_text(json.dumps(mangle(json.loads(path.read_text()))))
        clean_cache()
        assert presentations._read_record(path, s, weight) is None
        assert block_result(s, weight, cache_dir=str(tmp_path)) == first

    def test_deeply_nested_record_is_a_miss(self, clean_cache, tmp_path):
        # json raises RecursionError, not ValueError, on such a file
        s, weight = spec(H_FUNCTOR, 2, SYM, 2), (3, 1)
        first = block_result(s, weight, cache_dir=str(tmp_path))
        path = tmp_path / os.listdir(tmp_path)[0]
        path.write_text("[" * 200000)
        clean_cache()
        assert presentations._read_record(path, s, weight) is None
        assert block_result(s, weight, cache_dir=str(tmp_path)) == first

    def test_highest_weight_and_weight_blocks_are_cached_apart(self, clean_cache, tmp_path):
        ordinary = spec(OMEGA_FUNCTOR, 3, SYM, 3)
        hw = spec(OMEGA_FUNCTOR, 3, SYM, 3, hw=True)
        weight = (4, 2, 0)
        tokens = [presentations._cache_token(kind, weight) for kind in (ordinary, hw)]
        assert tokens[0] != tokens[1]
        a = block_result(ordinary, weight, cache_dir=str(tmp_path))
        b = block_result(hw, weight, cache_dir=str(tmp_path))
        # so that answering one from the other's record would show
        assert (a.ambient_dim, a.quotient_dim) != (b.ambient_dim, b.quotient_dim)
        paths = [Path(presentations._cache_path(str(tmp_path), token)) for token in tokens]
        assert sorted(paths) == sorted(tmp_path.iterdir())
        assert presentations._read_record(paths[0], hw, weight) is None
        assert presentations._read_record(paths[1], ordinary, weight) is None

        # each file holding the other kind's record is a miss, then recomputed
        texts = [path.read_text() for path in paths]
        paths[0].write_text(texts[1])
        paths[1].write_text(texts[0])
        clean_cache()
        assert block_result(ordinary, weight, cache_dir=str(tmp_path)) == a
        assert block_result(hw, weight, cache_dir=str(tmp_path)) == b

    def test_sign_and_ordinary_blocks_are_cached_apart(self, clean_cache, tmp_path):
        ordinary = spec(OMEGA_FUNCTOR, 2, TENSOR, 4)
        sign = spec(OMEGA_FUNCTOR, 2, TENSOR, 4, odd=True)
        weight = (2, 1, 1, 0)
        tokens = [presentations._cache_token(kind, weight) for kind in (ordinary, sign)]
        assert tokens[0] != tokens[1]
        a = block_result(ordinary, weight, cache_dir=str(tmp_path))
        b = block_result(sign, weight, cache_dir=str(tmp_path))
        # so that answering one from the other's record would show
        assert a.quotient_dim != b.quotient_dim
        paths = [Path(presentations._cache_path(str(tmp_path), token)) for token in tokens]
        assert sorted(paths) == sorted(tmp_path.iterdir())
        assert presentations._read_record(paths[0], sign, weight) is None
        assert presentations._read_record(paths[1], ordinary, weight) is None

        # each file holding the other kind's record is a miss, then recomputed
        texts = [path.read_text() for path in paths]
        paths[0].write_text(texts[1])
        paths[1].write_text(texts[0])
        clean_cache()
        assert block_result(ordinary, weight, cache_dir=str(tmp_path)) == a
        assert block_result(sign, weight, cache_dir=str(tmp_path)) == b

    def test_sign_blocks_need_the_tensor_algebra(self):
        with pytest.raises(ValueError):
            HopfAlgebra(SYM, 3, odd=True)

    def test_memory_cache_hit(self):
        s = spec(H_FUNCTOR, 2, SYM, 2)
        a = block_result(s, (2, 2))
        b = block_result(s, (2, 2))
        assert a is b

    def test_failed_disk_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def full_disk(*a, **k):
            raise OSError("no space left on device")

        monkeypatch.setattr(presentations.json, "dump", full_disk)
        with pytest.raises(OSError, match="no space"):
            block_result(spec(H_FUNCTOR, 2, SYM, 2), (3, 1), cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_unusable_cache_dir_fails_before_computing(self, tmp_path, forbid):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        forbid(presentations, "compute_block", "computed before the cache_dir was checked")
        with pytest.raises(OSError):
            block_result(spec(H_FUNCTOR, 2, SYM, 2), (3, 1), cache_dir=str(not_a_dir))

    def test_unwritable_cache_dir_fails_before_computing(self, tmp_path, monkeypatch, forbid,
                                                         capsys):
        # root may write into a read-only directory, so refuse the record's
        # file the way such a directory would
        def read_only(*a, **k):
            raise PermissionError(13, "Permission denied", str(tmp_path))

        monkeypatch.setattr(presentations.tempfile, "mkstemp", read_only)
        forbid(presentations, "compute_block", "computed before the record could be written")
        with pytest.raises(OSError):
            block_result(spec(H_FUNCTOR, 2, SYM, 2), (3, 1), cache_dir=str(tmp_path))
        code = cli.main(["compute", "--functor", "H", "--rank", "2", "--hopf", "sym",
                         "--degree", "4", "--cache-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


def row_set_digest(s, weight, handed):
    """sha256 of the sorted set of normalized nonzero relation rows, as
    compute_block hands them to rank_sparse; handed is the fixture's
    list."""
    compute_block(s, weight)
    (rows,) = handed
    keys = sorted(tuple(sorted(row.items())) for row in rows)
    return hashlib.sha256(repr(keys).encode()).hexdigest()


def row_order_digest(s, weight):
    """sha256 of the relation rows, each as its sorted (column,
    coefficient) pairs, in the order they are generated, before
    normalization and dedup."""
    _, rows = relation_rows(s, weight)
    packed = [sorted(row.items()) for row in rows]
    return hashlib.sha256(repr(packed).encode()).hexdigest()


class TestConjugationDefectRows:
    """relation_rows imposes the conjugation defect as the word (('ad',),)
    over the block basis; its rows are the (v, t)-indexed reference rows,
    in the same order.  Over odd generators they are the reference rows
    of the multilinear block folded onto the sign block, up to the
    signs of assert_rows_match_up_to_signs."""

    @pytest.mark.parametrize("sign", [False, True])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rows_match_the_reference_in_order(self, rank, sign, monkeypatch):
        # with no relations in the table, only the defect's rows remain
        monkeypatch.setattr(presentations, "RELATIONS",
                            {key: () for key in presentations.RELATIONS})
        for weight in weights(4):
            s = spec(H_FUNCTOR, rank, TENSOR, len(weight), odd=sign)
            basis, rows = relation_rows(s, weight)
            if not sign:
                index = {t: i for i, t in enumerate(basis)}
                expected = [{index[t]: c for t, c in row.items()}
                            for row in bar_rows(s.hopf, rank, weight)]
                assert rows == expected, (rank, weight)
                continue
            even = HopfAlgebra(TENSOR, len(weight))
            standardize, fold = sign_fold(weight)
            folded = [fold(row) for row in bar_rows(even, rank, weight, standardize)]
            assert_rows_match_up_to_signs(basis, rows, [row for row in folded if row])

    @pytest.mark.parametrize("kind", [SYM, TENSOR])
    def test_applied_over_the_tensor_algebra_only(self, kind, record):
        # over sym the product commutes, so v * r_i - r_i * v is zero;
        # each call hands over all the block's sums at once
        handed = record(presentations, "apply_expr")
        relation_rows(spec(OMEGA_FUNCTOR, 3, kind, 3), (2, 1, 1))
        assert handed
        defect = adjoint(presentations._CONJUGATION_DEFECT)
        assert {defect in exprs for _, exprs, _, _ in handed} == {kind == TENSOR}


def all_blocks(functor):
    """Every weight, sign and HW block of Sym ranks 1-3 to degree 6, and
    of the tensor algebra at ranks 1-2 to degree 5 and rank 3 to degree
    4, over even and odd generators."""
    for rank in (1, 2, 3):
        for weight in padded_partitions(6, rank):
            for hw in (False, True):
                yield spec(functor, rank, SYM, rank, hw=hw), weight
    for rank, max_degree in ((1, 5), (2, 5), (3, 4)):
        for weight in weights(max_degree):
            for odd in (False, True):
                for hw in (False, True):
                    yield spec(functor, rank, TENSOR, len(weight), odd=odd, hw=hw), weight


class TestRowsFromColumns:
    """relation_rows builds each row entry from its column through the
    adjoint of the relation; on every block of all_blocks the rows
    equal, in order, those built by applying every relation to every
    vector, and the one apply_expr call per block, on the block's
    columns with the identity support over its weight block, gives,
    term for term, the images of the per-expression reference on every
    column."""

    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    def test_rows_match_the_forward_rows(self, functor, record):
        real = presentations.apply_expr
        # the sums and columns each block's rows were built from
        applied = record(presentations, "apply_expr")
        blocks = list(all_blocks(functor))
        assert len(blocks) == 292
        for s, weight in blocks:
            applied.clear()
            basis, rows = relation_rows(s, weight)
            assert rows == forward_rows(s, weight, basis), (s.key(), weight)
            # columns ascend within each row, as the rows go to rank_distinct
            assert all(list(row) == sorted(row) for row in rows), (s.key(), weight)
            stars = [adjoint(expr) for expr in block_relations(s, weight)]
            ((_, exprs, tuples, _),) = applied
            assert list(exprs) == stars
            assert list(tuples) == list(basis)
            # the whole images, regrouped column by column: vector i of
            # the identity support is tuple i of the weight block
            block = tensor_basis(replace(s.hopf, odd=False), s.rank, weight)
            identity = {t: ((i, 1),) for i, t in enumerate(block)}
            columns = [[{} for _ in stars] for _ in basis]
            for r, sums in enumerate(real(s.hopf, exprs, tuples, identity)):
                for i, cols in sums.items():
                    for j, c in cols.items():
                        if c:
                            columns[j][r][block[i]] = c
            for u, got in zip(basis, columns):
                want = [reference_apply_expr(s.hopf, star, u) for star in stars]
                assert got == want, (s.key(), weight, u)

    @pytest.mark.parametrize("hw", [False, True], ids=["weight", "hw"])
    @pytest.mark.parametrize("kind", [SYM, TENSOR])
    def test_words_that_cancel_across_nodes_give_no_row(self, kind, hw, monkeypatch):
        # the identity ends at the root of the word tree and swap01
        # twice two atoms below it; only the block drops their zero sums,
        # so the relation adds no row to those of the conjugation defect
        cancelled = ((1, (("swap", 0, 1), ("swap", 0, 1))), (-1, ()))
        s, weight = spec(H_FUNCTOR, 2, kind, 2, hw=hw), (2, 1)
        monkeypatch.setitem(presentations.RELATIONS, (H_FUNCTOR, 2, "none"), ())
        _, defect_rows = relation_rows(s, weight)
        monkeypatch.setitem(presentations.RELATIONS, (H_FUNCTOR, 2, "none"), (cancelled,))
        basis, rows = relation_rows(s, weight)
        assert basis and rows == defect_rows
        assert bool(rows) == (kind == TENSOR)


class TestSharedWordTree:
    """apply_expr applies a block's relations to all its columns in one
    walk of a prefix tree of all their words, so each atom runs once per
    distinct tuple that reaches its node, however many columns reach
    it, and adds each tuple a word reaches into the rows of the vectors
    that hold it."""

    def test_each_atom_runs_once_per_distinct_tuple(self, record, monkeypatch):
        s, weight = spec(H_FUNCTOR, 3, TENSOR, 3), (2, 1, 1)
        basis = tensor_basis(s.hopf, 3, weight)
        stars = [adjoint(expr) for expr in block_relations(s, weight)]
        # the tree's nodes: every nonempty prefix of a word
        nodes = {word[:k] for star in stars for _, word in star for k in range(1, len(word) + 1)}

        def reach(word, tuples):
            """The tuples the terms of word reach from tuples, whether
            or not their coefficients cancel."""
            for atom in word:
                tuples = {t2 for t in tuples for t2 in tensorspace.apply_atom(s.hopf, atom, t)}
            return tuples

        shared, per_column = Counter(), Counter()
        for node in nodes:
            *prefix, atom = node
            shared[atom] += len(reach(prefix, set(basis)))
            per_column[atom] += sum(len(reach(prefix, {u})) for u in basis)
        # E*, F* and ad* go through apply_atom, swap, S and U through
        # their kernels, which apply_atom does not reach in the walk
        applied = record(tensorspace, "apply_atom")
        kernel = tensorspace._kernel

        def counted(H, atom):
            real = kernel(H, atom)
            if real is None:
                return None

            def count(t):
                applied.append((H, atom, t))
                return real(t)

            return count

        monkeypatch.setattr(tensorspace, "_kernel", counted)
        relation_rows(s, weight)
        calls = Counter(atom for _, atom, _ in applied)
        assert calls == shared
        # only swaps come before E*, and they permute the block's tuples,
        # so E* still runs once per column at its one node
        assert [node for node in nodes if node[-1] == ("E*",)] == [(("swap", 1, 2), ("E*",))]
        assert calls[("E*",)] == per_column[("E*",)] == len(basis)
        # the atoms after a branch see tuples that many columns reach
        assert calls[("S", 0)] < per_column[("S", 0)]
        assert sum(calls.values()) < sum(per_column.values())

    def test_memoized_transposes_do_not_outlive_the_block(self):
        s = spec(H_FUNCTOR, 3, TENSOR, 3)
        s.hopf.coproduct_transpose((0,), (1,))
        assert _coproduct_transpose.cache_info().currsize > 0
        relation_rows(s, (2, 1, 1))
        assert _coproduct_transpose.cache_info().currsize == 0


class TestBlockGroups:
    """Inside block_group the blocks of one space, HW and check blocks at
    one weight alike, share one walk of their relations' words, and each
    still gets the rows a walk for it alone gives; the rows that wait for
    their block never outlive the group."""

    # the benchmark's cells, and rank-3 tensor degree 5
    @pytest.mark.parametrize("hopf, scope", [(TENSOR, ((2, range(6)), (3, range(6)))),
                                             (SYM, ((2, range(8)), (3, range(8))))])
    def test_group_rows_are_the_lone_rows(self, record, hopf, scope):
        walks = record(presentations, "apply_expr")
        groups = space_groups(hopf, scope)
        # some groups hold an HW block and a check block
        assert any(len({spec.highest_weight for spec, _ in group}) == 2 for group in groups)
        for group in groups:
            functors = [spec.functor for spec, _ in group]
            assert functors.count(H_FUNCTOR) == functors.count(OMEGA_FUNCTOR) >= 1
            walks.clear()
            with block_group(group):
                grouped = [relation_rows(*block) for block in group]
            # one walk, each distinct relation once
            ((_, walked, _, _),) = walks
            assert len(set(walked)) == len(walked)
            assert grouped == [relation_rows(*block) for block in group], group

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    def test_the_hook_group_walks_the_weight_basis_once(self, record, odd):
        # at the hook (3, 1) of rank-3 tensor degree 4 the ordinary check
        # joins the even HW block and the sign check the odd one
        hook = (3, 1, 0, 0)
        (group,) = [group for group in space_groups(TENSOR, ((3, [4]),))
                    if group[0][1] == hook and group[0][0].hopf.odd == odd]
        assert sorted((spec.functor, spec.highest_weight) for spec, _ in group) == [
            (H_FUNCTOR, False), (H_FUNCTOR, True), (OMEGA_FUNCTOR, False), (OMEGA_FUNCTOR, True)]
        walks = record(presentations, "apply_expr")
        with block_group(group):
            grouped = [relation_rows(*block) for block in group]
        ((_, _, columns, _),) = walks
        weight_basis = tensor_basis(HopfAlgebra(TENSOR, 4), 3, hook)
        assert list(columns) == list(weight_basis)
        # each HW block keeps the columns at its leading tuples
        for (s, _), (basis, _) in zip(group, grouped):
            if s.highest_weight:
                assert len(basis) < len(weight_basis) and set(basis) < set(weight_basis)
            else:
                assert basis == weight_basis

    def test_the_store_is_empty_after_a_group(self, monkeypatch):
        # the HW and the check blocks of both functors at the hook (2, 1)
        (group,) = [group for group in space_groups(TENSOR, ((3, [3]),))
                    if group[0][1] == (2, 1, 0) and not group[0][0].hopf.odd]
        assert len(group) == 4
        with block_group(group):
            block_result(*group[0])
            # the walk for the first block left the other blocks' rows
            assert set(presentations._GROUP_ROWS) == {
                presentations._cache_token(*block) for block in group[1:]}
            for block in group[1:]:
                block_result(*block)
            assert presentations._GROUP_ROWS == {}
        assert presentations._GROUP == presentations._GROUP_ROWS == {}

        presentations._MEM_CACHE.clear()

        def fail(rows):
            raise ArithmeticError("the first block's elimination fails")

        monkeypatch.setattr(presentations, "rank_distinct", fail)
        with pytest.raises(ArithmeticError):
            with block_group(group):
                block_result(*group[0])
        assert presentations._GROUP == presentations._GROUP_ROWS == {}

    def test_a_group_holds_one_space(self):
        first, last = space_groups(SYM, ((2, range(4)),))[-2:]
        assert first[0][1] != last[-1][1]
        with pytest.raises(ValueError):
            with block_group([first[0], last[-1]]):
                relation_rows(*first[0])


class TestSignBlockRows:
    """A weight block over odd generators is the sign block: its rows
    are those of the multilinear block of the even algebra, folded with
    the sign of the relabelling (reference_ops.sign_block_rows), in the
    same order, up to a sign per column and per row."""

    @pytest.mark.parametrize("functor", [H_FUNCTOR, OMEGA_FUNCTOR])
    def test_rows_match_the_fold_in_order(self, functor):
        for rank, max_degree in ((1, 5), (2, 5), (3, 4)):
            for weight in weights(max_degree):
                s = spec(functor, rank, TENSOR, len(weight), odd=True)
                basis, rows = relation_rows(s, weight)
                assert_rows_match_up_to_signs(basis, rows, sign_block_rows(s, weight))


class TestRowGolden:
    """One mid-size block per entry of RELATIONS and per hopf, at rank 3
    also under the reversed reading of the operator words: the digests
    pin every presentation's row set, so a changed relation shows here.
    The "none" entries run under general_reading(), so over Sym the H
    rank-3 ones pin the general presentation; the "even" and "odd" ones
    pin the rows the engine builds.  The order digests also pin the
    order of the rows, which sets the elimination's pivot path and
    cost."""

    @pytest.mark.parametrize(
        "functor, rank, kind, m, entry, weight, reverse, digest",
        [
            (H_FUNCTOR, 1, SYM, 2, "none", (4, 2), False,
             "f5e5441ac66855177e23ba6802804d05ca4f3a9487456a8a77d2f1369f176ae5"),
            (H_FUNCTOR, 1, TENSOR, 3, "none", (2, 1, 1), False,
             "c08fcc86e26a868519c5acb37b14d5831591e61a54dd8b1f00755266ec80ea09"),
            (H_FUNCTOR, 2, SYM, 2, "none", (4, 2), False,
             "181b07aa69d4ebb44fa678e788aa49cd2a6dc4cfc99769e3bebf9594786d1bef"),
            (H_FUNCTOR, 2, TENSOR, 3, "none", (2, 1, 1), False,
             "24a139d58d9d7432b674518f51885d657203fec02dc7559ad71a3d38183d0384"),
            (H_FUNCTOR, 3, SYM, 3, "none", (3, 2, 1), False,
             "6cd20f88bf9530f3530388aef0af35ccc892255f0755abe17b5d958fbfeedbf5"),
            (H_FUNCTOR, 3, SYM, 3, "none", (3, 2, 1), True,
             "3558a55d7f25a8d2d73a98fda73a523b1471b44b28cbbd3485f82a54989c74c7"),
            (H_FUNCTOR, 3, TENSOR, 3, "none", (2, 1, 1), False,
             "11536809e21aa382ad9ab602746c252d87d1394fa4a5bbd953d87fe21b1f6fb7"),
            (H_FUNCTOR, 3, TENSOR, 3, "none", (2, 1, 1), True,
             "7ecb57a7da481bc6c760557b4b59ae871d4f272d670bcac16a926720fc1f7e41"),
            (OMEGA_FUNCTOR, 1, SYM, 2, "none", (4, 2), False,
             "f5e5441ac66855177e23ba6802804d05ca4f3a9487456a8a77d2f1369f176ae5"),
            (OMEGA_FUNCTOR, 1, TENSOR, 3, "none", (2, 1, 1), False,
             "c08fcc86e26a868519c5acb37b14d5831591e61a54dd8b1f00755266ec80ea09"),
            (OMEGA_FUNCTOR, 2, SYM, 2, "none", (4, 2), False,
             "e0de6e5f09981e9bce62f527184344a0db9e07d1b29702441bd39775fd59bf18"),
            (OMEGA_FUNCTOR, 2, TENSOR, 3, "none", (2, 1, 1), False,
             "6717d6c953d579630eb3579d858e9aad529f984f852c3e24424b8e7bd5135670"),
            (OMEGA_FUNCTOR, 3, SYM, 3, "none", (3, 2, 1), False,
             "bcc6cf059583e43858abd3358086fb8c7d7ab1e166a13f30254e966cf7f5788d"),
            (OMEGA_FUNCTOR, 3, SYM, 3, "none", (3, 2, 1), True,
             "4412b4004462536d202bb34277f14542b64f17be78a2a23f5b0c644fcf17e0cb"),
            (OMEGA_FUNCTOR, 3, TENSOR, 3, "none", (2, 1, 1), False,
             "1bba887f2bafc5db598d289e18c7ef2c63e1dc379d6a157b46edc68e8b9fd0eb"),
            (OMEGA_FUNCTOR, 3, TENSOR, 3, "none", (2, 1, 1), True,
             "2b57522c0efeafd6c9927dd88512685353e428d6622b46d51f55748ae87cd1af"),
            (H_FUNCTOR, 3, SYM, 3, "even", (2, 2, 2), False,
             "e8c3f227d02a5da68964f6d694d690bc4180f24174cfe87c546e949140c6719f"),
            (H_FUNCTOR, 3, SYM, 3, "even", (2, 2, 2), True,
             "e8c3f227d02a5da68964f6d694d690bc4180f24174cfe87c546e949140c6719f"),
            (H_FUNCTOR, 3, SYM, 3, "odd", (3, 2, 2), False,
             "881ac610168c22ad380e0bd64baf0e2f4c4c252ad7f0bd193261e63b27f1d7f7"),
            (H_FUNCTOR, 3, SYM, 3, "odd", (3, 2, 2), True,
             "d942458d790d100c14de006118d1755dd418c6583a183164a9ee06dc03b374ee"),
        ],
    )
    def test_row_set_digest(self, functor, rank, kind, m, entry, weight, reverse, digest,
                            handed):
        with general_reading() if entry == "none" else nullcontext():
            with reversed_reading() if reverse else nullcontext():
                assert row_set_digest(spec(functor, rank, kind, m), weight, handed) == digest

    @pytest.mark.parametrize(
        "functor, rank, digest",
        [
            (H_FUNCTOR, 2, "8557901123e1312d5a8ca71832393a9db09f373141298f67f241f5286c1380a1"),
            (H_FUNCTOR, 3, "ddb4e1589bc08e89d45889537c04372a78218f3597ccdc9cf111fc09c7f9c6f9"),
            (OMEGA_FUNCTOR, 2, "cc4b7865ed3ce24a3f12dd98a337028847db99177b2ab62696b8dcac638b4e6b"),
            (OMEGA_FUNCTOR, 3, "a3a8a363ad93fc035ddff1e3961afacdc0e3a1bb6e59590a9c9dc35fd63bbcc7"),
        ],
    )
    def test_row_order_digest(self, functor, rank, digest):
        assert row_order_digest(spec(functor, rank, TENSOR, 3), (2, 1, 1)) == digest


class TestArithmeticGroupCohomology:
    def test_matches_modular_form_dimensions(self):
        for g in range(0, 26, 2):
            assert gl2_h1_dim(g, "even") == cusp_dim(g + 2), g
            assert gl2_h1_dim(g, "odd") == mf_dim(g + 2), g

    def test_odd_degree_vanishes(self):
        for g in range(1, 16, 2):
            assert gl2_h1_dim(g, "even") == 0
            assert gl2_h1_dim(g, "odd") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gl2_h1_dim(-2, "even")
        with pytest.raises(ValueError):
            gl2_h1_dim(4, "both")
