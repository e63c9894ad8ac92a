"""End-to-end acceptance checks.

Each test covers one shipped guarantee and reports a single
"[criterion NN] PASS/FAIL" line on the terminal, bypassing capture, so
a full run reads as a checklist.  Expected decompositions come from the
packaged expected-value table (data/paper-tables.json); closed-form
expectations come from combinatorics and tests/reference_dims.py.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import reference_ops as ref
from reference_dims import gl2_h1_dim, mf_dim, quotient_dim, rank_dense
from hopfquotients.combinatorics import (
    cusp_dim,
    omega2_sym_multiplicity,
    partitions_of,
)
from hopfquotients.decompose import decompose, verify_bounds
from hopfquotients.exactla import rank_sparse
from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra, add_into
from hopfquotients.presentations import (
    H_FUNCTOR,
    OMEGA_FUNCTOR,
    FunctorSpec,
    relation_rows,
)
from hopfquotients.tables import load_expected, verify_against
from hopfquotients.tensorspace import apply_expr, tensor_basis

JOBS = min(4, os.cpu_count() or 1)


@contextmanager
def criterion(capsys, n, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {n:02d}] FAIL  {label}", flush=True)
        raise
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"\n[criterion {n:02d}] PASS  {label}  ({elapsed:.1f}s)", flush=True)


def spec(functor, rank, kind, m=1):
    return FunctorSpec(functor, rank, HopfAlgebra(kind, m))


def entries_of(functor, rank, kind, degree, **kw):
    return decompose(spec(functor, rank, kind), degree, **kw).entries


def test_criterion_01_rank2_sym_table(capsys):
    with criterion(capsys, 1, "rank-2 sym columns match the published table, degrees 0-8"):
        start = time.monotonic()
        res = subprocess.run(
            [sys.executable, "-m", "hopfquotients", "verify",
             "--rank", "2", "--hopf", "sym", "--max-degree", "8"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stdout + res.stderr
        report = json.loads(res.stdout)
        assert report["checked"] == report["matches"] == 18
        assert report["mismatches"] == [] and report["new"] == []
        # zeros at odd degrees come along for free in those 18 entries
        for d in (1, 3, 5, 7):
            assert entries_of(H_FUNCTOR, 2, SYM, d) == {}
        assert time.monotonic() - start < 60


def test_criterion_02_rank2_tensor_table(capsys):
    with criterion(capsys, 2, "rank-2 tensor columns match for degrees 4-6, odd cell flagged"):
        start = time.monotonic()
        table = load_expected()
        report = verify_against(table, rank=2, hopf="tensor", max_degree=6, jobs=JOBS)
        assert report["mismatches"] == [], report["mismatches"]
        assert report["checked"] == report["matches"] == 14
        # the one cell printed twice in the source table is reported
        # with its computed value instead of being force-matched
        assert len(report["flagged"]) == 1
        flag = report["flagged"][0]
        assert (flag["functor"], flag["degree"], flag["partition"]) == ("Omega", 6, [6])
        assert flag["computed"] == 1
        big = entries_of(OMEGA_FUNCTOR, 2, TENSOR, 6, jobs=JOBS)
        assert big[(4, 2)] == 3 and big[(3, 2, 1)] == 3 and big[(5, 1)] == 2
        assert time.monotonic() - start < 600


def test_criterion_03_rank3_table(capsys):
    with criterion(capsys, 3, "rank-3 columns match: all four to degree 5, sym to degree 8"):
        start = time.monotonic()
        table = load_expected()
        sym_part = verify_against(table, rank=3, hopf="sym", max_degree=8, jobs=JOBS)
        assert sym_part["mismatches"] == [], sym_part["mismatches"]
        assert sym_part["checked"] == sym_part["matches"] == 18
        tensor_part = verify_against(table, rank=3, hopf="tensor", max_degree=5, jobs=JOBS)
        assert tensor_part["mismatches"] == [], tensor_part["mismatches"]
        assert tensor_part["checked"] == tensor_part["matches"] == 12
        assert entries_of(OMEGA_FUNCTOR, 3, SYM, 7, jobs=JOBS) == {
            (7,): 5,
            (6, 1): 8,
            (5, 2): 8,
            (5, 1, 1): 3,
            (4, 3): 5,
            (4, 2, 1): 4,
            (3, 3, 1): 1,
            (3, 2, 2): 1,
        }
        assert time.monotonic() - start < 1800


def test_criterion_04_rank2_sym_closed_form(capsys):
    with criterion(capsys, 4, "rank-2 coarser quotient of Sym equals its closed form, degrees <= 10"):
        for degree in range(11):
            computed = entries_of(OMEGA_FUNCTOR, 2, SYM, degree)
            expected = {}
            for lam in partitions_of(degree, 2):
                k, l = (tuple(lam) + (0, 0))[:2]
                mult = omega2_sym_multiplicity(k, l)
                if mult:
                    expected[lam] = mult
            assert computed == expected, (degree, computed, expected)


def test_criterion_05_single_variable_dims(capsys):
    with criterion(capsys, 5, "one-variable rank-2 coarser quotient has dims ceil(d/3)-1"):
        s = spec(OMEGA_FUNCTOR, 2, SYM, m=1)
        assert quotient_dim(s, (0,)) == 0
        for d in range(2, 17, 2):
            assert quotient_dim(s, (d,)) == -(-d // 3) - 1, d
        for d in range(1, 17, 2):
            assert quotient_dim(s, (d,)) == 0, d


def test_criterion_06_rank3_finer_bounds(capsys):
    with criterion(capsys, 6, "rank-3 finer multiplicities equal their bound in even degrees 4-8"):
        for degree in (4, 6, 8):
            report = verify_bounds(decompose(spec(H_FUNCTOR, 3, SYM), degree, jobs=JOBS))
            assert report["ok"]
            strict = [r for r in report["rows"] if r["relation"] != "="]
            assert strict == [], (degree, strict)


def test_criterion_07_rank3_coarser_bounds(capsys):
    with criterion(capsys, 7, "rank-3 coarser multiplicities respect bounds, equality at (6,2)"):
        reports = {
            degree: verify_bounds(decompose(spec(OMEGA_FUNCTOR, 3, SYM), degree, jobs=JOBS))
            for degree in (4, 6, 8)
        }
        for degree, report in reports.items():
            assert report["ok"], (degree, [r for r in report["rows"] if r["relation"] == "VIOLATION"])
        row62 = next(r for r in reports[8]["rows"] if r["partition"] == [6, 2])
        assert row62["bound"] == 2
        assert row62["relation"] == "="


def test_criterion_08_arithmetic_cohomology_oracle(capsys):
    with criterion(capsys, 8, "degree-one cohomology of GL2(Z) matches modular form dims"):
        for g in range(0, 21, 2):
            assert gl2_h1_dim(g, "even") == cusp_dim(g + 2), g
            assert gl2_h1_dim(g, "odd") == mf_dim(g + 2), g
        assert gl2_h1_dim(10, "even") == 1
        assert gl2_h1_dim(18, "even") == 1
        assert gl2_h1_dim(24, "even") == cusp_dim(26) == 1


def test_criterion_09_parity_specializations_and_convention(capsys):
    with criterion(capsys, 9, "parity presentations agree per weight; reversed composition does not"):
        # the engine's even and odd Sym presentations against the general one
        s = spec(H_FUNCTOR, 3, SYM, m=3)
        for degree in range(9):
            for lam in partitions_of(degree, 3):
                weight = tuple(lam) + (0,) * (3 - len(lam))
                with ref.general_reading():
                    general = quotient_dim(s, weight)
                assert general == quotient_dim(s, weight), weight
        # from different rows, in blocks of either parity
        for weight in ((2, 1, 0), (2, 2, 0)):
            with ref.general_reading():
                general = relation_rows(s, weight)[1]
            assert general != relation_rows(s, weight)[1], weight
        # the reversed reading of operator words breaks the table
        # reproduction already in degree 3
        table = load_expected()
        expected3 = {
            (e["functor"]): e["value"]["decomposition"]
            for e in table["entries"]
            if e["rank"] == 3 and e["hopf"] == "sym" and e["degree"] == 3
        }
        assert expected3["H"] == [{"partition": [2, 1], "mult": 1}]
        # the reading convention is about the general words
        with ref.general_reading():
            forward = decompose(spec(H_FUNCTOR, 3, SYM), 3).entries
            with ref.reversed_reading():
                backward = decompose(spec(H_FUNCTOR, 3, SYM), 3).entries
                backward_omega = decompose(spec(OMEGA_FUNCTOR, 3, SYM), 3).entries
        assert forward == {(2, 1): 1}
        assert backward != forward
        assert backward == {(3,): 1}
        assert backward_omega != {(2, 1): 1}


def test_criterion_10_property_suite(capsys):
    with criterion(capsys, 10, "axioms, operator identities, invariances, monotonicity"):
        # Hopf axioms, exhaustive to degree 5 over two variables
        for kind in (SYM, TENSOR):
            H = HopfAlgebra(kind, 2)
            elems = _elements(H, 5)
            for x in elems:
                pairs = {}
                for a, b, c in ref.coproduct(H, x):
                    add_into(pairs, (a, b), c)
                assert pairs == {(b, a): c for (a, b), c in pairs.items()}
                left = {}
                conv = {}
                for (a, b), c in pairs.items():
                    for u, v, d in ref.coproduct(H, a):
                        add_into(left, (u, v, b), c * d)
                    sign, sa = H.antipode(a)
                    add_into(conv, ref.product(H, sa, b), c * sign)
                right = {}
                for (a, b), c in pairs.items():
                    for u, v, d in ref.coproduct(H, b):
                        add_into(right, (a, u, v), c * d)
                assert left == right
                assert conv == ({(): 1} if not x else {})
                sign, sx = H.antipode(x)
                sign2, sxx = H.antipode(sx)
                assert (sign * sign2, sxx) == (1, x)
            for x in _elements(H, 2):
                for y in _elements(H, 2):
                    lhs = {}
                    for a, b, c in ref.coproduct(H, ref.product(H, x, y)):
                        add_into(lhs, (a, b), c)
                    rhs = {}
                    for a, b, c in ref.coproduct(H, x):
                        for u, v, d in ref.coproduct(H, y):
                            add_into(rhs, (ref.product(H, a, u), ref.product(H, b, v)), c * d)
                    assert lhs == rhs

        # operator identities on two-slot weight blocks
        for kind in (SYM, TENSOR):
            H = HopfAlgebra(kind, 2)
            for weight in [(2, 1), (2, 2)]:
                basis = tensor_basis(H, 2, weight)
                for t in basis:
                    for atom in [("tau",), ("delta",)]:
                        assert ref.apply_word(H, (atom, atom), t) == {t: 1}
                    assert ref.apply_word(H, (("gamma",),) * 3, t) == {t: 1}
                # the engine's swap squares to the identity on every column
                swap_twice = ((1, (("swap", 0, 1),) * 2),)
                identity = {t: ((j, 1),) for j, t in enumerate(basis)}
                sums = apply_expr(H, (swap_twice,), basis, identity)
                assert sums == {(j, 0): {j: 1} for j in range(len(basis))}

        # sparse and dense rank agree on real relation matrices
        for s, weight in [
            (spec(H_FUNCTOR, 2, SYM, m=2), (3, 1)),
            (spec(OMEGA_FUNCTOR, 2, TENSOR, m=2), (2, 2)),
            (spec(H_FUNCTOR, 3, SYM, m=3), (2, 1, 1)),
        ]:
            basis, rows = relation_rows(s, weight)
            assert rank_sparse(rows) == rank_dense(rows, len(basis))

        # weight-permutation invariance spot checks
        for s, weight, perm in [
            (spec(H_FUNCTOR, 2, SYM, m=2), (4, 2), (2, 4)),
            (spec(OMEGA_FUNCTOR, 2, TENSOR, m=2), (3, 1), (1, 3)),
            (spec(OMEGA_FUNCTOR, 3, SYM, m=3), (3, 1, 0), (0, 1, 3)),
        ]:
            assert quotient_dim(s, weight) == quotient_dim(s, perm)

        # coarser >= finer multiplicity by multiplicity
        pairs = [
            (2, SYM, range(0, 9)),
            (3, SYM, range(0, 7)),
            (2, TENSOR, range(0, 6)),
            (3, TENSOR, range(0, 5)),
        ]
        for rank, kind, degrees in pairs:
            for degree in degrees:
                finer = decompose(spec(H_FUNCTOR, rank, kind), degree, jobs=JOBS)
                coarser = decompose(spec(OMEGA_FUNCTOR, rank, kind), degree, jobs=JOBS)
                for lam, mult in finer.entries.items():
                    assert coarser.multiplicity(lam) >= mult, (rank, kind, degree, lam)


def _elements(H, max_deg):
    """Every basis word of length at most max_deg: the nondecreasing
    ones for sym, all of them for tensor."""
    from itertools import combinations_with_replacement, product as iproduct

    out = []
    for k in range(max_deg + 1):
        if H.kind == SYM:
            out.extend(combinations_with_replacement(range(H.num_vars), k))
        else:
            out.extend(iproduct(range(H.num_vars), repeat=k))
    return out
