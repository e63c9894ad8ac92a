import multiprocessing

import pytest

from hopfquotients.hopf import SYM, TENSOR, HopfAlgebra
from hopfquotients.decompose import (
    Decomposition,
    InconsistentBlockTableError,
    VIOLATION,
    _check_reconstruction,
    decompose,
    default_num_vars,
    pad_weight,
    verify_bounds,
    weight_orbit_size,
)
from hopfquotients import presentations
from hopfquotients.presentations import H_FUNCTOR, OMEGA_FUNCTOR, FunctorSpec


def spec(functor, rank, kind):
    return FunctorSpec(functor, rank, HopfAlgebra(kind, 1))


class TestHelpers:
    def test_default_num_vars(self):
        assert default_num_vars(spec(H_FUNCTOR, 3, SYM), 7) == 3
        assert default_num_vars(spec(H_FUNCTOR, 2, TENSOR), 7) == 7
        assert default_num_vars(spec(H_FUNCTOR, 2, TENSOR), 0) == 1

    def test_pad_weight(self):
        assert pad_weight((2, 1), 4) == (2, 1, 0, 0)

    def test_weight_orbit_size(self):
        assert weight_orbit_size((2, 1), 3) == 6
        assert weight_orbit_size((2, 2), 3) == 3
        assert weight_orbit_size((1, 1, 1), 3) == 1
        assert weight_orbit_size((3,), 1) == 1


class TestKnownDecompositions:
    def test_finer_rank2_sym(self):
        assert decompose(spec(H_FUNCTOR, 2, SYM), 4).entries == {(3, 1): 1}
        assert decompose(spec(H_FUNCTOR, 2, SYM), 6).entries == {(5, 1): 1}
        assert decompose(spec(H_FUNCTOR, 2, SYM), 8).entries == {(7, 1): 1, (5, 3): 1}
        assert decompose(spec(H_FUNCTOR, 2, SYM), 5).entries == {}

    def test_coarser_rank2_sym(self):
        assert decompose(spec(OMEGA_FUNCTOR, 2, SYM), 6).entries == {
            (6,): 1,
            (5, 1): 2,
            (4, 2): 1,
        }

    def test_finer_rank3_sym(self):
        assert decompose(spec(H_FUNCTOR, 3, SYM), 3).entries == {(2, 1): 1}
        assert decompose(spec(H_FUNCTOR, 3, SYM), 4).entries == {}
        assert decompose(spec(H_FUNCTOR, 3, SYM), 5).entries == {(4, 1): 1, (3, 2): 1}
        assert decompose(spec(H_FUNCTOR, 3, SYM), 6).entries == {(4, 2): 1}

    def test_coarser_rank3_sym(self):
        assert decompose(spec(OMEGA_FUNCTOR, 3, SYM), 4).entries == {
            (4,): 1,
            (3, 1): 1,
        }
        assert decompose(spec(OMEGA_FUNCTOR, 3, SYM), 5).entries == {
            (5,): 2,
            (4, 1): 3,
            (3, 2): 3,
            (3, 1, 1): 1,
            (2, 2, 1): 1,
        }

    def test_rank3_tensor(self):
        assert decompose(spec(H_FUNCTOR, 3, TENSOR), 4).entries == {(1, 1, 1, 1): 1}
        assert decompose(spec(OMEGA_FUNCTOR, 3, TENSOR), 4).entries == {
            (4,): 1,
            (3, 1): 1,
            (2, 1, 1): 1,
            (1, 1, 1, 1): 1,
        }

    def test_rank2_tensor(self):
        assert decompose(spec(H_FUNCTOR, 2, TENSOR), 4).entries == {(3, 1): 1}
        assert decompose(spec(OMEGA_FUNCTOR, 2, TENSOR), 4).entries == {
            (4,): 1,
            (3, 1): 1,
        }


class TestDecompositionShape:
    def test_entries_are_partitions_of_degree(self):
        dec = decompose(spec(OMEGA_FUNCTOR, 3, SYM), 5)
        for lam, mult in dec.entries.items():
            assert mult > 0
            assert sum(lam) == 5
            assert len(lam) <= dec.num_vars
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))

    def test_multiplicity_lookup(self):
        dec = decompose(spec(H_FUNCTOR, 2, SYM), 8)
        assert dec.multiplicity((7, 1)) == 1
        assert dec.multiplicity([7, 1]) == 1
        assert dec.multiplicity((4, 4)) == 0

    def test_stability_in_extra_variables(self):
        cases = [
            (spec(H_FUNCTOR, 2, SYM), 6),
            (spec(OMEGA_FUNCTOR, 2, SYM), 6),
            (spec(H_FUNCTOR, 3, SYM), 5),
            (spec(H_FUNCTOR, 2, TENSOR), 4),
        ]
        for s, degree in cases:
            base = decompose(s, degree)
            wider = decompose(s, degree, num_vars=base.num_vars + 1)
            assert wider.entries == base.entries

    def test_total_dim_tracks_blocks(self):
        dec = decompose(spec(OMEGA_FUNCTOR, 2, SYM), 6)
        assert dec.total_dim() == dec.summed_block_dims()
        assert dec.total_dim(dec.num_vars) == dec.total_dim()
        # one-variable total only sees one-row pieces
        assert dec.total_dim(1) == dec.multiplicity((6,))

    def test_jobs_do_not_change_anything(self):
        s = spec(OMEGA_FUNCTOR, 2, SYM)
        serial = decompose(s, 5, jobs=1)
        parallel = decompose(s, 5, jobs=2)
        assert serial.entries == parallel.entries
        assert serial.weight_dims == parallel.weight_dims

    def test_pool_results_reach_the_parent_cache(self, monkeypatch):
        presentations._MEM_CACHE.clear()
        s = spec(H_FUNCTOR, 2, TENSOR)
        first = decompose(s, 4, jobs=2)

        def boom(*a, **k):
            raise AssertionError("should have come from the memory cache")

        monkeypatch.setattr(presentations, "compute_block", boom)
        again = decompose(s, 4, jobs=2)
        assert again.weight_dims == first.weight_dims

        def no_pool(*a, **k):
            raise AssertionError("every block is cached; no pool needed")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        third = decompose(s, 4, jobs=2)
        assert third.weight_dims == first.weight_dims

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            decompose(spec(H_FUNCTOR, 2, SYM), -1)

    def test_degree_zero(self):
        dec = decompose(spec(H_FUNCTOR, 2, SYM), 0)
        assert dec.entries == {}


class TestReconstructionGuard:
    def test_doctored_table_rejected(self):
        dec = decompose(spec(H_FUNCTOR, 2, SYM), 4)
        broken = Decomposition(
            dec.spec, dec.degree, dict(dec.entries), dict(dec.weight_dims)
        )
        broken.weight_dims[(4, 0)] = 17
        with pytest.raises(InconsistentBlockTableError):
            _check_reconstruction(broken)

    def test_error_carries_table(self):
        try:
            raise InconsistentBlockTableError("boom", {(1,): 2})
        except InconsistentBlockTableError as err:
            assert err.table == {(1,): 2}


class TestBounds:
    def test_coarser_rank2_equalities(self):
        report = verify_bounds(decompose(spec(OMEGA_FUNCTOR, 2, SYM), 6))
        assert report.ok
        assert {row.relation for row in report.rows} == {"="}
        by_part = {row.partition: row for row in report.rows}
        assert by_part[(5, 1)].computed == by_part[(5, 1)].bound == 2
        assert by_part[(3, 3)].computed == 0

    def test_finer_rank3_equalities(self):
        report = verify_bounds(decompose(spec(H_FUNCTOR, 3, SYM), 6))
        assert report.ok
        assert all(row.relation == "=" for row in report.rows)

    def test_strict_rows_marked(self):
        # coarser rank-3 in odd degree exceeds its bound somewhere
        report = verify_bounds(decompose(spec(OMEGA_FUNCTOR, 3, SYM), 5))
        assert report.ok
        assert any(row.relation == ">" for row in report.rows)

    def test_violation_label_exists(self):
        assert VIOLATION == "VIOLATION"

    def test_tensor_not_covered(self):
        dec = decompose(spec(H_FUNCTOR, 2, TENSOR), 4)
        with pytest.raises(ValueError):
            verify_bounds(dec)

    def test_rank1_not_covered(self):
        dec = decompose(spec(H_FUNCTOR, 1, SYM), 3)
        with pytest.raises(ValueError):
            verify_bounds(dec)
