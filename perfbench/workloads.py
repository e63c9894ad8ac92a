"""The benchmark's workloads; BENCHMARK.json says why each was chosen.
Their cells are fixed: nothing in them is random, and the seed a run is
given never changes them.

A session is kept to 2-4 s so that one run holds about ten of them and
its median steps over the host's slow bursts; the rank-3 tensor degree-5
cells (26-30 s for the pair) would make a run a single sample."""

from __future__ import annotations

from dataclasses import dataclass


def _cells(hopf: str, scope) -> tuple:
    return tuple((f, rank, hopf, d) for f in ("H", "Omega") for rank, top in scope
                 for d in range(top + 1))


@dataclass(frozen=True)
class Workload:
    hopf: str
    # (rank, max_degree) pairs; one verify_against call each, in order
    scope: tuple
    jobs: int
    # a cell decomposed once more in the same process after the verify,
    # as the tensor acceptance tests do
    repeat: tuple | None
    # cold verify against a fresh --cache-dir, then a warm CLI pass on it
    disk_cache: bool

    @property
    def cells(self) -> tuple:
        return _cells(self.hopf, self.scope)

    def verify_calls(self) -> list:
        """verify_against keyword arguments, one dict per call: a single
        call when every rank goes to the same degree, else one per rank."""
        tops = {top for _, top in self.scope}
        if len(tops) == 1:
            return [{"hopf": self.hopf, "max_degree": tops.pop(), "jobs": self.jobs}]
        return [{"hopf": self.hopf, "rank": rank, "max_degree": top, "jobs": self.jobs}
                for rank, top in self.scope]

    def cli_args(self) -> list:
        """The warm pass: `hopfquotients verify` over the same cells."""
        (kwargs,) = self.verify_calls()
        return ["verify", "--hopf", self.hopf, "--max-degree", str(kwargs["max_degree"])]


TENSOR_SCOPE = ((2, 5), (3, 4))

WORKLOADS = {
    "tensor-serial": Workload(
        hopf="tensor", scope=TENSOR_SCOPE, jobs=1,
        repeat=("Omega", 2, "tensor", 5), disk_cache=False,
    ),
    "tensor-jobs2": Workload(
        hopf="tensor", scope=TENSOR_SCOPE, jobs=2,
        repeat=("Omega", 2, "tensor", 5), disk_cache=False,
    ),
    "sym-sweep": Workload(
        hopf="sym", scope=((2, 7), (3, 7)), jobs=1,
        repeat=None, disk_cache=True,
    ),
}
