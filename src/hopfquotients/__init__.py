"""Exact GL-decompositions of presented quotients of cocommutative
Hopf-algebra tensor powers."""
