"""Regression tests for the join program on hand-built query shapes.

Acyclic fixtures (paths, stars, self-joins, cartesian products) and cyclic
ones (triangles, squares) must all give the brute-force answer, and a
program passed in explicitly must run with its own slot layout.
"""

import pytest

from strategies import brute_force

from repro.query.compiler import compile_query
from repro.query.evaluator import QueryEvaluator
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

SCHEMA = DatabaseSchema(
    [
        RelationSchema("R", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("S", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema("T", [Attribute("a", int), Attribute("b", int)]),
        RelationSchema(
            "H", [Attribute("a", int), Attribute("b", int), Attribute("c", int)]
        ),
    ]
)

PATH = parse_query("Q(A, D) :- R(A, B), S(B, C), T(C, D)")
STAR = parse_query("Q(A, B, C) :- H(A, B, C), R(A, X), S(B, Y), T(C, Z)")
TRIANGLE = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(Z, X)")
SQUARE = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(Z, W), R(W, X)")
COVERED_TRIANGLE = parse_query("Q(X) :- R(X, Y), S(Y, Z), T(Z, X), H(X, Y, Z)")
SELF_JOIN_PATH = parse_query("Q(X, Z) :- R(X, Y), R(Y, Z)")
CARTESIAN = parse_query("Q(X, Z) :- R(X, Y), S(Z, W)")


@pytest.fixture
def db():
    database = Database(SCHEMA)
    for name in ("R", "S", "T"):
        database.insert_many(name, [(i % 4, (i + 1) % 4) for i in range(8)])
    database.insert_many("H", [(i % 4, (i + 1) % 4, (i + 2) % 4) for i in range(8)])
    return database


class TestCorrectnessOfFallbacks:
    @pytest.mark.parametrize(
        "query",
        [PATH, STAR, TRIANGLE, SQUARE, COVERED_TRIANGLE, SELF_JOIN_PATH, CARTESIAN],
    )
    def test_every_strategy_matches_brute_force(self, db, query):
        reference = brute_force(query, db)
        assert QueryEvaluator(db).evaluate(query).rows == reference
        assert QueryEvaluator(db, use_indexes=False).evaluate(query).rows == reference


class TestStaleReductionRegression:
    def test_explicit_program_never_pairs_with_a_stale_reduction(self):
        """A caller-passed program must be executed with its own
        variable→slot layout — not that of an older compile whose atom order
        differs (frames would project wrongly)."""
        query = parse_query("Q(X, Z) :- R(X, Y), S(Y, Z)")
        database = Database(SCHEMA)
        database.insert_many("R", [(1, 2)])
        database.insert_many("S", [(2, 3), (2, 4), (5, 6)])
        evaluator = QueryEvaluator(database)
        first = evaluator.evaluate_with_bindings(query)
        assert set(first) == {(1, 3), (1, 4)}
        # Drift the cardinalities so a fresh compile orders the atoms (and
        # hence assigns slots) differently, and pass that program explicitly.
        database.insert_many("R", [(i, i) for i in range(10, 20)])
        relations = {name: database.relation(name) for name in ("R", "S")}
        recompiled = compile_query(query, relations)
        again = evaluator.evaluate_with_bindings(query, program=recompiled)
        assert set(again) == {(1, 3), (1, 4)}
