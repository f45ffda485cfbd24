"""Aggregation semantics through the full stack."""

import pytest


class TestSimpleAggregates:
    def test_count_star_empty(self, db):
        assert db.query("MATCH (n) RETURN count(*)").scalar() == 0

    def test_count_expr_skips_null(self, social):
        # Robot has no age
        assert db_count(social, "MATCH (n) RETURN count(n.age)") == 5
        assert db_count(social, "MATCH (n) RETURN count(*)") == 6

    def test_sum_avg(self, social):
        assert social.query("MATCH (n:Person) RETURN sum(n.age)").scalar() == 158
        assert social.query("MATCH (n:Person) RETURN avg(n.age)").scalar() == pytest.approx(31.6)

    def test_sum_empty_is_zero(self, db):
        assert db.query("MATCH (n) RETURN sum(n.x)").scalar() == 0

    def test_avg_empty_is_null(self, db):
        assert db.query("MATCH (n) RETURN avg(n.x)").scalar() is None

    def test_min_max(self, social):
        assert social.query("MATCH (n:Person) RETURN min(n.age)").scalar() == 25
        assert social.query("MATCH (n:Person) RETURN max(n.age)").scalar() == 40

    def test_collect(self, social):
        got = social.query("MATCH (n:Person) RETURN collect(n.name)").scalar()
        assert sorted(got) == ["Ann", "Bo", "Cy", "Di", "Ed"]

    def test_collect_skips_nulls(self, social):
        got = social.query("MATCH (n) RETURN collect(n.age)").scalar()
        assert len(got) == 5


class TestGrouping:
    def test_group_by_key(self, social):
        rows = social.query(
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, count(b) ORDER BY a.name"
        ).rows
        assert rows == [("Ann", 2), ("Bo", 1), ("Cy", 1), ("Di", 1)]

    def test_group_key_is_entity(self, social):
        rows = social.query(
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN a, count(b)"
        ).rows
        assert len(rows) == 4

    def test_multiple_aggregates(self, social):
        row = social.query(
            "MATCH (n:Person) RETURN min(n.age), max(n.age), count(*)"
        ).rows[0]
        assert row == (25, 40, 5)

    def test_count_distinct(self, social):
        # 5 KNOWS edges but 4 distinct destinations
        assert social.query("MATCH ()-[:KNOWS]->(b) RETURN count(b)").scalar() == 5
        assert social.query("MATCH ()-[:KNOWS]->(b) RETURN count(DISTINCT b)").scalar() == 4

    def test_collect_distinct(self, social):
        got = social.query("MATCH ()-[:KNOWS]->(b) RETURN collect(DISTINCT b.name)").scalar()
        assert sorted(got) == ["Bo", "Cy", "Di", "Ed"]


class TestMixedExpressions:
    def test_aggregate_plus_constant(self, social):
        assert social.query("MATCH (n:Person) RETURN count(*) + 1").scalar() == 6

    def test_arithmetic_over_aggregates(self, social):
        got = social.query(
            "MATCH (n:Person) RETURN max(n.age) - min(n.age)"
        ).scalar()
        assert got == 15

    def test_implicit_group_key_in_mixed_expr(self, social):
        rows = social.query(
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.age + count(b) AS v ORDER BY v"
        ).column("v")
        # Ann 30+2, Bo 25+1, Cy 35+1, Di 28+1
        assert rows == [26, 29, 32, 36]

    def test_function_of_aggregate(self, social):
        got = social.query("MATCH (n:Person) RETURN toFloat(count(*))").scalar()
        assert got == 5.0

    def test_aggregate_of_expression(self, social):
        got = social.query("MATCH (n:Person) RETURN sum(n.age * 2)").scalar()
        assert got == 316

    @pytest.mark.parametrize("one", ["1", "$one"])
    def test_constant_beside_aggregate_on_empty_input(self, db, one):
        """A parameter next to an aggregate is a constant like a literal,
        not a grouping key: no input is one row, not zero groups."""
        q = f"MATCH (n:Nope) RETURN count(*) + {one} AS c, sum(n.x) * {one} AS s"
        assert db.query(q, {"one": 1}).rows == [(1, 0)]

    @pytest.mark.parametrize("one", ["1", "$one"])
    def test_constant_beside_aggregate_on_grouped_input(self, social, one):
        q = f"MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name AS a, count(b) + {one} AS c ORDER BY a"
        assert social.query(q, {"one": 1}).rows == [("Ann", 3), ("Bo", 2), ("Cy", 2), ("Di", 2)]


def db_count(db, q):
    return db.query(q).scalar()
