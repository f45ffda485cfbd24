"""Edge cases of the ``CYPHER k=v ...`` parameter-prefix parser, plus the
module-level wiring it feeds: RO_QUERY's single shared compile, EXPLAIN
parameter threading, and GRAPH.CONFIG."""

import pytest

from repro.errors import ResponseError
from repro.graph.config import GraphConfig
from repro.rediskv.graph_module import GraphModule, parse_cypher_params
from repro.rediskv.keyspace import Keyspace


class TestParsePrefix:
    def test_no_prefix_passthrough(self):
        assert parse_cypher_params("MATCH (n) RETURN n") == ("MATCH (n) RETURN n", {})

    def test_empty_query_string(self):
        assert parse_cypher_params("") == ("", {})

    def test_whitespace_only(self):
        assert parse_cypher_params("   ") == ("   ", {})

    def test_cypher_word_without_space_is_query_text(self):
        # "CYPHER" alone (no trailing space) is not a parameter prefix
        assert parse_cypher_params("CYPHER") == ("CYPHER", {})

    def test_cypher_prefix_with_no_pairs(self):
        text, params = parse_cypher_params("CYPHER MATCH (n) RETURN n")
        assert text == "MATCH (n) RETURN n"
        assert params == {}

    def test_case_insensitive_prefix(self):
        text, params = parse_cypher_params("cypher a=1 RETURN $a")
        assert text == "RETURN $a"
        assert params == {"a": 1}

    def test_scalar_types(self):
        text, params = parse_cypher_params(
            "CYPHER i=7 f=2.5 t=true fa=false nil=null s=plain RETURN 1"
        )
        assert params == {"i": 7, "f": 2.5, "t": True, "fa": False, "nil": None, "s": "plain"}
        assert text == "RETURN 1"

    def test_negative_and_float_tokens(self):
        _, params = parse_cypher_params("CYPHER a=-3 b=-2.25 c=1e3 RETURN 1")
        assert params == {"a": -3, "b": -2.25, "c": 1000.0}

    def test_quoted_strings_with_spaces(self):
        _, params = parse_cypher_params("CYPHER name='Ann Lee' RETURN $name")
        assert params == {"name": "Ann Lee"}

    def test_escaped_quotes(self):
        _, params = parse_cypher_params("CYPHER s='it\\'s' RETURN 1")
        assert params["s"] == "it's"
        _, params = parse_cypher_params('CYPHER d="a \\" b" RETURN 1')
        assert params["d"] == 'a " b'

    def test_list_values(self):
        _, params = parse_cypher_params("CYPHER xs=[1, 2, 3] RETURN $xs")
        assert params == {"xs": [1, 2, 3]}

    def test_nested_lists(self):
        _, params = parse_cypher_params("CYPHER xs=[[1, 2], [3], []] RETURN $xs")
        assert params == {"xs": [[1, 2], [3], []]}

    def test_mixed_list(self):
        _, params = parse_cypher_params("CYPHER xs=[1, 'two', true, null, -4.5] RETURN $xs")
        assert params == {"xs": [1, "two", True, None, -4.5]}

    def test_query_text_preserved_verbatim(self):
        text, _ = parse_cypher_params("CYPHER a=1 MATCH (n {k: 'CYPHER b=2'}) RETURN n")
        assert text == "MATCH (n {k: 'CYPHER b=2'}) RETURN n"

    def test_map_values(self):
        text, params = parse_cypher_params("CYPHER a={k: 1} RETURN $a")
        assert (text, params) == ("RETURN $a", {"a": {"k": 1}})

    def test_nested_maps_and_lists(self):
        text, params = parse_cypher_params(
            "CYPHER m={k: {j: [1, 'x y', {z: null}]}, 'q r': -2.5, e: {}} n=[{a: true}, []] RETURN $m"
        )
        assert text == "RETURN $m"
        assert params == {
            "m": {"k": {"j": [1, "x y", {"z": None}]}, "q r": -2.5, "e": {}},
            "n": [{"a": True}, []],
        }

    def test_any_whitespace_separates_list_items(self):
        _, params = parse_cypher_params("CYPHER xs=[1,\t2\n, 3] RETURN $xs")
        assert params == {"xs": [1, 2, 3]}

    @pytest.mark.parametrize(
        "query,problem",
        [
            ("CYPHER a='x MATCH (n) RETURN n", "unterminated string"),
            ('CYPHER a=1 b="x RETURN $a', "unterminated string"),
            ("CYPHER a=[1, 2 RETURN 1", "unterminated list"),
            ("CYPHER a=[1, 'x] RETURN 1", "unterminated string"),
            ("CYPHER a={k: 1", "unterminated map"),
            ("CYPHER a={k:", "unterminated map"),
            ("CYPHER a={k 1} RETURN 1", "map entries are key: value"),
            ("CYPHER a=[}] RETURN 1", "unexpected '}'"),
        ],
    )
    def test_unterminated_values_name_the_parameter(self, query, problem):
        name = "b" if "b=" in query else "a"
        with pytest.raises(ResponseError, match=f"query parameter '{name}': {problem}"):
            parse_cypher_params(query)


@pytest.fixture
def module():
    return GraphModule(Keyspace(), GraphConfig(node_capacity=32))


class TestModuleWiring:
    def test_ro_query_compiles_once_and_caches(self, module):
        module.query("g", "CREATE (:X {v: 1})")
        db = module.keyspace.get_graph("g")
        base = db.engine.plan_cache.info()
        module.ro_query("g", "MATCH (n:X) RETURN n.v")
        after_one = db.engine.plan_cache.info()
        # exactly ONE compile for the write-check + execution combined
        assert after_one["misses"] == base["misses"] + 1
        assert after_one["hits"] == base["hits"]
        module.ro_query("g", "MATCH (n:X) RETURN n.v")
        after_two = db.engine.plan_cache.info()
        assert after_two["misses"] == after_one["misses"]
        assert after_two["hits"] == after_one["hits"] + 1

    def test_ro_query_reply_reports_cached(self, module):
        module.query("g", "CREATE (:X)")
        module.ro_query("g", "MATCH (n:X) RETURN n")
        reply = module.ro_query("g", "MATCH (n:X) RETURN n")
        assert any("Cached execution: 1" in s for s in reply[2])

    def test_ro_query_still_rejects_writes(self, module):
        module.query("g", "CREATE (:X)")
        with pytest.raises(ResponseError, match="read-only"):
            module.ro_query("g", "CREATE (:Y)")

    def test_map_param_round_trip(self, module):
        reply = module.query("g", "CYPHER a={k: 1, s: 'x'} RETURN $a AS a, $a.k AS k")
        assert reply[:2] == [["a", "k"], [[[["k", 1], ["s", "x"]], 1]]]

    def test_unterminated_param_is_an_error_reply(self, module):
        with pytest.raises(ResponseError, match="query parameter 'a'"):
            module.query("g", "CYPHER a='oops CREATE (:Nope)")
        assert module.keyspace.get_graph("g") is None  # nothing ran

    def test_explain_threads_params(self, module):
        module.query("g", "CREATE (:X {v: 1})")
        lines = module.explain("g", "CYPHER v=1 MATCH (n:X {v: $v}) RETURN n")
        assert any("NodeByLabelScan" in l for l in lines)

    def test_explain_rejects_missing_param(self, module):
        module.query("g", "CREATE (:X)")
        with pytest.raises(Exception, match="missing query parameter"):
            module.explain("g", "CYPHER v=1 MATCH (n:X {v: $v}) RETURN n.a + $other")

    def test_config_get(self, module):
        name, value = module.config_get("PLAN_CACHE_SIZE")
        assert name == "PLAN_CACHE_SIZE"
        assert value == module.config.plan_cache_size
        everything = module.config_get("*")
        assert ["PLAN_CACHE_SIZE", value] in everything

    def test_config_get_unknown(self, module):
        with pytest.raises(ResponseError, match="Unknown configuration"):
            module.config_get("NOPE")

    def test_config_set_plan_cache_size_applies_to_live_graphs(self, module):
        module.query("g", "CREATE (:X)")
        module.query("g", "MATCH (n:X) RETURN n")
        db = module.keyspace.get_graph("g")
        assert module.config_set("PLAN_CACHE_SIZE", "0") == "OK"
        assert db.engine.plan_cache.capacity == 0
        reply = module.query("g", "MATCH (n:X) RETURN n")
        assert any("Cached execution: 0" in s for s in reply[2])

    def test_config_set_rejects_bad_values(self, module):
        with pytest.raises(ResponseError):
            module.config_set("PLAN_CACHE_SIZE", "abc")
        with pytest.raises(ResponseError):
            module.config_set("PLAN_CACHE_SIZE", "-1")
        with pytest.raises(ResponseError, match="not settable"):
            module.config_set("THREAD_COUNT", "4")
