"""Grammar factory: parameter vectors, lexicon construction, deduplication."""

import pytest
from hypothesis import given, strategies as st

from alforge.categories import format_category, parse_category
from alforge.grammars import (
    BASE_ORDERS,
    LEXICAL_CLASSES,
    base_order_of,
    build_grammar,
    check_params,
    enumerate_grammars,
    grammar_by_id,
    grammar_to_text,
)

ENGLISH_LEXICON = {
    "NP": "NP",
    "SUBJ": "NP_SUBJ\\,NP",
    "OBJ": "NP_OBJ\\,NP",
    "ADJ": "NP/,NP",
    "VT": "(S\\NP_SUBJ)/NP_OBJ",
    "VI": "S\\NP_SUBJ",
    "VCOMP": "(S\\NP_SUBJ)/SCOMP",
    "COMP": "SCOMP/S",
    "PREP": "(NP/NP)\\NP",
    "REL": "(NP_SUBJ\\NP_SUBJ)/(S/NP_OBJ)",
    "CONJ": "(var\\.,@var)/.,@var",
}

bits = st.text(alphabet="01", min_size=7, max_size=7)


class TestParams:
    def test_validation(self):
        assert check_params("0101101") == "0101101"
        for bad in ("", "010110", "01011011", "0101102"):
            with pytest.raises(ValueError):
                check_params(bad)

    def test_base_orders(self):
        assert base_order_of(0, 1, 0) == "SVO"
        assert base_order_of(0, 1, 1) == "SVO"
        assert base_order_of(1, 0, 0) == "OVS"
        assert base_order_of(0, 0, 0) == "SOV"
        assert base_order_of(0, 0, 1) == "OSV"
        assert base_order_of(1, 1, 0) == "VSO"
        assert base_order_of(1, 1, 1) == "VOS"


class TestFactory:
    def test_english_lexicon(self):
        g = build_grammar("0101101")
        got = {cls: format_category(cat) for cls, cat in g.lexicon}
        assert got == ENGLISH_LEXICON

    def test_class_inventory(self):
        g = build_grammar("0000000")
        assert tuple(cls for cls, _ in g.lexicon) == LEXICAL_CLASSES

    def test_object_nesting_verb_final(self):
        sov = build_grammar("0000000")
        osv = build_grammar("0010000")
        assert format_category(sov.category("VT")) == "(S\\NP_SUBJ)\\NP_OBJ"
        assert format_category(osv.category("VT")) == "(S\\NP_OBJ)\\NP_SUBJ"

    def test_object_nesting_verb_initial(self):
        vso = build_grammar("1100000")
        vos = build_grammar("1110000")
        assert format_category(vso.category("VT")) == "(S/NP_OBJ)/NP_SUBJ"
        assert format_category(vos.category("VT")) == "(S/NP_SUBJ)/NP_OBJ"

    def test_permutation_policy_by_order(self):
        assert build_grammar("0101101").policy is None
        assert build_grammar("1100000").policy is None
        for params in ("0000000", "0010000", "1110000", "1000000"):
            assert build_grammar(params).policy is not None
        # The parser gates permutation by the policy category and
        # ``grammatical_sequences`` by the class label "REL": one decision,
        # because the policy is the REL lexical entry itself.
        gated = [g for g in enumerate_grammars() if g.base_order in ("SOV", "OSV", "VOS", "OVS")]
        assert len(gated) == 64
        for g in enumerate_grammars():
            assert g.policy is (g.category("REL") if g in gated else None), g.params

    @given(bits)
    def test_markers_always_identical(self, params):
        g = build_grammar(params)
        assert format_category(g.category("SUBJ")) == "NP_SUBJ\\,NP"
        assert format_category(g.category("OBJ")) == "NP_OBJ\\,NP"


class TestEnumeration:
    def test_count(self):
        assert len(enumerate_grammars()) == 96

    def test_sixteen_per_base_order(self):
        counts = {}
        for g in enumerate_grammars():
            counts[g.base_order] = counts.get(g.base_order, 0) + 1
        assert counts == {order: 16 for order in BASE_ORDERS}

    def test_alias_resolution(self):
        canonical = grammar_by_id("0101101")
        alias = grammar_by_id("0111101")
        assert canonical is alias
        assert "0111101" in canonical.aliases

    def test_all_vectors_resolve(self):
        seen = set()
        for i in range(128):
            seen.add(grammar_by_id(format(i, "07b")).params)
        assert len(seen) == 96

    def test_verb_final_o_pairs_distinct(self):
        assert grammar_by_id("0000000").params != grammar_by_id("0010000").params

    def test_unknown_grammar(self):
        with pytest.raises(ValueError):
            grammar_by_id("abc")


class TestTextFormat:
    def test_round_trip_all(self):
        # gen-grammar's text is faithful: the header gives the parameters,
        # base order, aliases and permutation mode, and the `CLS => CAT`
        # lines parse back to the lexicon, in order.
        for g in enumerate_grammars():
            lines = grammar_to_text(g).splitlines()
            header = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
            mode = "rel-conditional" if g.policy is not None else "always"
            aliases = {"aliases": " ".join(g.aliases)} if g.aliases else {}
            assert header == {"params": g.params, "base_order": g.base_order,
                              "permutation": mode, **aliases}
            body = [line.split(" => ") for line in lines if not line.startswith("#")]
            assert tuple((cls, parse_category(cat)) for cls, cat in body) == g.lexicon
