"""Tests for the Junos brace-tree lexer."""

import pytest

from repro.juniper.lexer import LexError, lex_juniper


class TestLexer:
    def test_leaf_statement(self):
        (stmt,) = lex_juniper("host-name r1;")
        assert stmt.words == ("host-name", "r1")
        assert stmt.children == []

    def test_block_statement(self):
        (stmt,) = lex_juniper("system { host-name r1; }")
        assert stmt.keyword == "system"
        assert stmt.children
        assert stmt.children[0].words == ("host-name", "r1")

    def test_nested_blocks(self):
        (stmt,) = lex_juniper(
            "interfaces { ge-0/0/0 { unit 0 { family inet { "
            "address 1.0.0.1/24; } } } }"
        )
        inet = stmt.children[0].children[0].children[0]
        assert inet.words == ("family", "inet")
        assert inet.children[0].words == ("address", "1.0.0.1/24")

    def test_line_numbers(self):
        statements = lex_juniper("system {\n    host-name r1;\n}\n")
        assert statements[0].line == 1
        assert statements[0].children[0].line == 2

    def test_hash_comment_skipped(self):
        (stmt,) = lex_juniper("# comment\nhost-name r1;\n")
        assert stmt.words == ("host-name", "r1")

    def test_c_style_comment_skipped(self):
        (stmt,) = lex_juniper("/* multi\nline */ host-name r1;")
        assert stmt.words == ("host-name", "r1")

    def test_quoted_string_is_one_token(self):
        (stmt,) = lex_juniper('as-path-prepend "100 100";')
        assert stmt.words == ("as-path-prepend", "100 100")

    def test_missing_semicolon_before_brace_tolerated(self):
        (stmt,) = lex_juniper("system { host-name r1 }")
        assert stmt.children[0].words == ("host-name", "r1")

    def test_unbalanced_close_raises(self):
        with pytest.raises(LexError):
            lex_juniper("}")

    def test_unbalanced_open_raises(self):
        with pytest.raises(LexError):
            lex_juniper("system {")

    def test_find(self):
        (stmt,) = lex_juniper("system { host-name r1; services; }")
        assert stmt.find("host-name").words == ("host-name", "r1")
        assert stmt.find("nothing") is None

    def test_find_all(self):
        (stmt,) = lex_juniper("bgp { group a { } group b { } }")
        assert len(stmt.find_all("group")) == 2

    def test_text(self):
        (stmt,) = lex_juniper("peer-as 200;")
        assert stmt.text() == "peer-as 200"

    def test_multiple_top_level_statements(self):
        statements = lex_juniper("system { }\ninterfaces { }\n")
        assert [s.keyword for s in statements] == ["system", "interfaces"]
