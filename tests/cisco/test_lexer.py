"""Tests for the IOS line tokenizer."""

from repro.cisco.lexer import tokenize


class TestTokenize:
    def test_skips_blank_lines(self):
        assert tokenize("\n\n\n") == []

    def test_skips_bang_comments(self):
        assert tokenize("!\n! comment\n") == []

    def test_skips_hash_comments(self):
        assert tokenize("# generated\n") == []

    def test_line_numbers_are_source_accurate(self):
        lines = tokenize("!\nhostname r1\n!\ninterface eth0\n")
        assert [line.number for line in lines] == [2, 4]

    def test_indent_measured(self):
        lines = tokenize("interface eth0\n ip address 1.0.0.1 255.255.255.0\n")
        assert lines[0].indent == 0
        assert lines[1].indent == 1

    def test_tokens_split_on_whitespace(self):
        (line,) = tokenize("neighbor 1.0.0.2   remote-as   2\n")
        assert line.tokens == ("neighbor", "1.0.0.2", "remote-as", "2")

    def test_keyword_lowercased(self):
        (line,) = tokenize("Interface eth0\n")
        assert line.keyword == "interface"

    def test_starts_with_case_insensitive(self):
        (line,) = tokenize("Router BGP 100\n")
        assert line.starts_with("router", "bgp")

    def test_starts_with_too_short(self):
        (line,) = tokenize("router\n")
        assert not line.starts_with("router", "bgp")
