"""Tests for AS paths and AS-path access lists."""

from repro.netmodel.aspath import AsPath, AsPathAccessList, path_through


class TestAsPath:
    def test_render(self):
        assert path_through([1, 2, 3]).render() == "1 2 3"

    def test_empty_render(self):
        assert AsPath().render() == ""

    def test_contains(self):
        assert path_through([10, 20]).contains(20)
        assert not path_through([10, 20]).contains(30)


class TestAsPathAccessList:
    def test_permit_match(self):
        acl = AsPathAccessList("1")
        acl.add("permit", "100")
        assert acl.permits(path_through([100, 200]))

    def test_default_deny(self):
        acl = AsPathAccessList("1")
        acl.add("permit", "999")
        assert not acl.permits(path_through([100]))

    def test_first_match_wins(self):
        acl = AsPathAccessList("1")
        acl.add("deny", "100")
        acl.add("permit", ".*")
        assert not acl.permits(path_through([100]))
        assert acl.permits(path_through([200]))

    def test_underscore_boundary(self):
        acl = AsPathAccessList("1")
        acl.add("permit", "_65001_")
        assert acl.permits(path_through([65001]))
        assert acl.permits(path_through([1, 65001, 2]))

    def test_underscore_not_substring(self):
        acl = AsPathAccessList("1")
        acl.add("permit", "_6500_")
        assert not acl.permits(path_through([65001]))

    def test_anchored_origin(self):
        acl = AsPathAccessList("1")
        acl.add("permit", "^100")
        assert acl.permits(path_through([100, 7]))
        assert not acl.permits(path_through([7, 100]))

    def test_empty_list_denies(self):
        assert not AsPathAccessList("empty").permits(path_through([1]))
