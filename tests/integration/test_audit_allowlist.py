"""The runtime audit's allowlist stays in step with the source.

``tools/audit_executed.py`` runs every entry point under a profile
hook; that is CI's job.  These checks are the static half: each listed
function still exists, each carries a known category, and the AST walk
keys a ``def`` the way the hook keys its code object.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core import toggles
from repro.netmodel.routing_policy import PreparedRouteMap

TOOL = Path(__file__).resolve().parents[2] / "tools" / "audit_executed.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("audit_executed", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def defs(audit):
    return {d.name: d for d in audit.iter_defs()}


def test_every_listed_function_exists(audit, defs):
    missing = sorted(set(audit.read_allowlist()) - set(defs))
    assert missing == []


def test_every_category_is_known(audit):
    categories = set(audit.read_allowlist().values())
    assert categories <= set(audit.CATEGORIES)


@pytest.mark.parametrize("function, name", [
    (toggles.scoped, "repro.core.toggles.scoped"),
    (PreparedRouteMap.name.fget,
     "repro.netmodel.routing_policy.PreparedRouteMap.name"),
])
def test_decorated_def_keys_on_its_first_decorator(defs, function, name):
    code = inspect.unwrap(function).__code__
    assert str(Path(code.co_filename).resolve()) == defs[name].path
    assert code.co_firstlineno == defs[name].first


def test_a_malformed_line_is_rejected(audit, tmp_path):
    allowlist = tmp_path / "allowlist.txt"
    allowlist.write_text("repro.cli.main  unheard-of-category\n")
    with pytest.raises(ValueError, match="expected"):
        audit.read_allowlist(allowlist)
