#!/usr/bin/env python3
"""Runtime audit: which ``src/repro`` functions does no entry point run?

Run from the repository root:

    python tools/audit_executed.py

Every entry point runs in a fresh process under a call-profile hook: the
CLI commands and their flag variants, every example, the pytest benches,
both script benches, perfbench on each workload and a ``serve`` /
``submit`` / ``status`` / ``result`` smoke against a live service.  The
hook is a ``sitecustomize.py`` put first on ``PYTHONPATH``, so spawned
workers and the service's threads are covered too.  It records
``(co_filename, co_firstlineno)`` for every ``src/repro`` code object
that is called.  On Python 3.8+ ``co_firstlineno`` of a decorated
function is the line of its first decorator, which is how the AST walk
below keys each ``def``.

A ``def`` whose code never ran must be listed in
``tools/audit_allowlist.txt`` (one ``qualified.name  category`` per
line).  The audit fails when a never-run function is not listed, and
when a listed function runs or no longer exists, so the list can only
shrink.  Every run does a fixed amount of work, so what runs does not
depend on how fast the host is.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "audit_allowlist.txt"

#: Why a function no entry point runs may stay.
CATEGORIES = {
    "safety": "error, interrupt and crash handling the healthy runs never hit",
    "self-test": "planted bugs the fuzz self-tests switch on",
    "contract": "abstract methods, Protocol stubs and immutability dunders",
    "input-only": "feature paths that only inputs the workloads lack reach",
    "test-seam": "substitutes and knobs the tests drive the loop through",
    "roadmap": "kept for an open ROADMAP item that will run it",
}

_HOOK = '''\
"""Records every src/repro code object that is called (audit hook)."""
import os
import sys
import threading

_OUT = os.environ.get("REPRO_AUDIT_RECORDS")
_PREFIX = os.environ.get("REPRO_AUDIT_PREFIX")
if _OUT and _PREFIX:
    _seen = set()
    _sink = open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a",
                 buffering=1)

    def _hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in _seen:
            return
        _seen.add(code)
        if code.co_filename.startswith(_PREFIX):
            _sink.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))

    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''


class Def(NamedTuple):
    name: str  # dotted: module.Class.method, nested defs under their parent
    path: str  # absolute file path
    first: int  # first decorator line, else the def line
    lines: int


def iter_defs(package: Path = PACKAGE) -> Iterator[Def]:
    """Every ``def`` in ``package``, keyed as the profile hook keys it."""
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), str(path))
        seen: Dict[str, int] = {}
        yield from _walk(tree, module, str(path.resolve()), seen)


def _walk(node: ast.AST, prefix: str, path: str,
          seen: Dict[str, int]) -> Iterator[Def]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            # A name defined twice (a property setter) gets a suffix.
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:
                name = f"{name}#{seen[name]}"
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            yield Def(name, path, first, child.end_lineno - first + 1)
            yield from _walk(child, name, path, seen)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, f"{prefix}.{child.name}", path, seen)
        else:
            yield from _walk(child, prefix, path, seen)


def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    """``name -> category`` from the allowlist; ``#`` starts a comment."""
    entries: Dict[str, str] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in CATEGORIES:
            raise ValueError(f"{path.name}:{number}: expected "
                             f"'<name> <category>', got {raw!r}")
        if parts[0] in entries:
            raise ValueError(f"{path.name}:{number}: {parts[0]} listed twice")
        entries[parts[0]] = parts[1]
    return entries


def read_records(records: Path) -> Set[Tuple[str, int]]:
    executed: Set[Tuple[str, int]] = set()
    for sink in records.glob("*.txt"):
        for line in sink.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename and lineno.isdigit():
                executed.add((filename, int(lineno)))
    return executed


# -- the entry points ---------------------------------------------------

#: ``repro`` CLI runs, in order; ``{w}`` is the scratch directory and
#: ``{r}`` the repository root.
CLI_RUNS: Tuple[Tuple[str, ...], ...] = (
    ("tables",),
    ("translate",),
    ("synthesize",),
    ("synthesize", "--family", "ring", "--routers", "5"),
    ("incremental",),
    ("sweep",),
    ("campaign", "--families", "star,chain,ring,mesh,dumbbell,random,waxman",
     "--sizes", "4,6", "--seeds", "1", "--lint", "--json", "{w}/c.json",
     "--csv", "{w}/c.csv", "--journal", "{w}/c.jsonl", "--profile",
     "--trace", "{w}/c_trace.json"),
    ("campaign", "--families", "star,chain", "--sizes", "4,6", "--seeds", "1",
     "--workers", "2", "--limit", "2", "--timeout", "120",
     "--json", "{w}/p.json", "--journal", "{w}/p.jsonl", "--quiet"),
    ("campaign", "--families", "star,chain", "--sizes", "4,6", "--seeds", "1",
     "--workers", "2", "--resume", "{w}/p.jsonl", "--trace",
     "{w}/p_trace.json", "--json", "{w}/p.json", "--quiet"),
    ("campaign", "--report", "{w}/p.jsonl", "--report", "{w}/c.jsonl",
     "--profile", "--json", "{w}/r.json", "--csv", "{w}/r.csv"),
    ("campaign", "--families", "random", "--sizes", "6", "--seeds", "1",
     "--profiles", "default,always-fix,sloppy", "--iip-ablation",
     "--roles", "c2i2h1", "--topo", "p=0.4", "--place", "degree",
     "--no-incremental-sim", "--json", "-", "--journal", "-", "--quiet"),
    ("lint",),
    ("lint", "--validate", "--out", "{w}/validate.json"),
    ("fuzz", "--replay", "--corpus", "{r}/tests/fuzz_corpus"),
    ("fuzz", "--iterations", "2", "--journal", "{w}/f.jsonl",
     "--corpus", "{w}/corpus"),
    ("fuzz", "--iterations", "3", "--resume", "{w}/f.jsonl",
     "--corpus", "{w}/corpus", "--quiet"),
    ("fuzz", "--iterations", "2", "--workers", "2", "--journal", "-",
     "--corpus", "{w}/corpus2", "--quiet"),
    # Indices 0-7 of seed 0 draw every edit op; the budget is never
    # reached, so the budget mode runs without a clock-bound cut-off.
    ("fuzz", "--iterations", "8", "--budget", "60m", "--journal", "-",
     "--corpus", "{w}/corpus3", "--quiet"),
)

#: Runs that must exit 1: an injected fault lints dirty, in text and JSON.
LINT_FAULTS: Tuple[Tuple[str, ...], ...] = (
    ("lint", "--family", "star", "--routers", "7", "--fault",
     "missing_ingress_tag"),
    ("lint", "--family", "star", "--routers", "7", "--json", "--fault",
     "missing_ingress_tag", "--out", "{w}/lint.json"),
)

#: Module runs other than the CLI: the trace validator CI runs.
MODULE_RUNS: Tuple[Tuple[str, ...], ...] = (
    ("-m", "repro.obs.tracing", "{w}/c_trace.json"),
)

SCRIPT_RUNS: Tuple[Tuple[str, ...], ...] = (
    ("benchmarks/bench_incremental_sim.py", "--small", "--json",
     "{w}/bench_incremental_sim.json"),
    ("benchmarks/bench_random_families.py", "--small", "--json",
     "{w}/bench_random_families.json"),
    ("-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
     "-p", "no:cacheprovider"),
    ("-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"),
) + tuple(
    ("perfbench/run.py", "--workload", workload, "--seed", "0",
     "--seconds", "2", "--trace", "1")
    for workload in ("nt-grid", "translate", "converge-scale")
)


class Runner:
    def __init__(self, records: Path, work: Path) -> None:
        self.work = work
        hook_dir = work / "hook"
        hook_dir.mkdir(parents=True, exist_ok=True)
        (hook_dir / "sitecustomize.py").write_text(_HOOK)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["REPRO_AUDIT_RECORDS"] = str(records)
        self.env["REPRO_AUDIT_PREFIX"] = str(PACKAGE.resolve()) + os.sep
        self.failures: List[str] = []

    def _argv(self, args: Sequence[str]) -> List[str]:
        return [sys.executable] + [
            a.replace("{w}", str(self.work)).replace("{r}", str(ROOT))
            for a in args
        ]

    def run(self, args: Sequence[str], ok: Sequence[int] = (0,),
            cwd: Optional[Path] = None) -> str:
        argv = self._argv(args)
        label = " ".join(args)
        start = time.monotonic()
        done = subprocess.run(argv, cwd=cwd or self.work, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=900)
        print(f"  {time.monotonic() - start:6.1f}s  exit {done.returncode}  "
              f"{label}", flush=True)
        if done.returncode not in ok:
            self.failures.append(f"{label}: exit {done.returncode}\n"
                                 f"{done.stderr[-2000:]}")
        return done.stdout

    def service_smoke(self) -> None:
        """``serve --port 0``, then submit, status and result against it."""
        serve = subprocess.Popen(
            self._argv(["-m", "repro", "serve", "--port", "0", "--workers",
                        "2", "--state-dir", "{w}/service-state"]),
            cwd=self.work, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            line = serve.stdout.readline()
            match = re.search(r"http://\S+", line)
            if match is None:
                self.failures.append(f"serve printed no URL: {line!r}")
                return
            url = match.group(0)
            cli = ("-m", "repro")
            submitted = self.run(cli + (
                "submit", "--url", url, "--families", "random,waxman",
                "--sizes", "6", "--seeds", "1", "--roles", "c2i2h1",
                "--wait", "--wait-timeout", "300", "--quiet"))
            campaign_id = submitted.split()[0] if submitted.split() else "?"
            self.run(cli + ("submit", "--url", url, "--families", "chain",
                            "--sizes", "4", "--seeds", "1", "--wait"))
            for extra in ((), ("--json",), ("--metrics",), (campaign_id,),
                          (campaign_id, "--json"),
                          (campaign_id, "--wait")):
                self.run(cli + ("status", "--url", url) + extra)
            self.run(cli + ("result", "--url", url, campaign_id,
                            "--json", "{w}/service.json"))
            self.run(cli + ("result", "--url", url, campaign_id, "--quiet"))
            self.run(cli + ("campaign", "--report",
                            f"{{w}}/service-state/{campaign_id}",
                            "--json", "{w}/offline.json", "--quiet"))
        finally:
            try:
                request = urllib.request.Request(f"{url}/shutdown",
                                                 method="POST", data=b"")
                urllib.request.urlopen(request, timeout=30).read()
                serve.wait(timeout=60)
            except Exception:  # the service is stopped below either way
                pass
            if serve.poll() is None:
                serve.kill()
                serve.wait()
            serve.stdout.close()

    def everything(self) -> None:
        print("CLI:", flush=True)
        for args in CLI_RUNS:
            self.run(("-m", "repro") + args)
        for args in LINT_FAULTS:
            self.run(("-m", "repro") + args, ok=(1,))
        for args in MODULE_RUNS:
            self.run(args)
        print("examples:", flush=True)
        for example in sorted((ROOT / "examples").glob("*.py")):
            self.run((str(example),))
        print("service:", flush=True)
        self.service_smoke()
        print("benchmarks and perfbench:", flush=True)
        for args in SCRIPT_RUNS:
            self.run(args, cwd=ROOT)


def check(executed: Set[Tuple[str, int]], allowlist: Dict[str, str]) -> int:
    defs = list(iter_defs())
    unrun = [d for d in defs if (d.path, d.first) not in executed]
    names = {d.name for d in defs}
    unrun_names = {d.name for d in unrun}
    unlisted = [d for d in unrun if d.name not in allowlist]
    ran = sorted(n for n in allowlist if n in names and n not in unrun_names)
    gone = sorted(n for n in allowlist if n not in names)
    print(f"{len(defs)} functions, {len(defs) - len(unrun)} executed, "
          f"{len(unrun)} never run ({sum(d.lines for d in unrun)} lines), "
          f"{len(allowlist)} allowlisted")
    for d in unlisted:
        print(f"never run and not allowlisted: {d.name} "
              f"({Path(d.path).relative_to(ROOT)}:{d.first})")
    for name in ran:
        print(f"allowlisted but now runs (drop it from the list): {name}")
    for name in gone:
        print(f"allowlisted but no longer defined: {name}")
    return 1 if unlisted or ran or gone else 0


def main() -> int:
    allowlist = read_allowlist()
    work = Path(tempfile.mkdtemp(prefix="repro-audit-"))
    records = work / "records"
    records.mkdir()
    try:
        runner = Runner(records, work)
        runner.everything()
        if runner.failures:
            for failure in runner.failures:
                print(f"entry point failed: {failure}", file=sys.stderr)
            return 1
        return check(read_records(records), allowlist)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
