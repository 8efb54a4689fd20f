"""The README's "Library use" block runs as written, every
``trendcast.<module>.<name>`` the README cites exists, every function or
graph method it cites with its parameters has exactly those, and every
``trendcast.social`` constant it cites has the value it states.

A README that names a removed function or an old signature fails here.
"""

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

import numpy as np

import trendcast
from trendcast import social
from trendcast.events import TemporalBipartiteGraph
from trendcast.ingestion import write_votes_csv
from trendcast.social import write_edge_list

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def library_use_block() -> str:
    return re.search(r"```python\n(.*?)```", library_use_section(), re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(5)
    (tmp_path / "data").mkdir()
    # 300 users, 80 items, 20,000 s: room for the block's 6000 s windows
    events = np.column_stack([rng.integers(0, 300, 5000), rng.integers(0, 80, 5000),
                              rng.integers(0, 20_000, 5000)])
    write_votes_csv(events.tolist(), tmp_path / "data" / "events.csv")
    edges = rng.integers(0, 300, size=(1200, 2))
    write_edge_list(edges[edges[:, 0] != edges[:, 1]].tolist(), tmp_path / "data" / "edges.txt")
    monkeypatch.chdir(tmp_path)

    exec(compile(library_use_block(), str(README), "exec"), {})

    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3


def test_package_exports_what_library_use_documents():
    section = library_use_section()
    exported = [name for name, value in vars(trendcast).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert [name for name in exported if not re.search(rf"\b{name}\b", section)] == []
    imported = [alias.name for node in ast.walk(ast.parse(library_use_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "trendcast"
                for alias in node.names]
    assert imported and [name for name in imported if not hasattr(trendcast, name)] == []


def test_cited_names_resolve():
    cited = sorted(set(re.findall(r"\btrendcast((?:\.\w+)+)", README.read_text(encoding="utf-8"))))
    assert cited
    missing = []
    for dotted in cited:
        module, *names = dotted[1:].split(".")
        try:
            value = importlib.import_module(f"trendcast.{module}")
        except ImportError:
            missing.append("trendcast" + dotted)
            continue
        for name in names:
            if not hasattr(value, name):
                missing.append("trendcast" + dotted)
                break
            value = getattr(value, name)
    assert missing == []


def cited_function(dotted):
    """The trendcast function or graph method that ``dotted`` names, else None:
    ``graph.<method>``, ``[trendcast.]<module>.<name>`` or a package export."""
    names = dotted.removeprefix("trendcast.").split(".")
    if names[0] == "graph":
        value, names = TemporalBipartiteGraph, names[1:]
    else:
        try:
            value, names = importlib.import_module(f"trendcast.{names[0]}"), names[1:]
        except ImportError:
            value = trendcast
    for name in names:
        value = getattr(value, name, None)
    return value if inspect.isfunction(value) else None


def test_cited_signatures_match_the_code():
    # "`evaluate(graph, specs, configs, weights=None)`": the parameter names and
    # defaults, without self; a citation with empty parentheses names only
    text = re.sub(r"```.*?```", " ", README.read_text(encoding="utf-8"), flags=re.S)
    cited = re.findall(r"`(\w[\w.]*)\(([^`()]+)\)`", " ".join(text.split()))
    checked, drifted = 0, []
    for dotted, params in cited:
        function = cited_function(dotted)
        if function is None:
            continue
        written = [(name.strip(), default.strip() if sep else None)
                   for name, sep, default in (p.partition("=") for p in params.split(","))]
        actual = [(p.name, None if p.default is p.empty else repr(p.default))
                  for p in inspect.signature(function).parameters.values() if p.name != "self"]
        checked += 1
        if written != actual:
            drifted.append(f"{dotted}({params}) is {dotted}{inspect.signature(function)}")
    assert checked and drifted == []


def test_cited_centrality_constants_state_their_values():
    # "`trendcast.social.TOL` (1e-10)": the stop rule and damping are fixed,
    # so the README's numbers are the program's
    text = " ".join(README.read_text(encoding="utf-8").split())
    cited = re.findall(r"`trendcast\.social\.([A-Z_]+)` \(([^)]+)\)", text)
    assert {name for name, _ in cited} == {"TOL", "MAX_ITER", "DAMPING"}
    assert [(name, float(value)) for name, value in cited] == [
        (name, getattr(social, name)) for name, _ in cited]
