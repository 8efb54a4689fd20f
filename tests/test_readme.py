"""The README's "Library use" block runs as written, every
``trendcast.<module>.<name>`` the README cites exists, and every
``trendcast.social`` constant it cites has the value it states.

A README that names a removed function or an old signature fails here.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import numpy as np

import trendcast
from trendcast import social
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


def test_cited_centrality_constants_state_their_values():
    # "`trendcast.social.TOL` (1e-10)": the stop rule and damping are fixed,
    # so the README's numbers are the program's
    text = " ".join(README.read_text(encoding="utf-8").split())
    cited = re.findall(r"`trendcast\.social\.([A-Z_]+)` \(([^)]+)\)", text)
    assert {name for name, _ in cited} == {"TOL", "MAX_ITER", "DAMPING"}
    assert [(name, float(value)) for name, value in cited] == [
        (name, getattr(social, name)) for name, _ in cited]
