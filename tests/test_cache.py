"""The parse cache of ``ingestion.read_table``: a table read back from
``__trendcast_cache__`` is the table a parse gives, and an entry that is
damaged, stale or cannot be written changes no result and logs nothing."""

import logging
import os
import shutil

import numpy as np
import pytest

from conftest import write_ratings_csv
from trendcast import ingestion, social
from trendcast.cli import main
from trendcast.ingestion import CACHE_DIR, load_ratings, load_votes, write_votes_csv
from trendcast.social import load_social_graph, write_edge_list


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """The paths ``np.loadtxt`` parses from now on."""
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda path, **kwargs: calls.append(path)
                        or loadtxt(path, **kwargs))
    return calls


@pytest.fixture
def tables(monkeypatch):
    """The tables ``read_table`` returns from now on, whichever loader calls it."""
    returned, read_table = [], ingestion.read_table

    def spy(*args, **kwargs):
        returned.append(read_table(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(ingestion, "read_table", spy)
    monkeypatch.setattr(social, "read_table", spy)
    return returned


def write_votes(path, seed=0):
    rng = np.random.default_rng(seed)
    write_votes_csv(np.column_stack([rng.integers(0, 50, 300), rng.integers(0, 20, 300),
                                     rng.integers(0, 10**6, 300)]), path)


def write_ratings(path, seed=0):
    rng = np.random.default_rng(seed)
    write_ratings_csv([(int(u), int(i), float(r), int(t)) for u, i, r, t in zip(
        rng.integers(0, 50, 300), rng.integers(0, 20, 300),
        rng.choice([0.5, 2.5, 3.0, 4.5], 300), rng.integers(0, 10**6, 300))], path)


def write_edges(path, seed=0):
    write_edge_list(np.random.default_rng(seed).integers(0, 50, size=(300, 2)), path)


# file name, writer, loader: the three files read_table parses
FILES = {
    "votes": ("votes.csv", write_votes, load_votes),
    "ratings": ("ratings.csv", write_ratings, load_ratings),
    "edges": ("edges.txt", write_edges, load_social_graph),
}


def entries(folder):
    return sorted(os.listdir(folder / CACHE_DIR)) if (folder / CACHE_DIR).exists() else []


@pytest.mark.parametrize("kind", FILES)
def test_a_hit_is_the_parsed_table(tmp_path, tables, loadtxt_calls, kind):
    name, write, load = FILES[kind]
    write(tmp_path / name)
    load(tmp_path / name)
    assert loadtxt_calls == [tmp_path / name]
    assert len(entries(tmp_path)) == 1 and entries(tmp_path)[0].startswith(name + ".")
    load(tmp_path / name)
    assert loadtxt_calls == [tmp_path / name]  # the second load parsed nothing
    parsed, hit = tables
    assert (hit.dtype, hit.shape, hit.tobytes()) == (parsed.dtype, parsed.shape, parsed.tobytes())
    assert hit.flags.c_contiguous


def test_a_changed_byte_misses_under_the_same_size_and_mtime(tmp_path, loadtxt_calls):
    path = tmp_path / "votes.csv"
    path.write_text("user,item,timestamp\n1,10,100\n2,11,200\n")
    assert load_votes(path).tolist() == [[1, 10, 100], [2, 11, 200]]
    before = os.stat(path)
    path.write_text("user,item,timestamp\n1,10,100\n2,11,300\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (before.st_size,
                                                                  before.st_mtime_ns)
    assert load_votes(path).tolist() == [[1, 10, 100], [2, 11, 300]]
    assert len(loadtxt_calls) == 2
    assert len(entries(tmp_path)) == 1  # the new entry replaced the old one


def damage(entry, how):
    table = np.load(entry)
    with open(entry, "wb") as fh:
        if how == "truncated":
            np.save(fh, table)
            fh.truncate(fh.tell() - 7)
        elif how == "garbage":
            fh.write(b"not an array\n")
        elif how == "zip":
            np.savez(fh, table=table)
        elif how == "other dtype":  # the same bytes and rows
            np.save(fh, table.view([(name, "<f8") for name in table.dtype.names]))
        elif how == "other row count":
            np.save(fh, table[:-1])


@pytest.mark.parametrize("how", ["truncated", "garbage", "zip", "other dtype",
                                 "other row count"])
def test_a_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, loadtxt_calls, how):
    path = tmp_path / "votes.csv"
    write_votes(path)
    want = load_votes(path)
    (name,) = entries(tmp_path)
    entry = tmp_path / CACHE_DIR / name
    good = entry.read_bytes()
    damage(entry, how)
    assert entry.read_bytes() != good
    assert load_votes(path).tobytes() == want.tobytes()
    assert len(loadtxt_calls) == 2
    assert (entries(tmp_path), entry.read_bytes()) == ([name], good)


@pytest.mark.parametrize("row, error", [
    ("1,x,100", "malformed row ['1', 'x', '100']"),
    ("", "malformed row []"),  # np.loadtxt skips it: a row-count mismatch
], ids=["bad-field", "blank-line"])
def test_a_table_that_fails_to_parse_stores_nothing(tmp_path, loadtxt_calls, row, error):
    path = tmp_path / "votes.csv"
    path.write_text(f"user,item,timestamp\n1,10,100\n{row}\n2,11,200\n")
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            load_votes(path)
        assert str(info.value) == f"{path}:3: {error}"
    assert len(loadtxt_calls) == 2 and not (tmp_path / CACHE_DIR).exists()


def test_a_row_check_fails_alike_on_a_hit(tmp_path, loadtxt_calls):
    # np.loadtxt parses a negative timestamp, so the table is stored; the
    # check after the parse runs on the hit too
    path = tmp_path / "votes.csv"
    path.write_text("user,item,timestamp\n1,10,100\n2,11,-20\n")
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            load_votes(path)
        assert str(info.value) == f"{path}:3: negative timestamp -20"
    assert len(loadtxt_calls) == 1 and len(entries(tmp_path)) == 1


@pytest.mark.parametrize("kind", ["votes", "edges"])
def test_a_file_changed_during_the_parse_stores_nothing(tmp_path, monkeypatch, kind):
    name, write, load = FILES[kind]
    path = tmp_path / name
    write(path)
    calls, loadtxt = [], np.loadtxt

    def touching(source, **kwargs):
        table = loadtxt(source, **kwargs)
        calls.append(source)
        os.utime(path, ns=(0, os.stat(path).st_mtime_ns + 10**9))
        return table

    monkeypatch.setattr(np, "loadtxt", touching)
    load(path)
    load(path)
    assert len(calls) == 2 and entries(tmp_path) == []


@pytest.mark.parametrize("kind", FILES)
def test_a_blocked_cache_directory_changes_nothing(tmp_path, caplog, kind):
    name, write, load = FILES[kind]
    (tmp_path / "open").mkdir()
    (tmp_path / "blocked").mkdir()
    (tmp_path / "blocked" / CACHE_DIR).write_text("a file, not a folder\n")
    results, records = {}, {}
    for folder in ("open", "blocked", "blocked"):
        path = tmp_path / folder / name
        write(path)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="trendcast"):
            loaded = load(path)
        if not isinstance(loaded, np.ndarray):  # a SocialGraph
            loaded = np.concatenate([loaded.user_ids, loaded._src, loaded._dst])
        results[folder], records[folder] = loaded.tobytes(), [
            (r.levelname, r.name, r.getMessage().replace(str(path), "")) for r in caplog.records]
    assert results["blocked"] == results["open"]
    assert records["blocked"] == records["open"]
    assert (tmp_path / "blocked" / CACHE_DIR).read_text() == "a file, not a folder\n"


def test_another_users_cache_folder_is_neither_read_nor_written(tmp_path, monkeypatch,
                                                                 loadtxt_calls):
    path = tmp_path / "votes.csv"
    write_votes(path)
    want = load_votes(path)
    stored = entries(tmp_path)
    uid = os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: uid + 1)  # the folder is now someone else's
    assert load_votes(path).tobytes() == want.tobytes()
    write_votes(path, seed=1)
    load_votes(path)  # a store would replace the entry
    assert len(loadtxt_calls) == 3 and entries(tmp_path) == stored


def test_a_linked_cache_folder_is_neither_read_nor_written(tmp_path, loadtxt_calls):
    # the link could lead another user's entries in, or this user's stores
    # and removals out
    path = tmp_path / "votes.csv"
    write_votes(path)
    want = load_votes(path)
    elsewhere = tmp_path / "elsewhere"
    (tmp_path / CACHE_DIR).rename(elsewhere)
    (tmp_path / CACHE_DIR).symlink_to(elsewhere, target_is_directory=True)
    stored = sorted(os.listdir(elsewhere))
    assert load_votes(path).tobytes() == want.tobytes()
    write_votes(path, seed=1)
    load_votes(path)
    assert len(loadtxt_calls) == 3 and sorted(os.listdir(elsewhere)) == stored
    assert (tmp_path / CACHE_DIR).is_symlink()


def test_a_pipe_is_parsed_without_the_cache(tmp_path, loadtxt_calls):
    # hashing a pipe would consume what np.loadtxt reads
    read, write = os.pipe()
    with os.fdopen(write, "w") as fh:
        fh.write("1 2\n2 3\n3 1\n")
    try:
        graph = load_social_graph(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert graph.num_links == 3 and len(loadtxt_calls) == 1


def sweep_config(folder):
    """A ratings sweep with an ibp spec on ``folder``'s ratings.csv and edges.txt."""
    path = folder / "sweep.cfg"
    path.write_text(
        f"dataset = {folder / 'ratings.csv'}\nformat = ratings\nsocial = {folder / 'edges.txt'}\n"
        "predictor = total_pop\npredictor = ibp\neta = -1\neta = 1\ncentrality = pagerank\n"
        f"t_past = 100000\nt_future = 100000\nn = 5\ntest_dates = 3\nout = {folder / 'out'}\n")
    return path


def run_outputs(cfg, caplog):
    """``trendcast run`` on ``cfg``: its exit status, its log records as stderr
    shows them, and its output files, which are removed."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="trendcast"):
        status = main(["run", str(cfg)])
    out = cfg.parent / "out"
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    shutil.rmtree(out)
    return status, [(r.levelname, r.name, r.getMessage()) for r in caplog.records], files


def test_run_after_validate_parses_nothing(tmp_path, caplog, monkeypatch):
    write_ratings(tmp_path / "ratings.csv")
    write_edges(tmp_path / "edges.txt")
    cfg = sweep_config(tmp_path)
    cold = run_outputs(cfg, caplog)
    shutil.rmtree(tmp_path / CACHE_DIR)
    assert main(["validate", str(cfg)]) == 0
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
    warm = run_outputs(cfg, caplog)
    assert calls == []
    assert warm == cold and cold[0] == 0 and set(cold[2]) == {"sweep.csv", "heatmap.csv",
                                                              "scatter.csv"}


def test_regenerated_inputs_run_as_without_a_cache(tmp_path, caplog):
    data = tmp_path / "data"
    gen = tmp_path / "gen.cfg"
    gen.write_text("users = 100\nitems = 30\nevents = 1500\nvotes_out = events.csv\n"
                   "social_users = 100\nsocial_edges = 300\nsocial_out = edges.txt\n")
    cfg = data / "sweep.cfg"
    outputs = []
    for seed in ("1", "2"):
        assert main(["gen", str(gen), "--out", str(data), "--seed", seed]) == 0
        cfg.write_text(sweep_config(data).read_text().replace("ratings.csv", "events.csv")
                       .replace("format = ratings", "format = votes")
                       .replace("100000", "200"))
        outputs.append(run_outputs(cfg, caplog))
    assert len(entries(data)) == 2  # one per input file: seed 2's replaced seed 1's
    shutil.rmtree(data / CACHE_DIR)
    uncached = run_outputs(cfg, caplog)
    assert outputs[1] == uncached != outputs[0] and uncached[0] == 0
