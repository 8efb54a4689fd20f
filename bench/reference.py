"""Bench-side reference for the sweep outputs, independent of trendcast.

It recomputes P_n, E_n and C_n from the generated arrays with plain numpy,
following the definitions in the README: degrees count events with
``timestamp <= t``, windows are ``(t - w, t]``, predictions rank the items
seen by ``t`` and the truth ranks every item of the graph, both by
decreasing score with ties broken by ascending item id. Duplicate
(user, item) pairs keep their earliest timestamp; ratings below 3.0 are not
events. Per-item sums run over events in (timestamp, user, item) order, so
weighted scores match the library bit for bit.
"""

from __future__ import annotations

import csv

import numpy as np

from workloads import RATING_THRESHOLD, Inputs, Workload

DEFAULT_GRID = [round(-1.0 + 0.1 * k, 1) for k in range(21)]


def grid_values(w: Workload) -> dict:
    """Config lists by key, in file order."""
    values: dict = {}
    for line in w.grid:
        key, value = (s.strip() for s in line.split("=", 1))
        values.setdefault(key, []).append(value)
    return values


def expected_specs(w: Workload) -> list[tuple]:
    """(kind, lambda, gamma, eta, centrality) of every grid point, in sweep order."""
    g = grid_values(w)
    specs = []
    for kind in g["predictor"]:
        if kind in ("total_pop", "recent_pop"):
            specs.append((kind, None, None, None, None))
        elif kind == "pbp":
            specs += [(kind, float(v), None, None, None) for v in g["lambda"]]
        elif kind == "wpp":
            gammas = [float(v) for v in g.get("gamma", [])] or DEFAULT_GRID
            specs += [(kind, None, v, None, None) for v in gammas]
        elif kind == "ibp":
            etas = [float(v) for v in g.get("eta", [])] or DEFAULT_GRID
            for c in g["centrality"]:
                specs += [(kind, None, None, v, c) for v in etas]
    return specs


def reference_specs(w: Workload) -> list[tuple]:
    """The workload's ``reference`` entries as sweep spec tuples."""
    specs = []
    for kind, param in w.reference:
        if kind == "wpp":
            specs.append(("wpp", None, param, None, None))
        elif kind == "ibp":
            specs.append(("ibp", None, None, param, "in_degree"))
        else:
            specs.append((kind, None, None, None, None))
    return specs


def windows(w: Workload) -> list[tuple[int, int]]:
    g = grid_values(w)
    return [(int(p), int(f)) for p in g["t_past"] for f in g["t_future"]]


def rank_spec_string(w: Workload) -> str:
    """The first grid spec in ``trendcast rank --spec`` syntax."""
    kind, lam, gamma, eta, centrality = expected_specs(w)[0]
    t_past = windows(w)[0][0]
    parts = [kind]
    if lam is not None:
        parts.append(f"lambda={lam}")
    if gamma is not None:
        parts.append(f"gamma={gamma}")
    if eta is not None:
        parts += [f"eta={eta}", f"centrality={centrality}"]
    if kind != "total_pop":
        parts.append(f"t_past={t_past}")
    return ",".join(parts)


class Reference:
    """The event store and in-degree influence, rebuilt with numpy."""

    def __init__(self, inputs: Inputs):
        self.w = inputs.workload
        g = grid_values(self.w)
        self.n = int(g["n"][0])
        self.num_dates = int(g["test_dates"][0])
        keep = np.ones(inputs.users.size, dtype=bool)
        if inputs.ratings is not None:
            keep = inputs.ratings >= RATING_THRESHOLD
        u, i, t = inputs.users[keep], inputs.items[keep], inputs.timestamps[keep]
        # earliest timestamp per (user, item) pair
        key = u * (int(i.max()) + 1) + i
        order = np.lexsort((t, key))
        first = np.ones(order.size, dtype=bool)
        first[1:] = key[order][1:] != key[order][:-1]
        pick = order[first]
        u, i, t = u[pick], i[pick], t[pick]
        order = np.lexsort((i, u, t))
        self.users, self.items, self.ts = u[order], i[order], t[order]
        self.item_ids = np.unique(self.items)
        self.num_users = int(self.users.max()) + 1
        self.num_items = int(self.items.max()) + 1
        self.t_first, self.t_last = int(self.ts[0]), int(self.ts[-1])

        self.in_degree = np.zeros(self.num_users, dtype=np.float64)
        if inputs.edges is not None:
            e = inputs.edges[inputs.edges[:, 0] != inputs.edges[:, 1]]
            e = np.unique(e, axis=0)
            leaders = e[:, 1][e[:, 1] < self.num_users]
            self.in_degree += np.bincount(leaders, minlength=self.num_users)

    # -- windowed counts (indexed by raw item / user id) ---------------------

    def _pos(self, t) -> int:
        return int(np.searchsorted(self.ts, t, side="right"))

    def item_degree(self, t) -> np.ndarray:
        return np.bincount(self.items[: self._pos(t)], minlength=self.num_items)

    def item_increase(self, t, width) -> np.ndarray:
        lo, hi = self._pos(t - width), self._pos(t)
        return np.bincount(self.items[lo:hi], minlength=self.num_items)

    def test_dates(self, t_past, t_future) -> list[int]:
        lo, hi = self.t_first + t_past, self.t_last - t_future
        return [int(round(x)) for x in np.linspace(lo, hi, self.num_dates)]

    # -- scores and rankings -------------------------------------------------

    def scores(self, spec: tuple, t, t_past) -> np.ndarray:
        kind, _, gamma, eta, centrality = spec
        now = self.item_degree(t).astype(np.float64)
        if kind == "total_pop":
            return now
        past = self.item_degree(t - t_past).astype(np.float64)
        if kind == "recent_pop":
            return now - past
        lo, hi = self._pos(t - t_past), self._pos(t)
        wu, wi = self.users[lo:hi], self.items[lo:hi]
        if kind == "wpp":
            activity = np.bincount(self.users[:hi], minlength=self.num_users).astype(np.float64)
            weight = activity[wu] ** gamma
        elif kind == "ibp" and centrality == "in_degree":
            infl = self.in_degree[wu]
            if eta < 0:  # users without followers contribute 0, not inf
                weight = np.zeros(infl.size)
                nz = infl != 0.0
                weight[nz] = infl[nz] ** eta
            else:
                weight = infl**eta
        else:
            raise ValueError(f"no reference for {spec}")
        return np.bincount(wi, weights=weight, minlength=self.num_items)

    def top(self, values, candidates, n) -> np.ndarray:
        order = np.lexsort((candidates, -values[candidates]))
        return candidates[order[:n]]

    def predicted(self, spec, t, t_past, n) -> np.ndarray:
        seen = self.item_ids[self.item_degree(t)[self.item_ids] > 0]
        return self.top(self.scores(spec, t, t_past), seen, n)

    def cell(self, spec, t_past, t_future, date) -> tuple[float, int, int]:
        """(P_n, E_n, C_n) of one spec at one test date."""
        n = self.n
        pred = set(self.predicted(spec, date, t_past, n).tolist())
        future = self.item_increase(date + t_future, t_future)
        truth = set(self.top(future, self.item_ids, n).tolist())
        seen = self.item_ids[self.item_degree(date)[self.item_ids] > 0]
        past = set(self.top(self.item_increase(date, t_past), seen, n).tolist())
        new = truth - past
        return len(pred & truth) / n, len(new), len(pred & new)

    def scatter_rows(self) -> int:
        spec = expected_specs(self.w)[0]
        t_past, t_future = windows(self.w)[0]
        dates = self.test_dates(t_past, t_future)
        date = dates[len(dates) // 2]
        past = self.item_increase(date, t_past) > 0
        future = self.item_increase(date + t_future, t_future) > 0
        flag = np.zeros(self.num_items, dtype=bool)
        flag[self.predicted(spec, date, t_past, self.n)] = True
        return int((past | future | flag)[self.item_ids].sum())

    def degenerate_dates(self) -> tuple[int, int]:
        """(dates where fewer than n items gain links, distinct (T_P, T_F, n, date) keys)."""
        keys = degenerate = 0
        for t_past, t_future in windows(self.w):
            for date in self.test_dates(t_past, t_future):
                keys += 1
                gained = int((self.item_increase(date + t_future, t_future) > 0).sum())
                degenerate += gained < self.n
        return degenerate, keys


# -- checks against the CLI outputs ------------------------------------------


def _num(text):
    return None if text == "" else float(text)


def read_sweep(path) -> dict:
    """Per-date sweep rows keyed by (kind, lambda, gamma, eta, centrality, T_P, T_F, t_star)."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if r["t_star"] == "mean":
                continue
            key = (r["kind"], _num(r["lambda"]), _num(r["gamma"]), _num(r["eta"]),
                   r["centrality"] or None, int(r["T_P"]), int(r["T_F"]), int(r["t_star"]))
            rows[key] = (float(r["P_n"]), int(r["E_n"]), int(r["C_n"]))
    return rows


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_outputs(ref: Reference, out_dir: str) -> list[tuple[str, bool]]:
    """One (name, ok) entry per checked file or (spec, date) cell."""
    w = ref.w
    specs, wins = expected_specs(w), windows(w)
    checks = [
        ("sweep.csv rows", count_lines(f"{out_dir}/sweep.csv")
         == 1 + len(specs) * len(wins) * (ref.num_dates + 1)),
        ("heatmap.csv rows", count_lines(f"{out_dir}/heatmap.csv") == 1 + len(wins)),
        ("scatter.csv rows", count_lines(f"{out_dir}/scatter.csv") == 1 + ref.scatter_rows()),
    ]
    rows = read_sweep(f"{out_dir}/sweep.csv")

    t_past, t_future = wins[0]
    for spec in reference_specs(w):
        for date in ref.test_dates(t_past, t_future):
            got = rows.get(spec + (t_past, t_future, date))
            checks.append((f"reference {spec} t={date}",
                           got == ref.cell(spec, t_past, t_future, date)))

    kinds = {s[0] for s in specs}
    for t_past, t_future in wins:
        for date in ref.test_dates(t_past, t_future):
            at = (t_past, t_future, date)
            for lam, base in ((0.0, "total_pop"), (1.0, "recent_pop")):
                pbp = ("pbp", lam, None, None, None)
                if pbp in specs and base in kinds:
                    got = rows.get(pbp + at)
                    checks.append((f"pbp lambda={lam} == {base} t={date}", got is not None
                                   and got == rows.get((base, None, None, None, None) + at)))
            if "recent_pop" in kinds:
                got = rows.get(("recent_pop", None, None, None, None) + at)
                checks.append((f"recent_pop C_n == 0 t={date}", got is not None and got[2] == 0))
    return checks


def check_rank(ref: Reference, stdout_text: str) -> bool:
    """``trendcast rank`` prints the first grid spec's top n at the last event."""
    spec = expected_specs(ref.w)[0]
    t_past = windows(ref.w)[0][0]
    got = [int(line.split("\t")[0]) for line in stdout_text.splitlines() if line]
    want = ref.predicted(spec, ref.t_last, t_past, ref.n).tolist()
    return got == want
