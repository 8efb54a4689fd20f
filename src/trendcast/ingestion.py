"""Loaders for the canonical dataset files.

Two CSV schemas are supported (comma-separated, UTF-8, LF, CRLF or CR line ends):

* ratings: header ``user,item,rating,timestamp`` - a record becomes an
  event iff its rating clears the threshold (default 3.0);
* votes: header ``user,item,timestamp`` - every record is an event.

Every row, a ratings row below the threshold included, holds exactly the
header's fields, which may be double-quoted: int64 ids, an int64 timestamp
of 0 or more, a rating in [``RATING_MIN``, ``RATING_MAX``]. Anything else,
blank lines and extra fields included, is a ``file:line`` ``ValueError``.
The loaders return one ``(N, 3)`` int64 array of ``(user, item,
timestamp)`` rows in file order for ``events.build``.

Raw distribution formats (per-movie rating files, ``::``-separated rating
logs, vote dumps) are converted to these schemas up front; see the README
for recipes. Converters themselves are out of scope here.
"""

from __future__ import annotations

import csv
import logging
import re
import warnings
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

RATING_MIN = 0.5
RATING_MAX = 5.0

RATINGS_HEADER = ["user", "item", "rating", "timestamp"]
VOTES_HEADER = ["user", "item", "timestamp"]

_INT64 = np.iinfo(np.int64)


@dataclass
class DatasetSpec:
    """How to read a dataset file into events.

    ``subset_users`` (with ``min_user_degree`` and ``rng_seed``) mirrors the
    user-sampling construction for large ratings datasets: pick that many
    users with at least ``min_user_degree`` collected items, keep all their
    events. Eligibility is normally measured after threshold filtering;
    ``eligibility_pre_threshold`` switches it to counting raw ratings.
    """

    format: str = "ratings"  # "ratings" or "votes"
    threshold: float = 3.0
    subset_users: int | None = None
    min_user_degree: int = 20
    rng_seed: int = 0
    eligibility_pre_threshold: bool = False

    def __post_init__(self):
        if self.format not in ("ratings", "votes"):
            raise ValueError(f"unknown dataset format {self.format!r}")
        if not RATING_MIN <= self.threshold <= RATING_MAX:
            raise ValueError(
                f"threshold must lie in [{RATING_MIN}, {RATING_MAX}], got {self.threshold}"
            )
        if self.format == "votes" and self.subset_users is not None:
            raise ValueError("subset_users applies to ratings datasets only")
        if self.format == "votes" and self.eligibility_pre_threshold:
            raise ValueError("eligibility applies to ratings datasets only")
        if self.subset_users is not None and self.subset_users < 1:
            raise ValueError(f"subset_users must be >= 1, got {self.subset_users}")
        if self.min_user_degree < 0:
            raise ValueError(f"min_user_degree must be >= 0, got {self.min_user_degree}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.rng_seed}")


def read_table(path, rescan, rows: int | None = None, **loadtxt_args) -> np.ndarray:
    """``np.loadtxt(path, **loadtxt_args)``, expected to give ``rows`` rows if set.

    On a parse failure or a row-count mismatch (loadtxt skips blank lines),
    ``rescan(path)`` raises the ``file:line`` error of the first bad line;
    should it find none, loadtxt's own complaint is raised.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(path, encoding="utf-8", **loadtxt_args)
        except ValueError as exc:
            problem = str(exc)
        else:
            if rows is None or len(table) == rows:
                return table
            problem = f"parsed {len(table)} rows of {rows}"
    rescan(path)
    raise ValueError(f"{path}: {problem}")


def parse_field(field: str, dtype=np.int64):
    """Parse one field as ``np.loadtxt`` would: ``_`` digit separators, non-ASCII
    digits and non-integers (``3.0``) raise ``ValueError``, integers outside
    int64 ``OverflowError``."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(field)
    if dtype == np.float64:
        return float(field)
    value = int(field)
    if not _INT64.min <= value <= _INT64.max:
        raise OverflowError(field)
    return value


def _check_rows(path, table: np.ndarray, first_line: int) -> None:
    """Raise the ``file:line`` error of the first row of the structured ``table``
    with a rating off the scale or a negative timestamp; row k is on line
    ``first_line + k``."""
    bad = table["timestamp"] < 0
    rated = "rating" in table.dtype.names
    if rated:
        bad |= ~((table["rating"] >= RATING_MIN) & (table["rating"] <= RATING_MAX))
    if bad.any():
        k = int(np.argmax(bad))
        if rated and not RATING_MIN <= table["rating"][k] <= RATING_MAX:
            raise ValueError(f"{path}:{first_line + k}: rating {table['rating'][k]} outside "
                             f"[{RATING_MIN}, {RATING_MAX}]")
        raise ValueError(f"{path}:{first_line + k}: negative timestamp {table['timestamp'][k]}")


def text_lines(path):
    """Yield the lines of ``path``, decoded from UTF-8 with their line ends.

    Lines end at LF, CRLF or a lone CR, as text mode splits them. A line
    that is not UTF-8 raises ``ValueError("<path>:<line>: not valid UTF-8")``.
    """
    with open(path, "rb") as fh:
        lineno = 0
        for chunk in fh:  # binary lines end at LF, so no CRLF straddles two
            for raw in chunk.splitlines(keepends=True):
                lineno += 1
                try:
                    yield raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None


def _rescan_csv(path, dtype) -> None:
    """Raise the ``file:line`` error for the first CSV row that does not parse."""
    reader = csv.reader(text_lines(path))
    try:
        next(reader)
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num  # the row's first and last lines
            if end > lineno:  # _read_csv counted it as more than one row
                raise ValueError(f"{path}:{lineno}: malformed row "
                                 "(line break inside a quoted field)")
            try:
                if len(row) != len(dtype):
                    raise ValueError("field count")
                values = tuple(parse_field(f, kind) for (_, kind), f in zip(dtype, row))
            except OverflowError:
                raise ValueError(f"{path}:{lineno}: integer outside int64 in row {row!r}") from None
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}") from None
            _check_rows(path, np.array([values], dtype=dtype), lineno)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: malformed row ({exc})") from None


def _read_csv(path, header) -> np.ndarray:
    """Parse a CSV with ``header`` into a structured array, one field per column,
    and check every row's rating and timestamp with :func:`_check_rows`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ValueError(f"{path}: missing header row")
    # Count the lines on the bytes, as text mode ends them: at LF, CRLF or a
    # lone CR. np.loadtxt decodes the file.
    ends = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    rows = ends + (not data.endswith((b"\n", b"\r"))) - 1
    first = re.match(rb"[^\r\n]*", data).group()
    try:
        found = next(csv.reader([first.decode("utf-8")]), [])
    except UnicodeDecodeError:
        raise ValueError(f"{path}:1: not valid UTF-8") from None
    except csv.Error as exc:
        raise ValueError(f"{path}:1: malformed header ({exc})") from None
    if [h.strip() for h in found] != header:
        raise ValueError(
            f"{path}: expected header {','.join(header)!r}, got {','.join(found)!r}"
        )
    del data
    dtype = [(name, np.float64 if name == "rating" else np.int64) for name in header]
    table = read_table(
        path, lambda p: _rescan_csv(p, dtype), rows, dtype=dtype, delimiter=",",
        quotechar='"', comments=None, skiprows=1, ndmin=1,
    )
    _check_rows(path, table, 2)
    return table


def _sample_users(users: np.ndarray, count: int, min_degree: int, seed: int,
                  path) -> np.ndarray:
    """``count`` distinct ids drawn from those listed >= ``min_degree`` times in ``users``,
    read from ``path``; the error when too few qualify names it. Selection is
    independent of the order of ``users`` and reproducible for a fixed seed."""
    ids, counts = np.unique(users, return_counts=True)
    eligible = ids[counts >= min_degree]
    if len(eligible) < count:
        raise ValueError(f"{path}: subset_users = {count}, but only {len(eligible)} users "
                         f"have min_user_degree = {min_degree} ratings")
    # PCG64 via default_rng: stable across platforms for a fixed seed.
    return np.random.default_rng(seed).choice(eligible, size=count, replace=False)


def load_ratings(path, spec: DatasetSpec | None = None) -> np.ndarray:
    """Load a ratings CSV as events, thresholding and optionally subsetting users;
    rejects a file, or a user sample, with no rating at the threshold."""
    spec = spec or DatasetSpec()
    table = _read_csv(path, RATINGS_HEADER)
    events = np.column_stack([table["user"], table["item"], table["timestamp"]])
    keep = table["rating"] >= spec.threshold
    dropped = int(keep.size - np.count_nonzero(keep))
    sampled = ""
    if spec.subset_users is not None:
        counted = events[:, 0] if spec.eligibility_pre_threshold else events[keep, 0]
        chosen = _sample_users(counted, spec.subset_users, spec.min_user_degree, spec.rng_seed,
                               path)
        keep &= np.isin(events[:, 0], chosen)
        sampled = " of the sampled users"
    if keep.size and not keep.any():
        raise ValueError(f"{path}: no rating{sampled} reaches the threshold {spec.threshold}")
    events = events[keep]
    log.info(
        "%s: %d events kept, %d below threshold %s%s",
        path, len(events), dropped, spec.threshold,
        f", subset to {spec.subset_users} users" if spec.subset_users is not None else "",
    )
    return events


def load_votes(path) -> np.ndarray:
    """Load a votes CSV: every row is an event."""
    # the table's three int64 fields are packed, so it views as the event rows
    return _read_csv(path, VOTES_HEADER).view(np.int64).reshape(-1, 3)


def load_dataset(path, spec: DatasetSpec) -> np.ndarray:
    """Load ``path`` as ``spec`` says; unlike the loaders, reject a header-only file."""
    events = load_votes(path) if spec.format == "votes" else load_ratings(path, spec)
    if not len(events):
        raise ValueError(f"{path}: no data rows")
    return events


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as a UTF-8 CSV with LF line ends. Pass
    Python scalars: ``csv`` writes a numpy float as its ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_votes_csv(events, path) -> None:
    """Write an ``(N, 3)`` array-like of (user, item, timestamp) rows as a votes CSV."""
    write_csv(path, VOTES_HEADER, np.asarray(events).tolist())
