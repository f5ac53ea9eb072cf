"""Verification pipeline: predictions, exact runs, grids, caching, reports.

predict builds the two sides of one tuple once each: the degree side
(the tuple's one DegreeModel: growth rate, linear coefficient and
per-residue constants) and the surface side (one SurfaceSide from a
single build of each edgepath system: boundary slope, Euler ratio and
the edgepath report).  A verification run states the two identities

    growth rate  == boundary slope
    half the linear coefficient == Euler characteristic / sheet count

as its first two flags, and nowhere else.  It also computes the
invariant itself for N = 1..N_max, checks the degrees against the closed
form and the exhaustive maximization, and fits a quadratic
quasi-polynomial when enough samples exist per residue class; the fit is
a coefficient tuple in the layout of the model's, so the two compare
with ==.  Report.to_json is the one writer of the verify report: the
classification, residue table, prediction, edgepath fragment, degrees,
least period, fit and flags all read the run's model, surface side and
flags; nothing is rebuilt per report.

grid_run checks jobs and n_max before it expands the grid and each
output's parent directory before any tuple runs, runs one verification
per tuple and writes the JSON report array and the CSV summary, whose
flag cells are read by their CSV_COLUMNS names.  The color
limits of the command line live in the cli module.

grid_run imports concurrent.futures only when it starts a process pool
(more than one worker), and csv only when it writes the CSV, so that
importing this module, and every command but verify --jobs > 1 or
--csv, loads neither multiprocessing nor csv.

All rationals are serialized as "p/q" strings and every JSON document is
dumped with sorted keys, so identical runs produce byte-identical output.
"""

from __future__ import annotations

import io
import json
import logging
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import degopt, edgepath
from .degopt import NoQuadraticFit, fit_quasi
from .jones import KnotParams, colored_jones, exponent_window
from .qlaurent import ONE, LaurentPoly, NonExactDivision, exact_div

log = logging.getLogger(__name__)


def predict(params):
    """(model, surface): the DegreeModel and the SurfaceSide of one tuple,
    each built once; the surface side's report holds the E1-E4 flags under
    "admissibility"."""
    return degopt.degree_model(params), edgepath.slope_report(params)


def least_period(model):
    """Least divisor of the model period with identical residue constants.

    The model period is a period of the degree sequence but may not be the
    least one; this reports the least one visible in the closed form.
    """
    p, constants = model.period, model.constants
    return next(q for q in range(1, p + 1) if p % q == 0
                and all(constants[j] == constants[j % q] for j in range(p)))


@dataclass
class Report:
    """Everything one verification run produced.

    It holds no timings, so that repeated runs emit byte-identical documents.
    model and surface are predict's pair, degrees holds one entry per
    color N = 1..n_max and fitted is fit_quasi's coefficient tuple, or
    None when a residue class has too few samples.
    """

    params: KnotParams
    model: degopt.DegreeModel
    surface: edgepath.SurfaceSide
    degrees: list
    n0: int | None
    fitted: tuple | None
    flags: dict

    def failed_checks(self):
        """The names of the false flags (unfitted entries are None, not
        false), then those of the conditions E1-E4 that the distinguished
        edgepath system fails; empty when the tuple verifies."""
        return ([name for name, value in self.flags.items() if value is False]
                + edgepath.failed_conditions(self.surface.report["admissibility"]))

    def to_json(self):
        """The verify report of this run, every section of it."""
        model, surface, cls = self.model, self.surface, self.model.classification
        residues = [{"j": res.j, "v_j": res.nearest_odd,
                     "beta_j": str(res.offset), "c_j": str(res.constant)}
                    for res in model.residues]
        fitted = None
        if self.fitted is not None:
            samples = [(N, d) for N, d, *_ in self.degrees]
            fitted = {
                "period": len(self.fitted),
                "n0": degopt.stabilization_threshold(self.fitted, samples),
                "coeffs": {
                    str(j): [str(a), str(tb), str(c)]
                    for j, (a, tb, c) in enumerate(self.fitted)
                },
            }
        return {
            "params": self.params.as_dict(),
            "n_max": len(self.degrees),
            "classification": {
                "A": cls.bb, "B": cls.bc, "C": cls.cc, "Delta": cls.disc,
                "case": cls.tag, "period": model.period, "residues": residues,
                "N0": self.n0,
            },
            "prediction": {
                "case": cls.tag,
                "period": model.period,
                "a": str(model.growth),
                "two_b": str(model.two_b),
                "b": str(Fraction(model.two_b, 2)),
                "constants": {str(j): str(c) for j, c in enumerate(model.constants)},
                "residues": residues,
                "edgepath_slope": str(surface.slope),
                "euler_ratio": str(surface.euler),
                "slope_match": self.flags["slope_match"],
                "euler_match": self.flags["euler_match"],
            },
            "edgepath": surface.report,
            "degrees": [
                {"N": N, "dplus": d, "leading": str(lead), "brute": bm,
                 "closed_form": cf}
                for N, d, lead, bm, cf in self.degrees
            ],
            "N0": self.n0,
            "least_period": least_period(model),
            "fit": fitted,
            "flags": dict(sorted(self.flags.items())),
        }


def _check_n_max(n_max):
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")


def run_verification(params, n_max, cache_dir=None):
    """Exact degrees against every prediction for N = 1..n_max."""
    _check_n_max(n_max)
    model, surface = predict(params)

    degrees = []
    for N in range(1, n_max + 1):
        poly = jones_cached(params, N, cache_dir)
        d, lead = poly.max_deg, poly.leading_coeff
        brute = degopt.brute_max_objective(params, N - 1)
        closed = degopt.closed_form_dplus(model, N)
        degrees.append((N, d, lead, brute, closed))

    samples = [(N, d) for N, d, *_ in degrees]
    n0 = degopt.stabilization_threshold(model.coeffs, samples)

    try:
        fitted = fit_quasi(samples, model.period)
    except NoQuadraticFit:
        fitted = None

    flags = {
        "slope_match": model.growth == surface.slope,
        "euler_match": Fraction(model.two_b, 2) == surface.euler,
        "degrees_match_closed_form": n0 is not None,
        "no_cancellation": all(d == bm for _, d, _, bm, _ in degrees),
        "leading_positive": all(lead > 0 for _, _, lead, _, _ in degrees),
        "j1_is_one": degrees[0][1] == 0 and degrees[0][2] == 1,
        "fit_matches_prediction": None if fitted is None else fitted == model.coeffs,
    }
    return Report(params, model, surface, degrees, n0, fitted, flags)


# -- polynomial cache -----------------------------------------------------


# Version of the cache record layout; cache_load discards other versions.
CACHE_FORMAT = 1


def _poly_fields(params, N, poly):
    return {
        "params": params.as_dict(),
        "N": N,
        "polynomial": poly.to_json(),
        "max_deg": poly.max_deg,
        "leading_coeff": str(poly.leading_coeff),
    }


def poly_record(params, N, poly):
    """One polynomial as the JSON line that `jones --format json` prints."""
    return json.dumps(_poly_fields(params, N, poly), sort_keys=True)


def cache_path(cache_dir, params, N):
    """The record file of one polynomial: <cache_dir>/<r>_<s>_<t>_<u>/<N>.json."""
    return Path(cache_dir) / f"{params.r}_{params.s}_{params.t}_{params.u}" / f"{N}.json"


def cache_store(cache_dir, params, N, poly):
    """Write one polynomial record to its cache_path.

    The record is the poly_record fields plus "format": CACHE_FORMAT.  It
    goes to a temporary file beside it and is renamed into place, so a
    reader never sees a partial record and a failed write leaves any
    earlier record intact and no temporary file behind.
    """
    path = cache_path(cache_dir, params, N)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    record = dict(_poly_fields(params, N, poly), format=CACHE_FORMAT)
    try:
        tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def cache_load(cache_dir, params, N):
    """Load a cached polynomial, discarding corrupt records with a warning.

    A record must carry format CACHE_FORMAT, and its polynomial must read
    back through LaurentPoly.from_json, which rejects exponents outside
    one coset mod 4 and, before it allocates any slot, exponents outside
    the state sum's exponent_window for the tuple and color, so that no
    record asks for more slots than the window holds.  Besides the stored
    degree and leading coefficient, it must meet two cheap invariants of
    every colored Jones polynomial: the classical limit J_N(1) = N (the
    coefficient sum) and even exponents only, which in one coset is an
    even lowest exponent.  Last, it must have Habiro's form
    J_N = [N] (1 + {N+1}{N-1} X) with X a Laurent polynomial in q = v^4
    and {m} = v^(2m) - v^(-2m) (K. Habiro, Invent. Math. 171, 2008): J_1
    is 1, and for N > 1 two exact_div calls check that [N] divides J_N and
    that {N+1}{N-1}, a monomial times (q^(N+1) - 1)(q^(N-1) - 1), divides
    J_N/[N] - 1.  It holds for every knot and uses no other color, and it
    refuses a middle term moved within its coset, which keeps every check
    before it.  Whatever text the record file holds, this
    returns None or a polynomial and never raises on it: text that json
    cannot parse, nested past the recursion limit included, is discarded
    like any other corrupt record, and so is a failed division.
    """
    path = cache_path(cache_dir, params, N)
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text())
        fmt = record.get("format") if isinstance(record, dict) else None
        if fmt != CACHE_FORMAT:
            raise ValueError(f"record format {fmt!r}, expected {CACHE_FORMAT}")
        if record["params"] != params.as_dict():
            raise ValueError("parameter mismatch")
        if record["N"] != N:
            raise ValueError("color mismatch")
        poly = LaurentPoly.from_json(record["polynomial"], exponent_window(params, N))
        if poly.max_deg != record["max_deg"]:
            raise ValueError("degree mismatch")
        if str(poly.leading_coeff) != record["leading_coeff"]:
            raise ValueError("leading coefficient mismatch")
        if sum(poly.coeffs) != N:
            raise ValueError("coefficient sum is not N (classical limit)")
        if poly.min_deg % 2:
            raise ValueError("odd exponent")
        if N == 1:
            if poly != ONE:
                raise ValueError("J_1 is not 1")
        else:
            # h = J_N/[N], as [N] = v^(-2(N-1)) (q^N - 1)/(q - 1); then h - 1,
            # its list padded to reach exponent 0 where h's span does not.
            h = exact_div(poly.shift(2 * (N - 1)), {N: 1, 1: -1})
            if h.lo % 4:
                raise ValueError("J_N/[N] is not a Laurent polynomial in v^4")
            low = min(h.lo, 0)
            coeffs = [0] * ((h.lo - low) // 4) + list(h.coeffs)
            coeffs += [0] * (1 - low // 4 - len(coeffs))
            coeffs[-low // 4] -= 1
            exact_div(LaurentPoly(coeffs, low), {N + 1: 1, N - 1: 1})
        return poly
    except (ValueError, KeyError, TypeError, RecursionError, NonExactDivision) as exc:
        log.warning("discarding corrupt cache record %s: %s", path, exc)
        return None


def jones_cached(params, N, cache_dir):
    """colored_jones through the cache in cache_dir, if one is given.

    On a miss the tuple's cache directory is made before the polynomial
    is computed, so a cache_dir that cannot hold records fails first.
    """
    if cache_dir is None:
        return colored_jones(params, N)
    cached = cache_load(cache_dir, params, N)
    if cached is not None:
        return cached
    cache_path(cache_dir, params, N).parent.mkdir(parents=True, exist_ok=True)
    poly = colored_jones(params, N)
    cache_store(cache_dir, params, N, poly)
    return poly


# -- parameter grids ------------------------------------------------------


def parse_grid(spec):
    """Expand a grid spec like 'r=-9..-3;s=2..6;t=3..7;u=-5..-1'.

    Values may also be comma lists.  Returns (valid KnotParams list,
    skipped count); tuples violating the family constraints are skipped
    silently but counted.  A value that is not an integer, a reversed
    range, a repeated variable and a repeated comma value each raise
    ValueError naming the clause.
    """
    ranges = {}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, body = clause.partition("=")
        name = name.strip()
        if name not in ("r", "s", "t", "u"):
            raise ValueError(f"unknown grid variable {name!r}")
        if name in ranges:
            raise ValueError(f"repeated grid variable in clause {clause!r}")
        lo, dots, hi = body.partition("..")
        try:
            values = (range(int(lo), int(hi) + 1) if dots
                      else [int(x) for x in body.split(",")])
        except ValueError:
            raise ValueError(f"non-integer value in grid clause {clause!r}") from None
        if not values:
            raise ValueError(f"reversed range in grid clause {clause!r}")
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate value in grid clause {clause!r}")
        ranges[name] = values
    missing = {"r", "s", "t", "u"} - set(ranges)
    if missing:
        raise ValueError(f"grid spec missing {sorted(missing)}")
    valid, skipped = [], 0
    for r in ranges["r"]:
        for s in ranges["s"]:
            for t in ranges["t"]:
                for u in ranges["u"]:
                    try:
                        valid.append(KnotParams(r, s, t, u))
                    except ValueError:
                        skipped += 1
    return valid, skipped


def _run_one(args):
    params, n_max, cache_dir = args
    report = run_verification(params, n_max, cache_dir)
    return report.to_json(), report.failed_checks()


CSV_COLUMNS = [
    "r", "s", "t", "u", "case", "period", "slope", "two_b", "N0",
    "slope_match", "euler_match", "degrees_match_closed_form",
    "no_cancellation", "leading_positive", "j1_is_one",
    "fit_matches_prediction",
]


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _csv_row(doc):
    """One CSV_COLUMNS row: the parameters, case, period, slope, two_b and
    N0, then the flags under their column names."""
    params, prediction = doc["params"], doc["prediction"]
    head = [params["r"], params["s"], params["t"], params["u"],
            doc["classification"]["case"], prediction["period"], prediction["a"],
            prediction["two_b"], doc["N0"]]
    flags = [doc["flags"][name] for name in CSV_COLUMNS[len(head):]]
    return [_fmt_cell(value) for value in head + flags]


def _check_parent(path):
    """Raise now, naming path, the OSError that writing path would raise
    for want of a parent directory: FileNotFoundError for a missing one,
    NotADirectoryError for a file.  Creates nothing."""
    path = Path(path)
    try:
        os.stat(f"{path.parent}/")  # the trailing slash resolves it as a directory
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def grid_run(spec, n_max, out_json=None, out_csv=None, jobs=1, cache_dir=None):
    """Run the verification over a parameter grid and write the reports.

    Returns a summary dict with verified/mismatched/skipped counts and,
    under "mismatches", one ((r, s, t, u), failed check names) pair per
    mismatched tuple, in grid order.  The JSON array and CSV are written
    deterministically; an output whose parent is not a directory, or a
    JSON and a CSV output that resolve to one file, is an error raised
    before any tuple runs, and an output that fails later is
    written past: the other one is still written, and then the first error
    is raised.  jobs below 1 and n_max below 4 are errors, raised before
    the grid is expanded; at most min(jobs, tuple count, CPU count) worker
    processes are started.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    _check_n_max(n_max)
    tuples, skipped = parse_grid(spec)
    if out_json is not None and out_csv is not None and \
            Path(out_json).resolve() == Path(out_csv).resolve():
        raise ValueError(f"--out and --csv name the same file {out_csv}")
    for path in (out_json, out_csv):
        if path is not None:
            _check_parent(path)
    worker_args = [(p, n_max, cache_dir) for p in tuples]
    workers = min(jobs, len(tuples), os.cpu_count() or 1)
    started = time.monotonic()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, worker_args))
    else:
        results = [_run_one(a) for a in worker_args]
    elapsed = time.monotonic() - started

    docs = [doc for doc, _ in results]
    mismatches = [(p.astuple(), failed)
                  for p, (_, failed) in zip(tuples, results) if failed]

    outputs = []
    if out_json is not None:
        outputs.append((out_json, json.dumps(docs, sort_keys=True, indent=2) + "\n"))
    if out_csv is not None:
        import csv

        rows = io.StringIO()
        csv.writer(rows, lineterminator="\n").writerows(
            [CSV_COLUMNS] + [_csv_row(doc) for doc in docs])
        outputs.append((out_csv, rows.getvalue()))
    first_error = None
    for path, text in outputs:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            first_error = first_error or exc
    if first_error is not None:
        raise first_error

    return {
        "tuples": len(tuples),
        "verified": len(tuples) - len(mismatches),
        "mismatched": len(mismatches),
        "mismatches": mismatches,
        "skipped": skipped,
        "elapsed": elapsed,
    }
