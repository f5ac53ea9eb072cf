"""predict, verification runs and their report, grids, caching, CLI, determinism."""

import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import knotslope
from knotslope.cli import main
from knotslope.degopt import classify, degree_model
from knotslope.edgepath import (
    check_admissible,
    failed_conditions,
    gamma_system,
    seifert_system,
    slope_report,
)
from knotslope.jones import KnotParams, colored_jones
from knotslope.pipeline import (
    CACHE_FORMAT,
    CSV_COLUMNS,
    _csv_row,
    cache_load,
    cache_path,
    cache_store,
    grid_run,
    least_period,
    parse_grid,
    poly_record,
    predict,
    run_verification,
)
from knotslope.qlaurent import LaurentPoly


def test_predict_examples():
    model, surface = predict(KnotParams(-3, 2, 3, -3))
    assert model.growth == 2 and model.two_b == -6
    assert surface.slope == 2 and surface.euler == -3

    model, surface = predict(KnotParams(-3, 4, 5, -1))
    assert model.growth == 0 and model.two_b == -2
    assert surface.slope == 0 and surface.euler == -1

    model, surface = predict(KnotParams(-5, 2, 3, -1))
    assert model.growth == 6 == surface.slope
    assert Fraction(model.two_b, 2) == -3 == surface.euler


# SHA-256 of the slope report and the report's prediction section, one
# sorted-key JSON line per tuple, over a grid that reaches all five case
# tags and the chain cuts k = 0..6 of the interior-ending system.
SLOPE_GRID = ((-3, -5, -7, -9), (2, 4, 6, 8), (3, 5, 7, 9), (-1, -3, -5))
SLOPE_DIGEST = "b495091ac883953ad7992db5bc0a1bd4630fbaba1ede1900aa0cf30baa171ab8"


@pytest.fixture(scope="module")
def slope_grid_reports():
    """(params, verify report at n_max = 4) of every SLOPE_GRID tuple, in
    grid order, shared by the two digest pins."""
    grid = [KnotParams(*tup) for tup in itertools.product(*SLOPE_GRID)]
    return [(params, run_verification(params, 4).to_json()) for params in grid]


def test_slope_report_digest_pin(slope_grid_reports):
    digest = hashlib.sha256()
    for params, report in slope_grid_reports:
        doc = {"slope_report": slope_report(params).report,
               "predict": report["prediction"]}
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == SLOPE_DIGEST


def test_report_admissibility_is_check_admissible_of_the_distinguished_system():
    # The report states the E1-E4 flags once: check_admissible's dict of
    # the interior-ending system in the quadratic case, of the Seifert
    # system otherwise.
    for tup in itertools.product(*SLOPE_GRID):
        params = KnotParams(*tup)
        build = gamma_system if classify(params).quadratic else seifert_system
        flags = check_admissible(build(params))
        assert slope_report(params).report["admissibility"] == flags, tup
        assert failed_conditions(flags) == [] and flags["lemma41"] == (build is gamma_system)


# SHA-256 of the whole verification report, one sorted-key JSON line per
# tuple of SLOPE_GRID at n_max = 4: classification, prediction, edgepath,
# degrees, N0, least period, fit (present or null) and flags.  CSV_DIGEST
# is that of the CSV summary of the same reports: the CSV_COLUMNS header,
# then one _csv_row per tuple, as grid_run writes them.
REPORT_DIGEST = "4ffb2742c7ac9910f547a34ce862fb4a20e807f79492a5f85843219f0aba30cb"
CSV_DIGEST = "6f6d662ed7d8c801a89bb4f25c7af52f63085badaeab9b9323a4b1bd4d07af7a"


def test_verification_report_digest_pin(slope_grid_reports):
    digest = hashlib.sha256()
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for _, doc in slope_grid_reports:
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
        writer.writerow(_csv_row(doc))
    assert digest.hexdigest() == REPORT_DIGEST
    assert hashlib.sha256(rows.getvalue().encode()).hexdigest() == CSV_DIGEST


@pytest.mark.parametrize("tup, classes", [((-3, 2, 3, -3), 2), ((-3, 6, 5, -3), 0)])
def test_each_system_and_residue_class_built_once(tup, classes, monkeypatch):
    # One quadratic and one linear tuple: a verification run and its
    # report build each edgepath system at most once, check admissibility
    # once and compute each residue class once.
    import knotslope.degopt as degopt_mod
    import knotslope.edgepath as edgepath_mod

    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("seifert_system", "gamma_system", "check_admissible"):
        counted(edgepath_mod, name)
    counted(degopt_mod, "residue_data")
    run_verification(KnotParams(*tup), 6).to_json()
    assert calls["seifert_system"] == 1
    assert calls["gamma_system"] == (1 if classes else 0)
    assert calls["check_admissible"] == 1
    assert calls["residue_data"] == classes


def test_least_period():
    assert least_period(degree_model(KnotParams(-3, 2, 3, -3))) == 2
    assert least_period(degree_model(KnotParams(-3, 4, 5, -1))) == 1
    # The least period is a proper divisor of the model period.
    model = degree_model(KnotParams(-5, 4, 5, -1))
    assert model.period == 4 and least_period(model) == 2
    model = degree_model(KnotParams(-5, 4, 9, -1))
    assert model.period == 6 and least_period(model) == 3


def test_run_verification_case1():
    report = run_verification(KnotParams(-3, 2, 3, -3), 6)
    assert report.failed_checks() == []
    assert report.n0 is not None and report.n0 <= 4
    assert report.flags["fit_matches_prediction"] is True
    doc = report.to_json()
    assert doc["degrees"][4]["dplus"] == 24
    assert "elapsed" not in json.dumps(doc)


def test_run_verification_case2():
    report = run_verification(KnotParams(-3, 4, 5, -1), 6)
    assert report.failed_checks() == []
    degrees = {N: d for N, d, *_ in report.degrees}
    for N in range(2, 7):
        assert degrees[N] == -2 * (N - 1)


def test_run_verification_rejects_small_nmax():
    with pytest.raises(ValueError):
        run_verification(KnotParams(-3, 2, 3, -3), 3)
    # grid_run refuses it before it parses the grid, so the reversed range
    # goes unreported.
    with pytest.raises(ValueError, match="need n_max >= 4, got 3"):
        grid_run("r=-3..-5;s=2;t=3;u=-1", 3)


def test_invalid_params_rejected_at_parse():
    with pytest.raises(ValueError):
        KnotParams(-3, 3, 3, -1)


def test_parse_grid():
    tuples, skipped = parse_grid("r=-5..-3;s=2..4;t=3..5;u=-3..-1")
    assert len(tuples) == 16
    assert skipped == 65
    assert all(p.r in (-5, -3) and p.s in (2, 4) for p in tuples)
    tuples, skipped = parse_grid("r=-3;s=2;t=3,5;u=-1")
    assert [p.astuple() for p in tuples] == [(-3, 2, 3, -1), (-3, 2, 5, -1)]
    # Empty clauses, as from a trailing or doubled ';', are skipped.
    assert parse_grid("r=-3;s=2;;t=3,5;u=-1;") == (tuples, skipped)
    with pytest.raises(ValueError):
        parse_grid("r=-3;s=2;t=3")
    with pytest.raises(ValueError):
        parse_grid("r=-3;s=2;t=3;u=-1;x=1")
    with pytest.raises(ValueError, match="r=-3..-5"):
        parse_grid("r=-3..-5;s=2..4;t=3..5;u=-3..-1")
    with pytest.raises(ValueError, match="'r=-5'"):
        parse_grid("r=-3;s=2;t=3;u=-1;r=-5")
    with pytest.raises(ValueError, match="'t=3,3'"):
        parse_grid("r=-3;s=2;t=3,3;u=-1")
    with pytest.raises(ValueError, match="'u=-1,-3,-1'"):
        parse_grid("r=-3;s=2;t=3;u=-1,-3,-1")
    # A value that is not an integer names its clause too.
    with pytest.raises(ValueError, match="'r=-3..'"):
        parse_grid("r=-3..;s=2;t=3;u=-1")
    with pytest.raises(ValueError, match="'r=a'"):
        parse_grid("r=a;s=2;t=3;u=-1")


def test_grid_run_small(tmp_path):
    out = tmp_path / "report.json"
    summary_csv = tmp_path / "summary.csv"
    summary = grid_run(
        "r=-3;s=2;t=3;u=-3..-1", 4, out_json=out, out_csv=summary_csv
    )
    assert summary["tuples"] == 2
    assert summary["mismatched"] == 0 and summary["mismatches"] == []
    assert summary["skipped"] == 1
    docs = json.loads(out.read_text())
    assert len(docs) == 2
    rows = summary_csv.read_text().splitlines()
    assert len(rows) == 3 and rows[0].startswith("r,s,t,u,case")


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_grid_run_caps_workers(tmp_path, monkeypatch):
    # No process is started: the pool records its size and runs serially.
    # grid_run reads the pool class from concurrent.futures when it starts one.
    import concurrent.futures

    import knotslope.pipeline as pipeline_mod

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    two = "r=-3;s=2;t=3;u=-3..-1"
    eight = "r=-5..-3;s=2..4;t=3;u=-3..-1"
    cases = ((4, two, 1, None), (4, two, 5000, 2), (4, eight, 3, 3),
             (4, eight, 5000, 4), (None, two, 8, None))
    for i, (cpus, grid, jobs, workers) in enumerate(cases):
        monkeypatch.setattr(pipeline_mod.os, "cpu_count", lambda: cpus)
        RecordingPool.started.clear()
        grid_run(grid, 4, out_json=tmp_path / f"{i}.json", jobs=jobs)
        assert RecordingPool.started == ([] if workers is None else [workers])
    # serial and 5000 requested jobs write the same report
    assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()


def test_cli_verify_rejects_jobs_below_one(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    RecordingPool.started.clear()
    for jobs in ("0", "-3"):
        out = tmp_path / "x.json"
        rc = main(["verify", "--grid", "r=-3;s=2;t=3;u=-1", "--n-max", "4",
                   "--out", str(out), "--csv", str(tmp_path / "x.csv"), "--jobs", jobs])
        assert rc == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.csv").exists()
    assert RecordingPool.started == []


# Runs in a fresh interpreter: the commands that start no pool and write
# no CSV, then the list of the pool and CSV modules they loaded.
STARTUP_SCRIPT = """
import sys
from knotslope.cli import main
tup = ["-r", "-3", "-s", "2", "-t", "3", "-u", "-3"]
for argv in (["slope", *tup], ["degree", *tup, "--method", "brute"],
             ["jones", *tup, "-N", "3"],
             ["verify", "--grid", "r=-3;s=2;t=3;u=-3", "--n-max", "4",
              "--jobs", "1", "--out", sys.argv[1]]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
print("loaded:", [m for m in ("concurrent.futures", "multiprocessing", "csv")
                  if m in sys.modules])
"""


def test_serial_commands_load_no_pool_or_csv(tmp_path):
    # A cold process pays for what it imports: only verify --jobs > 1
    # needs the process pool and only --csv needs csv.
    src = str(Path(knotslope.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path / "r.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "loaded: []"
    assert json.loads((tmp_path / "r.json").read_text())[0]["params"]["r"] == -3


def test_grid_run_empty(tmp_path):
    out_csv = tmp_path / "empty.csv"
    summary = grid_run("r=-3;s=3;t=3;u=-1", 4, out_csv=out_csv)
    assert summary["tuples"] == 0 and summary["skipped"] == 1
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 1


def test_grid_run_sixteen_tuple_example(tmp_path):
    out = tmp_path / "grid.json"
    summary_csv = tmp_path / "grid.csv"
    summary = grid_run(
        "r=-5..-3;s=2..4;t=3..5;u=-3..-1", 5,
        out_json=out, out_csv=summary_csv, jobs=4,
    )
    assert summary["tuples"] == 16
    assert summary["verified"] == 16 and summary["mismatched"] == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 16
    for doc in docs:
        assert not any(v is False for v in doc["flags"].values())
    assert len(summary_csv.read_text().splitlines()) == 17


def test_grid_case2_only_slopes_zero(tmp_path):
    out = tmp_path / "case2.json"
    grid_run("r=-3;s=4;t=5;u=-3..-1", 4, out_json=out)
    docs = json.loads(out.read_text())
    assert len(docs) == 2
    assert all(doc["prediction"]["a"] == "0" for doc in docs)
    assert all(doc["edgepath"]["slope"] == "0" for doc in docs)


def test_cache_round_trip(tmp_path, caplog):
    params = KnotParams(-3, 2, 3, -3)
    poly = colored_jones(params, 3)
    assert cache_load(tmp_path, params, 3) is None
    path = cache_store(tmp_path, params, 3, poly)
    assert path == tmp_path / "-3_2_3_-3" / "3.json"
    assert path.exists()
    assert cache_load(tmp_path, params, 3) == poly
    # J_2 of (-3, 2, t, -1) has 6 terms over a span that grows with t: 20%
    # of its slots filled at t = 25, 13% at t = 41.  Such sparse records
    # are valid and are served too, with no discard warning.
    for t in (25, 41):
        params = KnotParams(-3, 2, t, -1)
        poly = colored_jones(params, 2)
        assert 5 * len(poly) <= len(poly.coeffs)
        cache_store(tmp_path, params, 2, poly)
        with caplog.at_level("WARNING"):
            assert cache_load(tmp_path, params, 2) == poly
    assert "discarding" not in caplog.text


def test_cache_discards_corrupt(tmp_path, caplog):
    params = KnotParams(-3, 2, 3, -3)
    poly = colored_jones(params, 2)
    path = cache_store(tmp_path, params, 2, poly)

    path.write_text("{ not json")
    with caplog.at_level("WARNING"):
        assert cache_load(tmp_path, params, 2) is None
    assert "corrupt" in caplog.text

    record = json.loads(cache_store(tmp_path, params, 2, poly).read_text())
    record["max_deg"] = record["max_deg"] + 2
    path.write_text(json.dumps(record))
    assert cache_load(tmp_path, params, 2) is None

    # A record of another tuple, another color, with a wrong leading
    # coefficient, with an exponent given twice, with a term outside the
    # [int exponent, "decimal coefficient"] form, with exponents in two
    # cosets mod 4, or with one exponent moved 10^12 slots down is
    # discarded, then recomputed and rewritten.  Coerced with int(), each
    # malformed term below would read back as the stored polynomial; the
    # moved exponent lies outside the tuple's exponent window and is
    # refused before a slot is allocated.
    import knotslope.pipeline as pipeline_mod

    pristine = json.loads(cache_store(tmp_path, params, 2, poly).read_text())
    top = pristine["polynomial"][0]
    rest = pristine["polynomial"][1:]
    e, c = top[0], int(top[1])
    toward_zero = (1 if e >= 0 else -1, 1 if c >= 0 else -1)
    malformed = "malformed JSON term"
    for field, value, reason in (
            ("params", KnotParams(-5, 2, 3, -3).as_dict(), "parameter mismatch"),
            ("N", 3, "color mismatch"),
            ("leading_coeff", "3", "leading coefficient mismatch"),
            ("polynomial", [top, [top[0], "0"]] + rest, f"duplicate exponent {top[0]}"),
            ("polynomial", [[e + toward_zero[0] / 2, top[1]]] + rest, malformed),
            ("polynomial", [[str(e), top[1]]] + rest, malformed),
            ("polynomial", [[True, "0"], top] + rest, malformed),
            ("polynomial", [[e, c + toward_zero[1] * 0.9]] + rest, malformed),
            ("polynomial", [[e, c]] + rest, malformed),
            ("polynomial", [top] + rest[:-1] + [[rest[-1][0] + 2, rest[-1][1]]],
             "different cosets mod 4"),
            ("polynomial", [top] + rest[:-1] + [[rest[-1][0] - 4 * 10 ** 12, rest[-1][1]]],
             f"JSON exponent {rest[-1][0] - 4 * 10 ** 12} outside")):
        path.write_text(json.dumps(dict(pristine, **{field: value})))
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert cache_load(tmp_path, params, 2) is None
        assert reason in caplog.text
        assert pipeline_mod.jones_cached(params, 2, tmp_path) == poly
        assert json.loads(path.read_text()) == pristine

    cache_store(tmp_path, params, 2, poly)
    assert cache_load(tmp_path, params, 2) == poly


def test_cache_discards_records_failing_invariants(tmp_path, caplog):
    # Middle-term corruption keeps the stored degree and leading
    # coefficient right; only J_N(1) = N, the exponents' one coset mod 4
    # and the even exponents catch it.  Moved by 2, a middle exponent
    # keeps J_N(1), the degree, the leading coefficient and even
    # exponents, and only its coset tells.  Every exponent moved by 1,
    # with the stored degree, stays in one coset but is odd; moved by 2,
    # it is even, and only Habiro's form tells: J_N/[N] leaves Z[v^4].
    # Each record is discarded with a warning, recomputed and rewritten.
    import knotslope.pipeline as pipeline_mod

    params = KnotParams(-3, 2, 3, -3)
    poly = colored_jones(params, 4)
    path = cache_store(tmp_path, params, 4, poly)
    stored = path.read_text()
    pristine = json.loads(stored)
    mid = len(pristine["polynomial"]) // 2

    def corrupt(coeff_delta, exp_delta):
        record = json.loads(stored)
        pairs = record["polynomial"]
        pairs[mid][1] = str(int(pairs[mid][1]) + coeff_delta)
        pairs[mid + 1][0] += exp_delta
        return record

    def moved(exp_delta):
        return dict(pristine, max_deg=pristine["max_deg"] + exp_delta,
                    polynomial=[[e + exp_delta, c] for e, c in pristine["polynomial"]])

    for record, reason in ((corrupt(7, 1), "different cosets mod 4"),
                           (corrupt(7, 0), "classical limit"),
                           (corrupt(0, 1), "different cosets mod 4"),
                           (corrupt(0, 2), "different cosets mod 4"),
                           (moved(1), "odd exponent"),
                           (moved(2), "J_N/[N] is not a Laurent polynomial in v^4")):
        path.write_text(json.dumps(record))
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert cache_load(tmp_path, params, 4) is None
        assert "discarding corrupt cache record" in caplog.text and reason in caplog.text
        assert pipeline_mod.jones_cached(params, 4, tmp_path) == poly
        assert path.read_text() == stored
    path.write_text(json.dumps(corrupt(0, 0)))
    assert cache_load(tmp_path, params, 4) == poly


def test_cache_discards_records_of_another_format(tmp_path, caplog):
    # A record without "format", as earlier versions wrote it, or with a
    # different one is discarded and recomputed; a current record loads.
    import knotslope.pipeline as pipeline_mod

    params = KnotParams(-3, 2, 3, -3)
    poly = colored_jones(params, 3)
    path = pipeline_mod.cache_path(tmp_path, params, 3)
    path.parent.mkdir(parents=True)
    for fmt in (None, pipeline_mod.CACHE_FORMAT + 1):
        record = json.loads(pipeline_mod.poly_record(params, 3, poly))
        if fmt is not None:
            record["format"] = fmt
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert cache_load(tmp_path, params, 3) is None
        assert "format" in caplog.text
        assert pipeline_mod.jones_cached(params, 3, tmp_path) == poly
        assert json.loads(path.read_text())["format"] == pipeline_mod.CACHE_FORMAT
        caplog.clear()
        assert cache_load(tmp_path, params, 3) == poly
        assert not caplog.text


def test_cache_discards_nested_record(tmp_path, caplog):
    # 100,000 nested brackets make json.loads raise RecursionError; the
    # record is discarded like any other corrupt one, then recomputed and
    # rewritten.
    import knotslope.pipeline as pipeline_mod

    params = KnotParams(-3, 2, 3, -3)
    poly = colored_jones(params, 2)
    path = cache_store(tmp_path, params, 2, poly)
    stored = path.read_bytes()
    path.write_text("[" * 100_000)
    with caplog.at_level("WARNING"):
        assert cache_load(tmp_path, params, 2) is None
    assert "discarding corrupt cache record" in caplog.text
    assert pipeline_mod.jones_cached(params, 2, tmp_path) == poly
    assert path.read_bytes() == stored


_CACHED_PARAMS = KnotParams(-3, 2, 3, -3)
_CACHED_RECORD = json.dumps(dict(json.loads(poly_record(
    _CACHED_PARAMS, 2, colored_jones(_CACHED_PARAMS, 2))), format=CACHE_FORMAT), sort_keys=True)


def _spliced(i, j, insert):
    return _CACHED_RECORD[:i] + insert + _CACHED_RECORD[j:]


# One inserted digit moves the v^-14 term of J_2 to v^-114: every check
# before Habiro's form holds, and [2] does not divide the result.
_MOVED_TERM_RECORD = _CACHED_RECORD.replace("[-14, ", "[-114, ")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(
    st.text(),
    st.just(_CACHED_RECORD),
    st.builds(_spliced, st.integers(0, len(_CACHED_RECORD)),
              st.integers(0, len(_CACHED_RECORD)), st.text(max_size=8)),
    st.builds(str.__mul__, st.sampled_from(["[", "{\"a\":", "[[", "-"]),
              st.integers(0, 200_000)),
))
@example(text=_MOVED_TERM_RECORD)
def test_cache_load_never_raises_on_any_record_text(tmp_path, caplog, text):
    # Whatever text the record file holds, cache_load never raises: it
    # returns None with the discard warning, or a polynomial that meets
    # the record invariants, and the valid one for the pristine record.
    # Which altered records are refused is the next test's concern.
    path = cache_path(tmp_path, _CACHED_PARAMS, 2)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    caplog.clear()
    with caplog.at_level("WARNING"):
        poly = cache_load(tmp_path, _CACHED_PARAMS, 2)
    if poly is None:
        assert "discarding corrupt cache record" in caplog.text
    else:
        assert sum(poly.coeffs) == 2 and poly.min_deg % 2 == 0
    if text == _CACHED_RECORD:
        assert poly == colored_jones(_CACHED_PARAMS, 2)


def test_cache_refuses_a_middle_exponent_moved_within_its_coset(tmp_path, caplog):
    # The degree, leading coefficient, J_N(1), the coset mod 4 and the
    # window all hold for _MOVED_TERM_RECORD; the division by [2] fails.
    assert _MOVED_TERM_RECORD != _CACHED_RECORD
    path = cache_path(tmp_path, _CACHED_PARAMS, 2)
    path.parent.mkdir(parents=True)
    path.write_text(_MOVED_TERM_RECORD)
    with caplog.at_level("WARNING"):
        assert cache_load(tmp_path, _CACHED_PARAMS, 2) is None
    assert "discarding corrupt cache record" in caplog.text
    assert "nonzero remainder mod v^8 - 1" in caplog.text


def test_cache_refuses_coefficient_swaps_that_keep_every_earlier_check(tmp_path, caplog):
    # +d on one inner slot and -d on another keeps J_N(1), the coset, the
    # degree, the leading coefficient and the lowest exponent, so only
    # Habiro's form can refuse the record, and it always does: the change
    # d v^e (q^k - 1), divided by [N], keeps one factor q - 1, while
    # {N+1}{N-1} has two.
    rng = random.Random(0)
    for tup in ((-3, 2, 3, -3), (-3, 6, 5, -3)):
        params = KnotParams(*tup)
        for N in range(2, 7):
            poly = colored_jones(params, N)
            for _ in range(40):
                i, j = rng.sample(range(1, len(poly.coeffs) - 1), 2)
                d = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(0, 6))
                coeffs = list(poly.coeffs)
                coeffs[i] += d
                coeffs[j] -= d
                cache_store(tmp_path, params, N, LaurentPoly(coeffs, poly.lo))
                caplog.clear()
                with caplog.at_level("WARNING"):
                    assert cache_load(tmp_path, params, N) is None, (tup, N, i, j, d)
                assert "nonzero remainder" in caplog.text


def test_cache_refuses_a_j1_other_than_one(tmp_path, caplog):
    # v^2 in place of J_1 = 1 keeps J_N(1), one coset, an even exponent
    # and the degree and leading coefficient as stored; Habiro's form
    # needs J_1 = 1.  It is discarded, recomputed and rewritten.
    import knotslope.pipeline as pipeline_mod

    params = KnotParams(-3, 2, 3, -3)
    stored = cache_store(tmp_path, params, 1, colored_jones(params, 1)).read_text()
    path = cache_store(tmp_path, params, 1, LaurentPoly((1,), 2))
    with caplog.at_level("WARNING"):
        assert cache_load(tmp_path, params, 1) is None
    assert "discarding corrupt cache record" in caplog.text and "J_1 is not 1" in caplog.text
    assert pipeline_mod.jones_cached(params, 1, tmp_path) == colored_jones(params, 1)
    assert path.read_text() == stored


# One tuple of each case tag: 1, 2.2, 2.1, 2.3 and 2.4.
TAG_TUPLES = ((-3, 2, 3, -3), (-3, 6, 5, -3), (-5, 6, 7, -1), (-5, 8, 9, -1), (-3, 4, 5, -3))


def test_cache_loads_every_valid_record(tmp_path, caplog):
    # Habiro's form holds for every knot, so no valid record is discarded:
    # each of the 16-tuple bench grid for N <= 6, and of one tuple of each
    # tag for N <= 9, loads back as stored, with no warning.
    grid, _ = parse_grid("r=-5..-3;s=2..4;t=3..5;u=-3..-1")
    assert len(grid) == 16
    cases = [(params, N) for params in grid for N in range(1, 7)]
    cases += [(KnotParams(*tup), N) for tup in TAG_TUPLES for N in range(1, 10)]
    assert sorted({degree_model(params).classification.tag for params, _ in cases}) == [
        "1", "2.1", "2.2", "2.3", "2.4"]
    with caplog.at_level("WARNING"):
        for params, N in cases:
            poly = colored_jones(params, N)
            cache_store(tmp_path, params, N, poly)
            assert cache_load(tmp_path, params, N) == poly, (params, N)
    assert not caplog.text


def test_cache_store_is_atomic(tmp_path, monkeypatch):
    import knotslope.pipeline as pipeline_mod

    params = KnotParams(-3, 2, 3, -3)
    path = cache_store(tmp_path, params, 2, colored_jones(params, 2))
    before = path.read_bytes()
    record = json.loads(pipeline_mod.poly_record(params, 2, colored_jones(params, 2)))
    record["format"] = pipeline_mod.CACHE_FORMAT
    assert before == (json.dumps(record, sort_keys=True) + "\n").encode()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline_mod.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        cache_store(tmp_path, params, 2, colored_jones(params, 3))
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == ["2.json"]
    assert cache_load(tmp_path, params, 2) == colored_jones(params, 2)


def test_verification_cache_transparent(tmp_path):
    params = KnotParams(-3, 2, 3, -3)
    cold = run_verification(params, 4, cache_dir=tmp_path)
    warm = run_verification(params, 4, cache_dir=tmp_path)
    assert cold.to_json() == warm.to_json()
    no_cache = run_verification(params, 4)
    assert no_cache.to_json() == cold.to_json()


def test_cli_jones_text_and_json(capsys):
    assert main(["jones", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3", "-N", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1*v^0"
    assert main(
        ["jones", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3", "-N", "2",
         "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_deg"] == -2 and doc["leading_coeff"] == "2"


def test_cli_jones_ceiling(capsys):
    rc = main(["jones", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3", "-N", "12"])
    assert rc == 1
    assert "ceiling" in capsys.readouterr().err


def test_cli_degree_methods_agree(capsys):
    base = ["degree", "-r", "-3", "-s", "2", "-t", "3", "-u", "-1", "--n-max", "4",
            "--format", "json"]
    outputs = {}
    for method in ("exact", "brute", "fast", "closed"):
        assert main(base + ["--method", method]) == 0
        outputs[method] = json.loads(capsys.readouterr().out)["degrees"]
    assert outputs["exact"] == outputs["brute"] == outputs["fast"] == outputs["closed"]


def test_cli_degree_exact_ceiling(capsys):
    base = ["degree", "-r", "-3", "-s", "2", "-t", "3", "-u", "-1", "--n-max", "10"]
    assert main(base + ["--method", "exact"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --n-max above the ceiling 9\n"
    assert captured.out == ""
    assert main(base[:-1] + ["0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --n-max must be >= 1\n"
    assert captured.out == ""
    for method in ("brute", "fast", "closed"):
        assert main(base + ["--method", method]) == 0
        assert capsys.readouterr().out.count("\n") == 10


def test_cli_slope(capsys):
    assert main(["slope", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["slope"] == "2"


def test_cli_slope_exit_code_on_inadmissible_system(capsys, monkeypatch):
    # slope prints its report in full, names the failed conditions on
    # stderr and exits 2 when the distinguished system fails E1-E4.
    import knotslope.edgepath as edgepath_mod

    real = edgepath_mod.check_admissible

    def failing_e3(system):
        return {**real(system), "E3": False}

    monkeypatch.setattr(edgepath_mod, "check_admissible", failing_e3)
    assert main(["slope", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3"]) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["slope"] == "2" and doc["admissibility"]["E3"] is False
    assert captured.err == "mismatch: (-3, 2, 3, -3): E3\n"


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["jones", "-r", "-3"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 1


def test_cli_invalid_params_exit_code(tmp_path, capsys):
    rc = main(["jones", "-r", "-4", "-s", "2", "-t", "3", "-u", "-3", "-N", "2"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    out = tmp_path / "x.json"
    rc = main(["verify", "--grid", "r=-3..-5;s=2..4;t=3..5;u=-3..-1", "--out", str(out)])
    assert rc == 1
    assert "'r=-3..-5'" in capsys.readouterr().err
    assert not out.exists()
    rc = main(["verify", "--grid", "r=-3;s=2;t=3;u=-1", "--n-max", "10",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --n-max above the ceiling 9\n"
    assert not out.exists()
    # n_max below 4 is refused also for a grid that yields no tuple.
    rc = main(["verify", "--grid", "r=-2;s=2;t=3;u=-1", "--n-max", "1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: need n_max >= 4, got 1\n"
    assert not out.exists()
    for grid, clause in (("r=-3;s=2;t=3;u=-1;r=-5", "'r=-5'"),
                         ("r=-3;s=2;t=3,3;u=-1", "'t=3,3'")):
        rc = main(["verify", "--grid", grid, "--out", str(out)])
        assert rc == 1
        assert clause in capsys.readouterr().err
        assert not out.exists()


def test_cli_file_errors_exit_code(tmp_path, capsys, monkeypatch):
    # An --out that fails at write time (it is a directory) still lets
    # --csv be written in full, and such a --csv lets --out be; a cache
    # path under a regular file fails before any polynomial is computed.
    # Each is one error line, exit 1.
    args = ["verify", "--grid", "r=-3;s=2;t=3;u=-3..-1", "--n-max", "4"]
    assert main(args + ["--out", str(tmp_path / "ok.json"),
                        "--csv", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.mkdir()
    for out, csv_path, kept, reference in (
            (taken, tmp_path / "r.csv", tmp_path / "r.csv", "ok.csv"),
            (tmp_path / "j.json", taken, tmp_path / "j.json", "ok.json")):
        rc = main(args + ["--out", str(out), "--csv", str(csv_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert kept.read_bytes() == (tmp_path / reference).read_bytes()

    import knotslope.pipeline as pipeline_mod

    def never(params, N):
        raise RuntimeError("colored_jones ran before the cache path was checked")

    monkeypatch.setattr(pipeline_mod, "colored_jones", never)
    blocker = tmp_path / "plain"
    blocker.write_text("")
    rc = main(["jones", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3", "-N", "2",
               "--cache", str(blocker / "x")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_output_parent_checked_before_any_tuple_runs(tmp_path, capsys, monkeypatch):
    # An output in a missing directory, or under a regular file, fails
    # before the first tuple runs, with the line the write would give,
    # and leaves neither output behind.
    import knotslope.pipeline as pipeline_mod

    calls = []
    monkeypatch.setattr(pipeline_mod, "_run_one", calls.append)
    blocker = tmp_path / "plain"
    blocker.write_text("")
    args = ["verify", "--grid", "r=-3;s=2;t=3;u=-3..-1", "--n-max", "4"]
    missing_json, blocked_csv = tmp_path / "missing" / "r.json", blocker / "j.csv"
    for out, csv_path, bad, error in (
            (missing_json, tmp_path / "r.csv", missing_json, FileNotFoundError),
            (tmp_path / "j.json", blocked_csv, blocked_csv, NotADirectoryError)):
        with pytest.raises(error) as info:
            bad.write_text("")
        assert main(args + ["--out", str(out), "--csv", str(csv_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {info.value}\n"
        assert captured.out == ""
        assert calls == []
        assert not out.exists() and not csv_path.exists()


def test_verify_refuses_one_file_for_both_outputs(tmp_path, capsys, monkeypatch):
    # The CSV would overwrite the JSON report; the clash is an error
    # before the first tuple runs, and neither output is written.
    import knotslope.pipeline as pipeline_mod

    calls = []
    monkeypatch.setattr(pipeline_mod, "_run_one", calls.append)
    monkeypatch.chdir(tmp_path)
    args = ["verify", "--grid", "r=-3;s=2;t=3;u=-3..-1", "--n-max", "4"]
    for out, csv_path in (("r.out", "r.out"), ("r.out", "./r.out"),
                          (str(tmp_path / "r.out"), "r.out")):
        assert main(args + ["--out", out, "--csv", csv_path]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --out and --csv name the same file {csv_path}\n"
        assert captured.out == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []


def test_verify_counts_inadmissible_system_as_mismatch(tmp_path, capsys, monkeypatch):
    # A distinguished system failing E2 makes the tuple a mismatch, even
    # though every identity flag holds.
    import knotslope.edgepath as edgepath_mod

    real = edgepath_mod.check_admissible

    def failing_e2(system):
        return {**real(system), "E2": False}

    monkeypatch.setattr(edgepath_mod, "check_admissible", failing_e2)
    report = run_verification(KnotParams(-3, 2, 3, -1), 4)
    assert not any(v is False for v in report.flags.values())
    assert report.failed_checks() == ["E2"]
    rc = main(["verify", "--grid", "r=-3;s=2;t=3;u=-1", "--n-max", "4",
               "--out", str(tmp_path / "e2.json")])
    assert rc == 2
    captured = capsys.readouterr()
    assert "verified 0/1 tuples, 1 mismatched" in captured.out
    assert captured.err == "mismatch: (-3, 2, 3, -1): E2\n"


def test_cli_jones_cache_flag(tmp_path, capsys):
    args = ["jones", "-r", "-3", "-s", "2", "-t", "3", "-u", "-3", "-N", "3",
            "--cache", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "-3_2_3_-3" / "3.json").exists()
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    import knotslope.pipeline as pipeline_mod

    real = pipeline_mod._run_one

    def flipped(args):
        doc, _ = real(args)
        doc["flags"]["slope_match"] = False
        return doc, ["slope_match"]

    monkeypatch.setattr(pipeline_mod, "_run_one", flipped)
    rc = main(["verify", "--grid", "r=-3;s=2;t=3..5;u=-1", "--n-max", "4",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert capsys.readouterr().err == ("mismatch: (-3, 2, 3, -1): slope_match\n"
                                       "mismatch: (-3, 2, 5, -1): slope_match\n")


def test_cli_verify_deterministic(tmp_path, capsys):
    args = ["verify", "--grid", "r=-3;s=2;t=3;u=-3..-1", "--n-max", "4"]
    out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
    csv1 = tmp_path / "one.csv"
    assert main(args + ["--out", str(out1), "--csv", str(csv1)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()
