"""Command-line behavior: golden outputs, JSON schema, exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

from oracles import (
    TORUS_3_4_WORD, a_polynomial_from_json, braid_closure, q_series_from_json,
)
import skeinkit
from skeinkit.cli import a_polynomial_json, main, q_series_json
from skeinkit.diagram import cable, catalog_lookup, catalog_names, format_pd
from skeinkit.jones import jones_polynomial, reduced_colored
from skeinkit.poly import LaurentPoly

# child processes import skeinkit from the tree this run imports
SRC = os.path.dirname(os.path.dirname(skeinkit.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bracket_unknot_golden(capsys):
    code, out, _ = run(capsys, "bracket", "catalog:unknot")
    assert code == 0
    assert out.strip() == "-A^-2-A^2"


def test_bracket_json_is_exact(capsys):
    code, out, _ = run(capsys, "bracket", "catalog:3_1", "--format", "json")
    blob = json.loads(out)
    assert code == 0
    assert blob["command"] == "bracket"
    assert "sign" not in blob          # brackets live in A, not q
    from skeinkit.jones import bracket
    assert a_polynomial_from_json(blob["A_polynomial"]) \
        == bracket(catalog_lookup("3_1"))


def test_jones_text_row(capsys):
    code, out, _ = run(capsys, "cjones", "--color", "2", "catalog:6_2")
    assert code == 0
    assert out.strip() == "q^-5-2*q^-4+2*q^-3-2*q^-2+2*q^-1-1+q^1"


def test_jones_equals_cjones_two(capsys):
    c1, o1, _ = run(capsys, "jones", "catalog:5_2", "--format", "json")
    c2, o2, _ = run(capsys, "cjones", "--color", "2", "catalog:5_2",
                    "--format", "json")
    assert c1 == c2 == 0
    a = json.loads(o1)
    b = json.loads(o2)
    for key in ("sign", "min_exponent", "coefficients", "A_polynomial"):
        assert a[key] == b[key]


def test_json_round_trip_whole_catalog(capsys):
    for name in catalog_names():
        code, out, _ = run(capsys, "jones", f"catalog:{name}",
                           "--format", "json")
        assert code == 0
        blob = json.loads(out)
        want = jones_polynomial(catalog_lookup(name))
        assert q_series_from_json(blob) == want, name
        assert a_polynomial_from_json(blob["A_polynomial"]) == want, name


def test_adequacy_text(capsys):
    code, out, _ = run(capsys, "adequacy", "catalog:6_2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "A_adequate: true"
    assert lines[1] == "B_adequate: true"


def test_adequacy_json_flags(capsys):
    code, out, _ = run(capsys, "adequacy", "catalog:3_1_badequate",
                       "--format", "json")
    blob = json.loads(out)
    assert (blob["A_adequate"], blob["B_adequate"]) == (False, True)


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in catalog_names():
        assert name in out


def test_reads_pd_from_file(tmp_path, capsys):
    path = tmp_path / "knot.pd"
    path.write_text(format_pd(catalog_lookup("4_1")) + "\n")
    code, out, _ = run(capsys, "jones", str(path), "--format", "json")
    assert code == 0
    assert q_series_from_json(json.loads(out)) \
        == jones_polynomial(catalog_lookup("4_1"))


def test_tail_text_and_json(capsys):
    code, out, _ = run(capsys, "tail", "--terms", "3", "catalog:3_1")
    assert code == 0
    first = [int(t) for t in out.split()]
    code, out, _ = run(capsys, "tail", "--terms", "3", "catalog:3_1",
                       "--format", "json")
    blob = json.loads(out)
    assert blob["coefficients"] == first
    assert blob["side"] == "tail" and blob["terms"] == 3


def test_verify_stability_ok(capsys):
    code, out, _ = run(capsys, "verify-stability", "--max", "4",
                       "catalog:4_1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["complete"] is True and blob["all_stable"] is True
    assert [r["color"] for r in blob["records"]] == [2, 3]


def test_exit_code_bad_input(capsys):
    assert run(capsys, "bracket", "catalog:no_such")[0] == 2
    assert run(capsys, "bracket", "/nonexistent/file.pd")[0] == 2
    assert run(capsys, "cjones", "--color", "0", "catalog:unknot")[0] == 2


def test_exit_code_bad_pd_file(tmp_path, capsys):
    path = tmp_path / "broken.pd"
    path.write_text("X[1,2,3,4] X[1,2,3,4] X[1,2,9,9]\n")
    code, out, err = run(capsys, "bracket", str(path))
    assert code == 2 and out == "" and err


def test_exit_code_budget(capsys):
    code, out, err = run(capsys, "bracket", "catalog:6_2",
                         "--max-width", "2")
    assert code == 3 and out == ""


def test_width_budget_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("SKEINKIT_MAX_WIDTH", "2")
    assert run(capsys, "bracket", "catalog:6_2")[0] == 3
    assert run(capsys, "bracket", "catalog:6_2",
               "--max-width", "40")[0] == 0


def test_kernel_environment_is_ignored(monkeypatch, capsys):
    want = run(capsys, "bracket", "catalog:3_1")
    monkeypatch.setenv("SKEINKIT_KERNEL", "c")
    assert run(capsys, "bracket", "catalog:3_1") == want
    assert want[0] == 0


def test_malformed_budget_environment_is_bad_input(monkeypatch, capsys):
    monkeypatch.setenv("SKEINKIT_MAX_WIDTH", "wide")
    try:
        code = main(["bracket", "catalog:3_1"])
    except SystemExit as exc:      # argparse rejects it before dispatch
        code = exc.code
    assert code == 2


def test_large_pd_file_is_not_capped_by_crossing_count(tmp_path, capsys):
    from skeinkit.jones import bracket
    pd = cable(catalog_lookup("3_1"), 3)
    assert len(pd.crossings) == 27
    path = tmp_path / "cable.pd"
    path.write_text(format_pd(pd) + "\n")
    code, out, _ = run(capsys, "bracket", str(path), "--format", "json")
    assert code == 0
    assert a_polynomial_from_json(json.loads(out)["A_polynomial"]) \
        == bracket(pd)


def test_budget_flags_do_not_leak_into_environment(capsys):
    run(capsys, "bracket", "catalog:3_1", "--max-width", "39")
    assert "SKEINKIT_MAX_WIDTH" not in os.environ


def test_exit_code_unstable_with_witness(tmp_path, capsys):
    width, word = TORUS_3_4_WORD
    path = tmp_path / "torus.pd"
    path.write_text(format_pd(braid_closure(width, word)) + "\n")
    code, out, err = run(capsys, "tail", "--terms", "2", "--side", "head",
                         str(path))
    assert code == 4
    assert out == ""                   # no partial results on failure
    assert "witness" in err and "offset 1" in err


def test_verify_stability_incomplete_is_exit_three(tmp_path, capsys):
    # a five-crossing twist knot nothing else caches, see test_tail
    from skeinkit.construct import rational_knot
    path = tmp_path / "five.pd"
    path.write_text(format_pd(rational_knot([2, 3], 0)) + "\n")
    code, out, _ = run(capsys, "verify-stability", "--max", "5",
                       str(path), "--max-width", "4")
    assert code == 3


def _cli(*argv):
    """Run the CLI in a fresh process, so that no invariant cached by an
    earlier test answers at once."""
    return subprocess.run([sys.executable, "-m", "skeinkit.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_import_loads_only_what_every_subcommand_needs():
    """Importing the CLI adds neither dataclasses (nor the inspect it
    pulls in) nor signal (time limits are deadlines that the work checks)
    nor what only some subcommands use: json for --format json,
    tail for tail and verify-stability, tl and construct for none.  With
    -S, where no site hook has loaded it first, it adds no
    importlib.resources either: the catalog is read by its path."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import skeinkit.cli\n"
              "print(*sorted(set(sys.modules) - before))\n")
    for flags in ((), ("-S",)):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              check=True, capture_output=True, text=True,
                              timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        loaded = set(proc.stdout.split())
        assert {"skeinkit.cli", "skeinkit.diagram",
                "skeinkit.jones"} <= loaded, flags
        assert not loaded & {"dataclasses", "inspect", "json", "signal",
                             "skeinkit.tail", "skeinkit.tl",
                             "skeinkit.construct"}, flags
    assert "importlib.resources" not in loaded


def test_time_limit_budget():
    proc = _cli("cjones", "--color", "5", "catalog:6_1", "--time-limit",
                "0.01")
    assert proc.returncode == 3
    assert "time_limit" in proc.stderr
    # the limit trips inside a long sweep (the cut 6-cable of 6_2 takes
    # 3-7 s)
    t0 = time.monotonic()
    proc = _cli("cjones", "--color", "7", "catalog:6_2", "--time-limit", "1")
    assert time.monotonic() - t0 < 5
    assert proc.returncode == 3
    assert "time_limit" in proc.stderr


@pytest.mark.parametrize("flag, value", [
    ("--time-limit", "-1"), ("--time-limit", "inf"), ("--time-limit", "1e20"),
    ("--time-limit", "nan"), ("--max-width", "-1"),
])
def test_out_of_range_budget_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "catalog:3_1", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"got {value}")
    assert f"argument {flag}" in err


def test_out_of_range_time_limit_environment_is_usage_error(monkeypatch,
                                                            capsys):
    monkeypatch.setenv("SKEINKIT_TIME_LIMIT", "-1")
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "catalog:3_1"])
    assert exc.value.code == 2
    assert "argument --time-limit" in capsys.readouterr().err


def test_zero_time_limit_means_no_limit(monkeypatch, capsys):
    code, out, _ = run(capsys, "bracket", "catalog:3_1", "--time-limit", "0")
    assert code == 0 and out.strip() == "-A^-9+A^-1+A^3+A^7"
    monkeypatch.setenv("SKEINKIT_TIME_LIMIT", "0")
    assert run(capsys, "bracket", "catalog:3_1")[0] == 0


def test_time_limit_trips_inside_the_long_knot_sweep(sweep_trips, capsys):
    code, out, err = run(capsys, "cjones", "--color", "7", "catalog:6_2",
                         "--time-limit", "1")
    assert code == 3 and out == ""
    assert err == ("error: budget 'time_limit' exceeded (limit 1.0): "
                   "wall-clock limit hit\n")
    assert sweep_trips == [("time_limit", False, True)]


def test_width_budget_applies_to_the_cut_cable(capsys):
    # the cut 4-cable of 6_2 plans at width 16
    code, out, err = run(capsys, "cjones", "--color", "5", "catalog:6_2",
                         "--max-width", "15")
    assert code == 3 and out == ""
    assert "max_width" in err and "needed 16" in err
    assert run(capsys, "cjones", "--color", "5", "catalog:6_2",
               "--max-width", "16")[0] == 0


def test_code_without_planar_drawing_names_its_genus(tmp_path, capsys):
    path = tmp_path / "virtual_trefoil.pd"
    path.write_text("X[1,3,2,4] X[2,4,3,1]\n")
    assert run(capsys, "cjones", "--color", "3", str(path))[0] == 0
    code, out, err = run(capsys, "cjones", "--color", "4", str(path))
    assert code == 2 and out == ""
    assert "genus 1" in err and "no planar drawing" in err
    assert "not divisible by the colored unknot" in err
    assert "Traceback" not in err


def test_width_budget_applies_to_the_windowed_cut_cable(capsys):
    # tail --terms 4 sweeps colors 4 and 5; the cut 4-cable of 6_2 (color
    # 5) plans at width 16
    code, out, err = run(capsys, "tail", "--terms", "4", "catalog:6_2",
                         "--max-width", "15")
    assert code == 3 and out == ""
    assert "max_width" in err and "needed 16" in err
    code, out, err = run(capsys, "verify-stability", "--max", "6",
                         "catalog:6_2", "--max-width", "15")
    assert code == 3 and err == ""
    assert "complete: false" in out.splitlines()


def test_time_limit_trips_inside_the_windowed_cut_sweep(tmp_path,
                                                        sweep_trips, capsys):
    # the A side of this 3-braid knot is not adequate: tail --terms 5
    # descends windows of the cut 4- and 5-cables for about 30 s, all
    # but the first second or so in one window of the 5-cable
    path = tmp_path / "braid.pd"
    path.write_text(format_pd(braid_closure(3, [-2, -1, -1, -2, -2, -1]))
                    + "\n")
    t0 = time.monotonic()
    code, out, err = run(capsys, "tail", "--terms", "5", str(path),
                         "--time-limit", "2")
    assert time.monotonic() - t0 < 6
    assert code == 3 and out == "" and "time_limit" in err
    assert sweep_trips == [("time_limit", True, True)]
