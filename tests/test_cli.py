import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from e8umbral.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_head(capsys):
    code, out, _ = run_cli(capsys, "table", "--component", "1",
                           "--max-row", "359", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["exponent_numerator"] for r in rows] == ["-1", "119", "239",
                                                       "359"]
    assert [r["1A"] for r in rows] == ["-2", "2", "2", "4"]
    assert [r["2A"] for r in rows] == ["-2", "2", "-2", "0"]
    assert [r["3A"] for r in rows] == ["-2", "2", "2", "-2"]


def test_table_component7_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--component", "7",
                           "--max-row", "191", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["grading_denominator"] == 120
    assert doc["component"] == 7
    assert doc["rows"][0] == {"exponent_numerator": 71,
                              "values": {"1A": "2", "2A": "-2", "3A": "2"}}
    assert doc["rows"][1]["values"] == {"1A": "4", "2A": "0", "3A": "-2"}


def test_table_minimal_range(capsys):
    code, out, _ = run_cli(capsys, "table", "--component", "1",
                           "--max-row", "-1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["-1,-2,-2,-2"]


def test_table_budget_guard(capsys):
    code, _, err = run_cli(capsys, "table", "--component", "1",
                           "--max-row", "900000")
    assert code == 2
    assert "budget" in err


def test_csv_json_encode_same_data(capsys):
    _, out_csv, _ = run_cli(capsys, "table", "--component", "1",
                            "--max-row", "479", "--format", "csv")
    _, out_json, _ = run_cli(capsys, "table", "--component", "1",
                             "--max-row", "479", "--format", "json")
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    doc = json.loads(out_json)
    assert len(rows) == len(doc["rows"])
    for r_csv, r_json in zip(rows, doc["rows"]):
        assert int(r_csv["exponent_numerator"]) == r_json["exponent_numerator"]
        for name in ("1A", "2A", "3A"):
            assert r_csv[name] == r_json["values"][name]


def test_output_determinism(capsys):
    _, out1, _ = run_cli(capsys, "table", "--component", "7",
                         "--max-row", "311", "--format", "json")
    _, out2, _ = run_cli(capsys, "table", "--component", "7",
                         "--max-row", "311", "--format", "json")
    assert out1 == out2


def test_verify_exact_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact",
                           "--order", "12")
    assert code == 0
    assert "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_corrupt_hook_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact",
                           "--order", "8", "--corrupt")
    assert code == 1
    assert "[FAIL]" in out


def test_eval_series_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                           "--tau", "0+1i")
    assert code == 0
    assert "est. error" in out


def test_eval_out_of_support(capsys):
    code, _, err = run_cli(capsys, "eval", "--class", "1A", "--r", "5",
                           "--tau", "0+1i")
    assert code == 2
    assert "support" in err


def test_eval_bad_tau(capsys):
    code, _, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                           "--tau", "1-2i")
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "--class", "1A", "--r", "1",
                           "--tau", "garbage")
    assert code == 2


def test_eval_completion_zero_shadow_matches_series(capsys):
    _, plain, _ = run_cli(capsys, "eval", "--class", "3A", "--r", "7",
                          "--tau", "0.1+0.9i")
    _, completed, _ = run_cli(capsys, "eval", "--class", "3A", "--r", "7",
                              "--tau", "0.1+0.9i", "--completion")

    def parse(text):
        parts = text.split(" = ", 1)[1].split()
        return complex(float(parts[0]), float(parts[1].rstrip("i")))

    assert abs(parse(plain) - parse(completed)) < 1e-9


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--component", "3", "--max-row", "5"])
    assert exc.value.code == 2


def test_eval_tau_with_leading_minus(capsys):
    split = run_cli(capsys, "eval", "--class", "1A", "--r", "7",
                    "--tau", "-0.5+0.8i")
    joined = run_cli(capsys, "eval", "--class", "1A", "--r", "7",
                     "--tau=-0.5+0.8i")
    assert split == joined
    assert split[0] == 0


@pytest.mark.parametrize("argv,code", [
    (["verify", "--suite", "numeric", "--tol", "0"], 2),
    (["verify", "--suite", "numeric", "--tol", "-1"], 2),
    (["verify", "--suite", "numeric", "--tol", "nan"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau", "0+1i", "--tol", "0"], 2),
    (["verify", "--suite", "exact", "--order", "-3"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau", "0.25+0.01i",
      "--completion"], 3),
    (["verify", "--suite", "exact", "--order", "100000"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=nan+1i"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.1+nani"], 2),
    (["eval", "--class", "1A", "--r", "1", "--tau=0.1+0.002i"], 3),
])
def test_bad_input_exits_with_one_line(capsys, argv, code):
    # the exit-3 cases are real ConvergenceErrors: at Im tau = 0.01 and
    # 0.002 the series needs more than the order-800 cap
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1 and "error:" in err
    assert "Traceback" not in err


def test_import_does_not_load_scipy():
    # numpy and scipy are test-only dependencies: the package must run
    # without them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, e8umbral, e8umbral.cli; "
            "loaded = {'numpy', 'scipy'} & set(sys.modules); "
            "assert not loaded, f'{loaded} imported'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
