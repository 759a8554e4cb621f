import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spechtex.cli
import spechtex.coherence
from spechtex.cli import main
from spechtex.partitions import enumerate_partitions


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_both_agreement(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "3", "--lambda", "1,1,1,1", "--method", "both"
    )
    assert code == 0
    assert "h0 = 0" in out
    assert "ext1_B = 1" in out
    assert "oracle ext1_B = 1" in out


def test_classify_json_schema_and_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "3", "--lambda", "1,1,1,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["p", "lambda", "h0", "ext1_B", "h1", "case", "witness"]
    assert payload["p"] == 3
    assert payload["lambda"] == [1, 1, 1, 1]
    assert payload["h0"] == 0
    assert payload["ext1_B"] == 1
    assert payload["h1"] == {"value": 1, "exact": True}
    assert payload["witness"] and all(
        set(w) == {"r", "s", "i", "v"} for w in payload["witness"]
    )
    assert json.dumps(payload) == out.strip()


def test_classify_p2_reports_lower_bound(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "2", "--lambda", "2,1,1", "--method", "closed"
    )
    assert code == 0
    assert "h1 >= 1" in out

    code, out, _ = run_cli(
        capsys, "classify", "--p", "2", "--lambda", "2,1,1", "--json"
    )
    payload = json.loads(out)
    assert payload["h1"] == {"value": 1, "exact": False}


def test_classify_single_row(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--lambda", "7")
    assert code == 0
    assert "h0 = 1" in out and "ext1_B = 0" in out


def test_classify_trailing_zeros_tolerated(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--lambda", "4,2,1,0,0", "--json")
    assert code == 0
    assert json.loads(out)["lambda"] == [4, 2, 1]


def test_classify_oracle_method(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--p", "2", "--lambda", "2,1,1,1", "--method", "oracle", "--json"
    )
    assert code == 0
    assert out == (
        '{"p": 2, "lambda": [2, 1, 1, 1], "h0": 0, "ext1_B": 0, '
        '"h1": {"value": 0, "exact": false}, "case": "oracle", "witness": null}\n'
    )


@pytest.mark.parametrize(
    "lam, p, method, expected",
    [
        # (3, 3) is James at p = 2, so h0 = 1; (2, 1, 1, 1) is not.
        ("3,3", "2", "oracle", '{"p": 2, "lambda": [3, 3], "h0": 1, "ext1_B": 1, '
         '"h1": {"value": 1, "exact": false}, "case": "oracle", "witness": null}'),
        ("3,3", "2", "both", '{"p": 2, "lambda": [3, 3], "h0": 1, "ext1_B": 1, '
         '"h1": {"value": 1, "exact": false}, "case": "james", '
         '"witness": [{"r": 1, "s": 2, "i": 2, "v": 1}]}'),
        ("2,1,1,1", "2", "both", '{"p": 2, "lambda": [2, 1, 1, 1], "h0": 0, "ext1_B": 0, '
         '"h1": {"value": 0, "exact": false}, "case": "split", "witness": null}'),
    ],
)
def test_classify_reads_the_oracles_own_h0_with_the_output_unchanged(
    capsys, lam, p, method, expected
):
    # `--method oracle` reports the oracle's H^0 (coherence._oracle), and
    # `--method both` compares it with the classifier's; where the two
    # agree, the JSON is the one the classifier's H^0 alone gave.
    argv = ("classify", "--p", p, "--lambda", lam, "--method", method, "--json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected + "\n", "")


def oracle_with(**forced):
    """``coherence._oracle`` with its ext^1 or H^0 replaced by a forced value."""

    def oracle(lam, p):
        dim, ext1, h0 = spechtex.coherence._oracle(lam, p)
        return dim, forced.get("ext1", ext1), forced.get("h0", h0)

    return oracle


def test_classify_both_exits_1_when_the_oracles_h0_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(spechtex.cli, "_oracle", oracle_with(h0=0))
    code, out, err = run_cli(capsys, "classify", "--p", "2", "--lambda", "3,3", "--method", "both")
    assert code == 1
    assert "h0 = 1" in out and "oracle ext1_B = 1" in out
    assert err == "MISMATCH: classifier h0=1 oracle h0=0 for (3,3) at p=2\n"


def test_classify_both_exits_1_when_the_oracles_ext1_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(spechtex.cli, "_oracle", oracle_with(ext1=0))
    code, out, err = run_cli(capsys, "classify", "--p", "2", "--lambda", "3,3", "--method", "both")
    assert code == 1
    assert "ext1_B = 1" in out and "oracle ext1_B = 0" in out
    assert err == "MISMATCH: classifier=1 oracle=0 for (3,3) at p=2\n"


def test_usage_error_bad_partition(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "3", "--lambda", "1,2")
    assert code == 2
    assert "error" in err


def test_usage_error_bad_prime(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "4", "--lambda", "2,1")
    assert code == 2
    assert "error" in err


def test_usage_error_unparseable(capsys):
    code, _, err = run_cli(capsys, "classify", "--p", "3", "--lambda", "1,x")
    assert code == 2


@pytest.mark.parametrize("text", ["3,,2", "3,2,", ",3", "3, ,2", ""])
def test_usage_error_empty_field(capsys, text):
    code, out, err = run_cli(capsys, "classify", "--p", "3", "--lambda", text)
    assert code == 2
    assert out == "" and "empty part" in err


def test_oversized_oracle_system_exits_2(capsys):
    # About 1.35e10 candidate cells: refused before any row is generated.
    started = time.monotonic()
    code, out, err = run_cli(
        capsys, "classify", "--p", "3", "--lambda", "1000,1000,1000", "--method", "oracle"
    )
    assert time.monotonic() - started < 1.0
    assert code == 2
    assert out == "" and "budget" in err
    code, _, _ = run_cli(
        capsys, "classify", "--p", "3", "--lambda", "1000,1000,1000", "--method", "closed"
    )
    assert code == 0


def test_sweep_refuses_an_over_budget_range_before_classifying_any(capsys, monkeypatch):
    # Under a budget of 2,000 candidate cells (1^6) is too large; the sweep
    # checks the whole range first, so nothing is classified and no JSON
    # is written.
    calls = []
    monkeypatch.setattr(spechtex.coherence, "MAX_CELLS", 2000)
    monkeypatch.setattr(spechtex.cli, "ext1_dim", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "sweep", "--p", "3", "--d-max", "8")
    assert code == 2
    assert out == "" and "(1,1,1,1,1,1) has" in err and "budget" in err
    assert calls == []


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_check_clean(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--p", "3", "--d-max", "6", "--check"
    )
    assert code == 0
    lines = out.strip().splitlines()
    report = json.loads(lines[-1])
    assert report["mismatches"] == 0
    assert report["p"] == 3 and report["d_max"] == 6
    # p(0) + ... + p(6) = 1+1+2+3+5+7+11.
    assert report["instances"] == 30
    # Mismatch lines would precede the report; none expected.
    assert len(lines) == 1
    assert json.dumps(report) == lines[-1]


def test_sweep_check_counts_a_differing_h0_as_a_mismatch(capsys, monkeypatch):
    # With the oracle's H^0 forced to 0, the five λ with d <= 3 that are
    # James at p = 3 mismatch on H^0 alone; each line keeps the four keys
    # of a dimension mismatch, in order, and then gives both H^0.
    monkeypatch.setattr(spechtex.cli, "_oracle", oracle_with(h0=0))
    code, out, err = run_cli(capsys, "sweep", "--p", "3", "--d-max", "3", "--check")
    assert code == 1
    *lines, report = out.splitlines()
    tail = '"classifier_h0": 1, "oracle_h0": 0}'
    assert lines == [
        '{"lambda": [], "classifier_dim": 0, "oracle_dim": 0, "case_tag": "trivial", ' + tail,
        '{"lambda": [1], "classifier_dim": 0, "oracle_dim": 0, "case_tag": "trivial", ' + tail,
        '{"lambda": [2], "classifier_dim": 0, "oracle_dim": 0, "case_tag": "trivial", ' + tail,
        '{"lambda": [3], "classifier_dim": 0, "oracle_dim": 0, "case_tag": "trivial", ' + tail,
        '{"lambda": [2, 1], "classifier_dim": 1, "oracle_dim": 1, "case_tag": "james", ' + tail,
    ]
    assert json.loads(report)["mismatches"] == 5
    assert "7 instances, 5 mismatches" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--p", "3", "--d-max", "6"),
        ("classify", "--p", "3", "--lambda", "2,1,1,1", "--method", "both"),
        ("classify", "--p", "5", "--lambda", "4,2", "--method", "oracle", "--json"),
    ],
)
def test_the_cli_runs_the_oracle_once_per_partition(capsys, monkeypatch, argv):
    # ext^1 and H^0 come from one ``_oracle`` call, so every Kummer
    # listing is made once per λ: 30 calls for the sweep, with d <= 6.
    calls = []

    def counted(lam, p):
        calls.append(lam.parts)
        return spechtex.coherence._oracle(lam, p)

    monkeypatch.setattr(spechtex.cli, "_oracle", counted)
    code, _out, _err = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "sweep":
        assert calls == [lam.parts for d in range(7) for lam in enumerate_partitions(d, max(d, 1))]
    else:
        assert calls == [tuple(map(int, argv[4].split(",")))]


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_refuses_fewer_than_one_job(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--p", "3", "--d-max", "4", "--jobs", jobs)
    assert code == 2
    assert out == "" and "--jobs" in err


@pytest.mark.parametrize("parts_max", ["0", "-3"])
def test_sweep_refuses_fewer_than_one_part(capsys, parts_max):
    code, out, err = run_cli(capsys, "sweep", "--p", "3", "--d-max", "4", "--parts-max", parts_max)
    assert code == 2
    assert out == ""
    assert err == f"error: --parts-max must be at least 1, got {parts_max}\n"


def test_sweep_refuses_negative_degree(capsys):
    code, out, err = run_cli(capsys, "sweep", "--p", "3", "--d-max", "-1")
    assert code == 2
    assert out == "" and "--d-max" in err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def sweep_lines(capsys, *argv):
    code, out, _ = run_cli(capsys, "sweep", "--p", "3", *argv)
    assert code == 0
    *mismatches, report = out.splitlines()
    report = json.loads(report)
    del report["elapsed"]
    return mismatches, report


@pytest.mark.parametrize(
    "jobs, cpus, d_max, workers",
    [
        ("100000", 2, "6", 2),  # capped by the usable CPUs
        ("8", 64, "6", 8),  # the README's --jobs 8
        ("100000", 64, "3", 7),  # capped by the 7 instances of d <= 3
        ("3", 1, "6", None),  # one usable CPU: no pool at all
        ("1", 64, "6", None),
        ("100000", 64, "0", None),  # one instance
    ],
)
def test_sweep_starts_at_most_one_worker_per_task_and_cpu(
    capsys, monkeypatch, jobs, cpus, d_max, workers
):
    expected = sweep_lines(capsys, "--d-max", d_max)
    monkeypatch.setattr(spechtex.cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(spechtex.cli, "_usable_cpus", lambda: cpus)
    RecordingPool.sizes = []
    assert sweep_lines(capsys, "--d-max", d_max, "--jobs", jobs) == expected
    assert RecordingPool.sizes == ([] if workers is None else [workers])


def test_sweep_with_two_processes_keeps_the_output(capsys):
    expected = sweep_lines(capsys, "--d-max", "7", "--parts-max", "3")
    assert sweep_lines(capsys, "--d-max", "7", "--parts-max", "3", "--jobs", "2") == expected


def test_sweep_parts_max(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--p", "5", "--d-max", "5", "--parts-max", "2", "--check"
    )
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["parts_max"] == 2
    # Partitions into at most two parts: 1 + sum_{d=1..5} (1 + floor(d/2)).
    assert report["instances"] == 12


def test_basis_pointed_pair(capsys):
    code, out, _ = run_cli(capsys, "basis", "--p", "3", "--lambda", "9,3")
    assert code == 0
    assert out == (
        "dim E = 2\n"
        "basis[0]:\n"
        "  y(1,2)_1 = 1\n"
        "  y(1,2)_2 = 1\n"
        "basis[1]:\n"
        "  y(1,2)_3 = 1\n"
    )


def test_basis_dimension_zero(capsys):
    code, out, _ = run_cli(capsys, "basis", "--p", "3", "--lambda", "5")
    assert code == 0
    assert out.strip() == "dim E = 0"


def test_basis_james_line(capsys):
    code, out, _ = run_cli(capsys, "basis", "--p", "3", "--lambda", "8,1")
    assert code == 0
    assert out.startswith("dim E = 1")


@pytest.mark.parametrize("lam, p", [("999999,60,45", 131), ("1330,121,120", 11)])
def test_basis_of_a_wide_shape_at_a_large_prime_is_std(capsys, lam, p):
    # dim E = 1 with std nonzero mod p, so the one basis vector is a
    # multiple of std, C(part_r + i, i) mod p on slot (r, s, i).  Its
    # entries are the gains of the link rows, read off the unit parts of
    # std; `classify` reads only the rank and so never sees them.
    code, out, _ = run_cli(capsys, "basis", "--p", str(p), "--lambda", lam)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["dim E = 1", "basis[0]:"]
    parts = [int(x) for x in lam.split(",")]
    std = {
        f"y({r},{s})_{i}": math.comb(parts[r - 1] + i, i) % p
        for r in range(1, 4)
        for s in range(r + 1, 4)
        for i in range(1, parts[s - 1] + 1)
    }
    vector = dict(line.strip().split(" = ") for line in lines[2:])
    first = next(iter(vector))
    scale = int(vector[first]) * pow(std[first], -1, p)
    assert vector == {slot: str(v * scale % p) for slot, v in std.items() if v}


def test_sl2_parity_and_zero(capsys):
    code, out, _ = run_cli(capsys, "sl2", "--p", "3", "--r", "5", "--s", "2")
    assert code == 0 and "parity" in out
    code, out, _ = run_cli(capsys, "sl2", "--p", "3", "--r", "4", "--s", "4")
    assert code == 0 and "dim = 0" in out


def test_classify_both_agrees_over_small_sweep(capsys):
    from spechtex.partitions import enumerate_partitions

    for p in (2, 3, 5):
        for d in range(0, 13):
            for lam in enumerate_partitions(d, max(d, 1)):
                text = ",".join(str(x) for x in lam.parts) or "0"
                code = main(
                    ["classify", "--p", str(p), "--lambda", text, "--method", "both", "--json"]
                )
                assert code == 0, (p, lam.parts)
    capsys.readouterr()


def test_sl2_json(capsys):
    code, out, _ = run_cli(capsys, "sl2", "--p", "2", "--r", "4", "--s", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 1 and payload["reason"] == "pointed-window"
    assert json.dumps(payload) == out.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--p", "2", "--d-max", "12"],
        ["basis", "--lambda", "40,40,40", "--p", "2"],
        ["classify", "--lambda", "1,1,1,1", "--p", "3", "--json"],
        ["sl2", "--p", "2", "--r", "4", "--s", "0"],
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # The read end is closed before the child writes, so its first write
    # to stdout fails, as when `| head` has already exited.
    src = str(Path(spechtex.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-m", "spechtex.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 141, err
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
