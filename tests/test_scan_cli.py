"""Grid scans and the command line front end."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import sawlab
from sawlab import (
    Budgets,
    ConstraintViolation,
    Shape,
    StructureError,
    StuntedSawtoothMap,
    classify,
)
from sawlab.cli import main
from sawlab.rational import Wire
from sawlab.scan import ScanConfig, run_scan


@pytest.fixture
def line_config(tmp_path):
    def make(steps):
        return ScanConfig.from_json(
            {
                "shape": "+-",
                "grid": {
                    "kind": "line",
                    "start": ["1/2"],
                    "stop": ["1"],
                    "steps": steps,
                },
                "output": {
                    "csv": str(tmp_path / "grid.csv"),
                    "manifest": str(tmp_path / "grid.jsonl"),
                    "certificates": str(tmp_path / "certs.json"),
                },
            }
        )

    return make


def test_scan_classifies_every_cell(line_config):
    summary = run_scan(line_config(5))
    assert summary.cells == 5
    assert summary.computed == 5
    assert summary.resumed == 0
    assert summary.verdict_counts == {"Finite": 3, "Chaotic": 2}
    rows = open(summary.csv_path).read().splitlines()
    assert rows[0].startswith("index,w,verdict,label,entropy")
    assert len(rows) == 6
    assert rows[1].startswith("0,1/2,Finite,Finite(1)")
    assert rows[3].startswith("2,3/4,Finite,Finite(2)")
    assert rows[5].startswith("4,1/1,Chaotic,Chaotic")


def test_scan_outputs_are_deterministic(line_config):
    cfg = line_config(4)
    run_scan(cfg)
    first = open(cfg.csv_path).read()
    first_certs = open(cfg.certificates_path).read()
    run_scan(cfg)
    assert open(cfg.csv_path).read() == first
    assert open(cfg.certificates_path).read() == first_certs


def test_scan_resume_skips_finished_cells(line_config):
    cfg = line_config(4)
    run_scan(cfg)
    first = open(cfg.csv_path).read()
    first_certs = open(cfg.certificates_path, "rb").read()
    summary = run_scan(cfg, resume=True)
    assert summary.computed == 0
    assert summary.resumed == 4
    assert open(cfg.csv_path).read() == first
    # a resumed row writes the certificate bytes of a computed one
    assert open(cfg.certificates_path, "rb").read() == first_certs


def test_parallel_scan_matches_sequential(line_config):
    cfg = line_config(4)
    run_scan(cfg)
    sequential = open(cfg.csv_path).read()
    run_scan(cfg, workers=2)
    assert open(cfg.csv_path).read() == sequential


def test_scan_resume_recomputes_a_torn_last_line(line_config):
    cfg = line_config(4)
    run_scan(cfg)
    csv, certs = open(cfg.csv_path).read(), open(cfg.certificates_path).read()
    journal = open(cfg.manifest_path).read()
    # a crash in the middle of writing the last cell's line
    with open(cfg.manifest_path, "w") as fh:
        fh.write(journal[:-40])
    summary = run_scan(cfg, resume=True)
    assert (summary.computed, summary.resumed) == (1, 3)
    assert open(cfg.csv_path).read() == csv
    assert open(cfg.certificates_path).read() == certs
    lines = open(cfg.manifest_path).read().splitlines()
    assert sorted(json.loads(s)["index"] for s in lines) == [0, 1, 2, 3]


def test_scan_resume_rejects_a_manifest_of_another_grid(line_config):
    run_scan(line_config(4))
    # the same paths, a finer grid: cell 1 is now 5/8, the manifest has 2/3
    with pytest.raises(ConstraintViolation, match="cell 1"):
        run_scan(line_config(5), resume=True)


def test_scan_resume_rejects_rows_computed_under_other_budgets(line_config):
    cfg = line_config(4)
    run_scan(cfg)
    with pytest.raises(ConstraintViolation, match="budgets"):
        run_scan(replace(cfg, budgets=Budgets.from_json({"k": 3})), resume=True)


def test_scan_resume_rejects_rows_computed_for_the_mirrored_shape(line_config):
    cfg = line_config(4)
    run_scan(cfg)
    # -+ over the same heights: every cell matches by index and w
    with pytest.raises(ConstraintViolation, match="shape"):
        run_scan(replace(cfg, shape=Shape.from_string("-+")), resume=True)


def test_scan_workers_parse_nothing_the_config_holds(line_config, monkeypatch):
    cfg = line_config(5)
    run_scan(cfg)
    csv, certs = open(cfg.csv_path).read(), open(cfg.certificates_path).read()

    def refuse(*args):
        raise AssertionError("the scan parsed a cell or its budgets again")

    # the config is parsed; a worker gets its Shape, Fractions and Budgets
    monkeypatch.setattr("sawlab.scan.parse_rat", refuse)
    monkeypatch.setattr(Budgets, "from_json", staticmethod(refuse))
    run_scan(cfg)
    assert open(cfg.csv_path).read() == csv
    assert open(cfg.certificates_path).read() == certs


def test_manifest_journals_one_line_per_cell(line_config):
    cfg = line_config(3)
    run_scan(cfg)
    lines = [json.loads(s) for s in open(cfg.manifest_path).read().splitlines()]
    assert sorted(entry["index"] for entry in lines) == [0, 1, 2]
    assert all("record" in entry and "row" in entry for entry in lines)


JOURNAL_KEYS = {"budgets", "index", "record", "row", "shape", "w"}


def test_journal_lines_are_sorted_key_dumps_of_their_entries(line_config):
    cfg = line_config(5)
    run_scan(cfg)
    lines = open(cfg.manifest_path).read().splitlines()
    assert len(lines) == 5
    records = {}
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == JOURNAL_KEYS
        assert line == json.dumps(entry, sort_keys=True)
        records[entry["index"]] = entry["record"]
    # the certificate lines carry the same records, dumped the same way
    certs = open(cfg.certificates_path).read().splitlines()
    assert certs == [json.dumps({"index": i, "record": records[i]}, sort_keys=True) for i in range(5)]
    # without certificates every record is null, and the lines keep their form
    run_scan(replace(cfg, certificates_path=None))
    for line in open(cfg.manifest_path).read().splitlines():
        entry = json.loads(line)
        assert entry["record"] is None
        assert line == json.dumps(entry, sort_keys=True)


# sort_keys=False: a journal written by another tool still resumes to the
# bytes of the sorted certificate lines
@pytest.mark.parametrize("sort_keys", [True, False])
def test_a_manifest_of_whole_entry_dumps_resumes_to_the_same_bytes(line_config, sort_keys):
    cfg = line_config(5)
    run_scan(cfg)
    csv = open(cfg.csv_path, "rb").read()
    certs = open(cfg.certificates_path, "rb").read()
    rows = {
        entry["index"]: entry["row"]
        for entry in map(json.loads, open(cfg.manifest_path).read().splitlines())
    }
    # each entry built whole, its record by the generic field-by-field
    # encoder, dumped at once, and journaled in reverse order
    lines = []
    for index in reversed(range(len(cfg.cells))):
        w = cfg.cells[index]
        record = classify(StuntedSawtoothMap(cfg.shape, w), cfg.budgets)
        entry = {
            "index": index,
            "w": [f"{x.numerator}/{x.denominator}" for x in w],
            "shape": cfg.shape.to_string(),
            "budgets": Wire.to_json(cfg.budgets),
            "row": rows[index],
            "record": Wire.to_json(record),
        }
        lines.append(json.dumps(entry, sort_keys=sort_keys) + "\n")
    with open(cfg.manifest_path, "w") as fh:
        fh.writelines(lines)
    summary = run_scan(cfg, resume=True)
    assert (summary.computed, summary.resumed) == (0, 5)
    assert open(cfg.csv_path, "rb").read() == csv
    assert open(cfg.certificates_path, "rb").read() == certs


def test_cli_describe_emits_family_json(capsys):
    assert main(["describe", "--shape", "+-", "--w", "4/5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"]["shape"] == "+-"
    assert payload["family"]["w"] == ["4/5"]


def test_cli_orbits_lists_requested_period(capsys):
    assert main(["orbits", "--shape", "+-", "--w", "1", "--period", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    pts = {tuple(o["points"]) for o in payload["orbits"]}
    assert ("2/7", "4/7", "6/7") in pts


def test_cli_orbits_period_reads_the_markov_graph_not_the_nth_iterate(capsys):
    # f^16000 of the tent at 4/5 has 63999 pieces with 16000-bit denominators;
    # the graph lists the orbits of every period at once
    start = time.process_time()
    assert main(["orbits", "--shape", "+-", "--w", "4/5", "--period", "16000"]) == 0
    assert time.process_time() - start < 2
    assert json.loads(capsys.readouterr().out) == {"period": 16000, "orbits": []}


def test_cli_orbits_period_past_the_walk_budget_exits_3_before_any_walk(capsys):
    # the full tent has 2^m closed walks of length m, and 2^20 passes the
    # default budget of 10^6: every count up to n is checked before any
    # walk is solved, so the million walks of lengths 1 to 19 never are
    start = time.process_time()
    assert main(["orbits", "--shape", "+-", "--w", "1", "--period", "100000"]) == 3
    assert time.process_time() - start < 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "budget exceeded: walks (limit 1000000, needed >= 1048576)",
        "kind": "BudgetExceeded",
    }


def test_cli_orbits_start_walks_over_both_denominators(capsys):
    # the start 1/3 lies off the heights' lattice (1/5)Z; the Fraction map walks it
    assert main(["orbits", "--shape", "+-", "--w", "4/5", "--start", "1/3"]) == 0
    orbit = json.loads(capsys.readouterr().out)["orbit"]
    m = StuntedSawtoothMap(Shape.from_string("+-"), [Fraction(4, 5)])
    assert orbit == m.map.orbit_eventually_periodic(Fraction(1, 3)).to_json()
    assert main(["orbits", "--shape", "+-", "--w", "4/5", "--start", "4/3"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "DomainError"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_entropy_methods_agree_on_the_tent(capsys):
    values = {}
    for method in ("markov", "lap", "bowen"):
        assert main(["entropy", "--shape", "+-", "--w", "1", "--method", method]) == 0
        # strict JSON: Infinity or NaN in the output raises
        payload = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
        values[method] = payload["entropy"]
    assert abs(values["markov"]["value"] - 0.6931471805599453) < 1e-9
    assert values["lap"]["upper"] >= values["markov"]["value"] - 1e-9
    assert values["bowen"]["value"] <= values["markov"]["value"] + 1e-9


def test_cli_lap_window_past_the_piece_budget_exits_3(capsys):
    # the full +-+- sawtooth has 4^n laps, so l_10 = 1048576 passes the
    # default piece budget of 10^6
    argv = ["entropy", "--shape", "+-+-", "--w", "1,0,1", "--method", "lap", "--n-max", "12"]
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "budget exceeded: pieces (limit 1000000, needed >= 1048576)",
        "kind": "BudgetExceeded",
    }


def test_cli_lap_window_past_the_piece_budget_exits_3_at_once(capsys):
    # l_n = 2 for every n on the tent at 1/2: the window alone is refused
    argv = ["entropy", "--shape", "+-", "--w", "1/2", "--method", "lap", "--n-max", "1000000000"]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    err = json.loads(capsys.readouterr().err)
    assert err == {
        "error": "budget exceeded: pieces (limit 1000000, needed >= 1000000000)",
        "kind": "BudgetExceeded",
    }


def test_cli_kneading_realize_round_trip(tmp_path, capsys):
    assert main(["kneading", "--shape", "+-", "--w", "4/5", "--depth", "8"]) == 0
    kd = json.loads(capsys.readouterr().out)["kneading"]
    target = tmp_path / "target.json"
    target.write_text(json.dumps(kd))
    assert main(["kneading", "--realize", str(target)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kneading"]["signs"] == kd["signs"]


def test_cli_renorm_reports_tower(capsys):
    assert main(["renorm", "--shape", "+-", "--w", "4/5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tower"]["cycle_period"] == 2


def test_cli_classify_exit_codes(capsys):
    assert main(["classify", "--shape", "+-", "--w", "4/5"]) == 0
    record = json.loads(capsys.readouterr().out)["classification"]
    assert record["label"] == "Finite(2)"
    # unattainable resolution: Inconclusive maps to exit 3
    assert main(["classify", "--shape", "+-", "--w", "823/1000", "--k", "1"]) == 3
    capsys.readouterr()
    # invalid height: precondition failure maps to exit 2
    assert main(["classify", "--shape", "+-", "--w", "5/4"]) == 2
    capsys.readouterr()


def test_a_tower_step_budget_is_an_inconclusive_row_and_exit_3(tmp_path, capsys):
    (tmp_path / "budgets.json").write_text(json.dumps({"k": 2, "step_budget": 3}))
    argv = ["classify", "--shape", "+-", "--w", "823/1000",
            "--budgets", str(tmp_path / "budgets.json")]
    assert main(argv) == 3
    record = json.loads(capsys.readouterr().out)["classification"]
    assert record["detail"] == {"stage": "tower", "max_period": 4}
    config = ScanConfig.from_json(
        {
            "shape": "+-",
            "grid": {"kind": "product", "axes": [["823/1000"]]},
            "budgets": {"k": 2, "step_budget": 3},
            "output": {"csv": str(tmp_path / "grid.csv"),
                       "manifest": str(tmp_path / "grid.jsonl")},
        }
    )
    run_scan(config)
    with open(config.csv_path) as fh:
        rows = fh.read().splitlines()
    assert rows[1] == "0,823/1000,Inconclusive,Inconclusive,0,4,,,budget exceeded: steps (limit 3)"


@pytest.mark.parametrize(
    "argv, budgets",
    [
        (["classify", "--shape", "+-", "--w", "4/5"], {"kk": 8}),
        (["classify", "--shape", "+-", "--w", "4/5"], {"k": "8"}),
        (["orbits", "--shape", "+-", "--w", "1", "--n-max", "0", "--piece-budget", "2000"], None),
        (["orbits", "--shape", "+-", "--w", "1", "--period", "0"], None),
        (["entropy", "--shape", "+-", "--w", "1", "--method", "lap", "--n-max", "0"], None),
        (["classify", "--family", "no-w.json"], None),
        (["kneading", "--realize", "no-signs.json"], None),
        (["classify", "--family", "missing.json"], None),
        (["classify", "--family", "not-json.json"], None),
        (["kneading", "--realize", "missing.json"], None),
        (["kneading", "--realize", "not-json.json"], None),
        (["scan", "--config", "missing.json"], None),
        (["scan", "--config", "not-json.json"], None),
        (["classify", "--shape", "+-", "--w", "4/5", "--budgets", "missing.json"], None),
        (["classify", "--family", "w-number.json"], None),
        (["classify", "--family", "list.json"], None),
        (["kneading", "--realize", "signs-number.json"], None),
        (["scan", "--config", "list.json"], None),
        (["describe", "--shape", "+-", "--w", "1", "--out", "nodir/x.json"], None),
        (["renorm", "--shape", "+-", "--w", "4/5", "--depth", "-1"], None),
        (["classify", "--shape", "+-", "--w", "4/5", "--k", "-1"], None),
        (["classify", "--shape", "+-", "--w", "4/5"], {"homoclinic_period_bound": 0}),
        (["classify", "--shape", "+-", "--w", "4/5"], {"k": 1, "tower_depth": 0}),
        (["classify", "--shape", "+-", "--w", "4/5"], {"entropy_tol": 1e-9}),
        (["bisect", "--shape", "+-", "--lo", "4/5", "--hi", "9/10", "--width", "1/1000",
          "--refine-level", "0"], None),
        (["classify", "--shape", "+-", "--w", "-1/2"], None),
        (["entropy", "--shape", "+-", "--w", "1", "--method", "nope"], None),
        (["scan", "--config", "steps-fraction.json"], None),
        (["scan", "--config", "scan.json", "--workers", "-1"], None),
        (["orbits", "--shape", "+-", "--w", "4/5", "--start", "1/3", "--max-steps", "0"], None),
        (["orbits", "--shape", "+-", "--w", "4/5", "--start", "1/3", "--max-steps", "-1"], None),
        (["orbits", "--shape", "+-", "--w", "1", "--period", "3", "--piece-budget", "0"], None),
        (["orbits", "--shape", "+-", "--w", "1", "--piece-budget", "-1"], None),
    ],
)
def test_cli_rejects_bad_input_with_exit_2(argv, budgets, tmp_path, capsys, monkeypatch):
    # input files the cases name by relative path; missing.json is never written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no-w.json").write_text(json.dumps({"shape": "+-"}))
    (tmp_path / "no-signs.json").write_text(json.dumps({"shape": "+-", "depth": 8}))
    (tmp_path / "not-json.json").write_text('{"shape": ')
    (tmp_path / "w-number.json").write_text(json.dumps({"shape": "+-", "w": 5}))
    (tmp_path / "list.json").write_text(json.dumps([1, 2]))
    (tmp_path / "signs-number.json").write_text(
        json.dumps({"shape": "+-", "depth": 8, "signs": 3})
    )
    grid = {"kind": "line", "start": ["1/2"], "stop": ["1"], "steps": 3}
    output = {"csv": "g.csv", "manifest": "g.jsonl"}
    (tmp_path / "scan.json").write_text(json.dumps({"shape": "+-", "grid": grid, "output": output}))
    (tmp_path / "steps-fraction.json").write_text(
        json.dumps({"shape": "+-", "grid": {**grid, "steps": 2.5}, "output": output})
    )
    if budgets is not None:
        path = tmp_path / "budgets.json"
        path.write_text(json.dumps(budgets))
        argv = [*argv, "--budgets", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "ConstraintViolation"


def test_cli_theorem1_requires_boundary_base(capsys):
    assert main(["theorem1", "--shape", "+-", "--w", "4/5"]) == 2
    capsys.readouterr()


def test_cli_bisect_brackets_the_boundary(capsys):
    code = main(
        [
            "bisect",
            "--shape",
            "+-",
            "--lo",
            "4/5",
            "--hi",
            "9/10",
            "--width",
            "1/1000",
        ]
    )
    assert code == 0
    bracket = json.loads(capsys.readouterr().out)["bracket"]
    assert bracket["lo_record"]["verdict"] == "Finite"
    assert bracket["hi_record"]["verdict"] == "Chaotic"


def test_cli_scan_runs_config_file(tmp_path, capsys):
    cfg = {
        "shape": "+-",
        "grid": {"kind": "line", "start": ["1/2"], "stop": ["1"], "steps": 3},
        "output": {
            "csv": str(tmp_path / "g.csv"),
            "manifest": str(tmp_path / "g.jsonl"),
        },
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(cfg))
    assert main(["scan", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)["scan"]
    assert payload["cells"] == 3
    assert (tmp_path / "g.csv").exists()


def test_cli_scan_skips_a_grid_cell_outside_the_family(tmp_path, capsys, monkeypatch):
    # an endpoint outside [0, 1] is a rational: its cells are Skipped rows
    monkeypatch.chdir(tmp_path)
    cfg = {
        "shape": "+-",
        "grid": {"kind": "line", "start": ["-1"], "stop": ["1"], "steps": 3},
        "output": {"csv": "g.csv", "manifest": "g.jsonl"},
    }
    (tmp_path / "scan.json").write_text(json.dumps(cfg))
    assert main(["scan", "--config", "scan.json"]) == 0
    counts = json.loads(capsys.readouterr().out)["scan"]["verdict_counts"]
    assert counts == {"Skipped": 1, "Finite": 1, "Chaotic": 1}
    rows = (tmp_path / "g.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["Skipped", "Finite(1)", "Chaotic"]
    assert rows[0].startswith("0,-1/1,Skipped,") and "w_1" in rows[0].split(",")[-1]


@pytest.mark.parametrize("drop", ["row", "record", "row.reason"])
def test_cli_scan_resume_of_an_entry_without_its_row_or_record_exits_2(tmp_path, capsys, drop):
    journal = tmp_path / "g.jsonl"
    cfg = {
        "shape": "+-",
        "grid": {"kind": "line", "start": ["1/2"], "stop": ["1"], "steps": 3},
        "output": {"csv": str(tmp_path / "g.csv"), "manifest": str(journal)},
    }
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(cfg))
    assert main(["scan", "--config", str(path)]) == 0
    lines = journal.read_text().splitlines()
    entry = json.loads(lines[1])
    key, _, field = drop.partition(".")
    del (entry[key] if field else entry)[field or key]
    lines[1] = json.dumps(entry, sort_keys=True)
    journal.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["scan", "--config", str(path), "--resume"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["kind"] == "ConstraintViolation"
    assert "line 2" in error["error"]


def test_cli_bisect_refuses_a_refine_level_below_1_before_bisecting(capsys, monkeypatch):
    def bisect_must_not_run(*args, **kwargs):
        raise AssertionError("bisect_boundary ran before the refine level was checked")

    monkeypatch.setattr("sawlab.cli.bisect_boundary", bisect_must_not_run)
    argv = ["bisect", "--shape", "+-", "--lo", "4/5", "--hi", "9/10",
            "--width", "1/1000000000", "--refine-level", "0"]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "ConstraintViolation"


def test_one_cells_error_becomes_its_row(line_config, monkeypatch):
    config = line_config(5)
    run_scan(config)
    with open(config.csv_path) as fh:
        clean = fh.read().splitlines()

    def failing_on_one_cell(m, budgets):
        if m.w == (Fraction(3, 4),):
            raise StructureError("injected")
        return classify(m, budgets)

    monkeypatch.setattr("sawlab.scan.classify", failing_on_one_cell)
    summary = run_scan(config)
    with open(config.csv_path) as fh:
        rows = fh.read().splitlines()
    assert summary.computed == 5
    assert summary.verdict_counts["Error"] == 1
    assert rows[3] == "2,3/4,Error,Error,,,,,StructureError: injected"
    assert rows[:3] + rows[4:] == clean[:3] + clean[4:]
    with open(config.certificates_path) as fh:
        records = [json.loads(line)["record"] for line in fh]
    assert records[2] is None
    assert all(r is not None for i, r in enumerate(records) if i != 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--shape", "-+", "--w", "1/5"],
        ["bisect", "--shape", "-+", "--lo", "1/5", "--hi", "1/10",
         "--width", "1/1000000000", "--refine-level", "8"],
    ],
)
def test_cli_reads_a_shape_starting_with_a_minus_as_the_value(argv, capsys):
    attached = [*argv[:1], f"--shape={argv[2]}", *argv[3:]]
    assert main(attached) == 0
    expected = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_a_scan_run_twice_in_one_process_writes_what_a_fresh_process_writes(tmp_path):
    # the second in-process run reads every graph type's classes and bracket
    # from the combinatorics cache; a fresh interpreter computes them all
    def config(name):
        return {
            "shape": "+-+-",
            "grid": {"kind": "product", "axes": [[f"{k}/10" for k in range(11)]] * 3},
            "output": {
                "csv": str(tmp_path / f"{name}.csv"),
                "manifest": str(tmp_path / f"{name}.jsonl"),
                "certificates": str(tmp_path / f"{name}.certs.jsonl"),
            },
        }

    def outputs(name):
        return [(tmp_path / f"{name}{ext}").read_bytes() for ext in (".csv", ".certs.jsonl")]

    run_scan(ScanConfig.from_json(config("warm")))
    first = outputs("warm")
    run_scan(ScanConfig.from_json(config("warm")))
    assert outputs("warm") == first
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(config("fresh")))
    env = dict(os.environ, PYTHONPATH=str(Path(sawlab.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-m", "sawlab.cli", "scan", "--config", str(path)],
        env=env, check=True, capture_output=True,
    )
    assert outputs("fresh") == first
