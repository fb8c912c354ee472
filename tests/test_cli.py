"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.data.io import load_instance, save_instance, save_mapping
from repro.logic.parser import parse_instance, parse_tgds
from repro.logic.tgds import Mapping


def run_cli(*args, **env):
    """Run ``python -m repro`` in a fresh process (``env`` overrides)."""
    env = {**os.environ, **env}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def workspace(tmp_path):
    """A mapping file plus source/target instance files on disk."""
    mapping = Mapping(
        parse_tgds(
            "Order(c, i) -> Shipment(i), Invoice(c); Gift(c2, i2) -> Shipment(i2)"
        )
    )
    mapping_path = tmp_path / "orders.mapping"
    save_mapping(mapping, mapping_path)
    source_path = tmp_path / "source.instance"
    save_instance(parse_instance("Order(ada, laptop)"), source_path)
    target_path = tmp_path / "target.instance"
    save_instance(parse_instance("Shipment(laptop), Invoice(ada)"), target_path)
    return tmp_path, mapping_path, source_path, target_path


class TestExchange:
    def test_exchange_to_file(self, workspace, capsys):
        tmp_path, mapping_path, source_path, _ = workspace
        out = tmp_path / "exchanged.instance"
        code = main(
            [
                "exchange",
                "--mapping",
                str(mapping_path),
                "--source",
                str(source_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert load_instance(out) == parse_instance("Shipment(laptop), Invoice(ada)")

    def test_exchange_to_stdout(self, workspace, capsys):
        _, mapping_path, source_path, _ = workspace
        assert main(
            ["exchange", "--mapping", str(mapping_path), "--source", str(source_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "Shipment(laptop)" in output


@pytest.fixture
def lemma1(tmp_path):
    """The Lemma-1 family with 3 S- and 4 T-facts: (mapping, target) paths."""
    mapping_path = tmp_path / "lemma1.mapping"
    mapping = Mapping(parse_tgds("R(x, y) -> S(x); R(u, v) -> T(v)"))
    save_mapping(mapping, mapping_path)
    target_path = tmp_path / "lemma1.instance"
    facts = [f"S(a{i})" for i in range(3)] + [f"T(b{i})" for i in range(4)]
    save_instance(parse_instance(", ".join(facts)), target_path)
    return mapping_path, target_path


class TestRecover:
    def test_recover_valid_target(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        code = main(
            ["recover", "--mapping", str(mapping_path), "--target", str(target_path)]
        )
        assert code == 0
        assert "recovery(ies):" in capsys.readouterr().out

    def test_max_recoveries_counts_distinct_recoveries(self, lemma1, capsys):
        # 5 184 candidates yield 1 398 distinct recoveries, so a budget
        # of 1 398 suffices.
        mapping_path, target_path = lemma1
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--max-recoveries",
                "1398",
            ]
        )
        assert code == 0
        assert "1398 recovery(ies):" in capsys.readouterr().out

    def test_recover_with_cores(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--cores",
            ]
        )
        assert code == 0

    def test_recover_invalid_target(self, workspace, tmp_path, capsys):
        _, mapping_path, _, _ = workspace
        bad = tmp_path / "bad.instance"
        save_instance(parse_instance("Invoice(eve)"), bad)
        code = main(
            ["recover", "--mapping", str(mapping_path), "--target", str(bad)]
        )
        assert code == 1


class TestValidate:
    def test_valid(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        assert main(
            ["validate", "--mapping", str(mapping_path), "--target", str(target_path)]
        ) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_lists_orphans(self, workspace, tmp_path, capsys):
        _, mapping_path, _, _ = workspace
        bad = tmp_path / "bad.instance"
        save_instance(parse_instance("Shipment(laptop), Refund(ada)"), bad)
        assert main(
            ["validate", "--mapping", str(mapping_path), "--target", str(bad)]
        ) == 1
        assert "Refund(ada)" in capsys.readouterr().out


class TestCertain:
    def test_certain_answers(self, workspace, tmp_path, capsys):
        _, mapping_path, _, target_path = workspace
        query_path = tmp_path / "q.query"
        query_path.write_text("q(c) :- Order(c, i)\n")
        assert main(
            [
                "certain",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--query",
                str(query_path),
            ]
        ) == 0
        assert "ada" in capsys.readouterr().out

    def test_certain_on_invalid_target(self, workspace, tmp_path, capsys):
        _, mapping_path, _, _ = workspace
        bad = tmp_path / "bad.instance"
        save_instance(parse_instance("Refund(ada)"), bad)
        query_path = tmp_path / "q.query"
        query_path.write_text("q(c) :- Order(c, i)\n")
        assert main(
            [
                "certain",
                "--mapping",
                str(mapping_path),
                "--target",
                str(bad),
                "--query",
                str(query_path),
            ]
        ) == 1


class TestRepair:
    def test_repair_removes_foreign_fact(self, workspace, tmp_path, capsys):
        _, mapping_path, _, _ = workspace
        bad = tmp_path / "bad.instance"
        save_instance(
            parse_instance("Shipment(laptop), Invoice(ada), Refund(ada)"), bad
        )
        assert main(
            ["repair", "--mapping", str(mapping_path), "--target", str(bad)]
        ) == 0
        output = capsys.readouterr().out
        assert "- Refund(ada)" in output

    def test_parse_error_is_reported(self, workspace, tmp_path, capsys):
        _, mapping_path, _, _ = workspace
        broken = tmp_path / "broken.instance"
        broken.write_text("R(a) @@")
        code = main(
            ["recover", "--mapping", str(mapping_path), "--target", str(broken)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def xr_workspace(tmp_path):
    """A mapping whose target is inconsistent under the paper semantics."""
    mapping_path = tmp_path / "xr.mapping"
    save_mapping(Mapping(parse_tgds("S(x) -> T(x, y)")), mapping_path)
    target_path = tmp_path / "xr.instance"
    save_instance(parse_instance("T(a, b), T(a, c)"), target_path)
    return mapping_path, target_path


class TestSemanticsFlag:
    def test_paper_rejects_inconsistent_target(self, xr_workspace, capsys):
        mapping_path, target_path = xr_workspace
        code = main(
            ["recover", "--mapping", str(mapping_path), "--target", str(target_path)]
        )
        assert code == 1
        assert "paper semantics" in capsys.readouterr().out

    def test_exchange_repairs_recovers_it(self, xr_workspace, capsys):
        mapping_path, target_path = xr_workspace
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--semantics",
                "exchange_repairs",
            ]
        )
        assert code == 0
        assert "S(a)" in capsys.readouterr().out

    def test_validate_reports_mode_specific_verdict(self, xr_workspace, capsys):
        mapping_path, target_path = xr_workspace
        assert main(
            ["validate", "--mapping", str(mapping_path), "--target", str(target_path)]
        ) == 1
        code = main(
            [
                "validate",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--semantics",
                "exchange_repairs",
            ]
        )
        assert code == 0
        assert "exchange_repairs semantics" in capsys.readouterr().out

    def test_certain_under_exchange_repairs(self, xr_workspace, tmp_path, capsys):
        mapping_path, target_path = xr_workspace
        query_path = tmp_path / "q.query"
        query_path.write_text("q(x) :- S(x)\n")
        code = main(
            [
                "certain",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--query",
                str(query_path),
                "--semantics",
                "exchange_repairs",
            ]
        )
        assert code == 0
        assert "{(a)}" in capsys.readouterr().out

    def test_unknown_mode_exits_2_listing_alternatives(self, xr_workspace, capsys):
        mapping_path, target_path = xr_workspace
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--semantics",
                "no_such_mode",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "registered modes" in err

    def test_report_carries_semantics(self, xr_workspace, tmp_path, capsys):
        import json

        mapping_path, target_path = xr_workspace
        out = tmp_path / "metrics.json"
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--semantics",
                "exchange_repairs",
                "--stats",
                "--metrics-json",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["semantics"] == "exchange_repairs"
        assert "semantics" in capsys.readouterr().err  # --stats table row


class TestEngineFlags:
    def test_recover_with_stats(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--stats",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "recovery(ies):" in captured.out
        assert "engine counters" in captured.err
        assert "coverings_evaluated" in captured.err

    def test_certain_accepts_stats(self, workspace, tmp_path, capsys):
        _, mapping_path, _, target_path = workspace
        query_path = tmp_path / "q.query"
        query_path.write_text("q(c) :- Order(c, i)\n")
        code = main(
            [
                "certain",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--query",
                str(query_path),
                "--stats",
            ]
        )
        assert code == 0
        assert "engine counters" in capsys.readouterr().err


class TestObservability:
    def test_trace_prints_span_tree(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--trace",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace:" in err
        assert "cli.recover" in err
        assert "execute" in err

    def test_metrics_json_document(self, workspace, tmp_path, capsys):
        import json

        _, mapping_path, _, target_path = workspace
        out = tmp_path / "metrics.json"
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--metrics-json",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "recover"
        assert doc["status"] == "exact"
        assert doc["result_size"] >= 1
        assert doc["counters"]["coverings_evaluated"] >= 1
        (root,) = doc["trace"]
        assert root["name"] == "cli.recover"

    def test_metrics_json_records_a_failed_run(self, lemma1, tmp_path, capsys):
        import json

        mapping_path, target_path = lemma1
        out = tmp_path / "metrics.json"
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--max-recoveries",
                "100",
                "--metrics-json",
                str(out),
            ]
        )
        assert code == 2
        assert "exceeded configured limit of 100" in capsys.readouterr().err
        assert json.loads(out.read_text())["status"] == "error"

    def test_metrics_json_phases_sum_to_elapsed(self, workspace, tmp_path):
        import json

        _, mapping_path, _, target_path = workspace
        out = tmp_path / "metrics.json"
        assert main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--metrics-json",
                str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        (root,) = doc["trace"]
        phases = {child["name"]: child["wall_ms"] for child in root["children"]}
        assert set(phases) == {"load", "execute"}
        # The load + execute spans cover the command body, so their sum
        # cannot exceed the CLI's own stopwatch (modulo rounding).
        assert sum(phases.values()) <= doc["elapsed_ms"] + 1.0

    def test_trace_does_not_leak_into_untraced_runs(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        base = ["recover", "--mapping", str(mapping_path), "--target", str(target_path)]
        assert main(base + ["--trace"]) == 0
        capsys.readouterr()
        assert main(base) == 0
        assert "trace:" not in capsys.readouterr().err

    def test_stats_report_embeds_trace(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--trace",
                "--stats",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "run report" in err
        assert "trace:" in err


class TestArgumentValidation:
    """Non-positive or non-finite resource knobs are rejected up front
    with exit code 2 (``nan``/``inf`` would silently mean "no limit")."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--deadline-ms", "0"),
            ("--deadline-ms", "-5"),
            ("--deadline-ms", "nan"),
            ("--deadline-ms", "inf"),
            ("--checkpoint-every-ms", "0"),
            ("--checkpoint-every-ms", "-100"),
            ("--checkpoint-every-ms", "nan"),
        ],
    )
    def test_non_positive_values_exit_2(self, workspace, capsys, flag, value):
        _, mapping_path, _, target_path = workspace
        argv = [
            "recover",
            "--mapping",
            str(mapping_path),
            "--target",
            str(target_path),
            flag,
            value,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_non_numeric_value_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--max-inflight", "many"])
        assert exc.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, workspace, capsys):
        _, mapping_path, _, target_path = workspace
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "recover",
                    "--mapping",
                    str(mapping_path),
                    "--target",
                    str(target_path),
                    "--resume",
                ]
            )
        assert exc.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


class TestUnreadableInputs:
    """A missing or unreadable input file exits 2 (usage error), never 1
    (which means "empty/negative result"), and prints no traceback."""

    @pytest.mark.parametrize("broken", ["missing-mapping", "missing-target", "dir-target"])
    def test_unreadable_input_exits_2(self, workspace, broken):
        tmp_path, mapping_path, _, target_path = workspace
        if broken == "missing-mapping":
            mapping_path = bad = tmp_path / "missing.mapping"
        elif broken == "missing-target":
            target_path = bad = tmp_path / "missing.instance"
        else:
            target_path = bad = tmp_path
        result = run_cli(
            "recover", "--mapping", str(mapping_path), "--target", str(target_path)
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {bad}: ")


class TestCheckpointFlags:
    def test_recover_writes_snapshot(self, workspace, tmp_path, capsys):
        _, mapping_path, _, target_path = workspace
        snap = tmp_path / "run.ckpt"
        code = main(
            [
                "recover",
                "--mapping",
                str(mapping_path),
                "--target",
                str(target_path),
                "--checkpoint",
                str(snap),
            ]
        )
        assert code == 0
        assert snap.exists()

    def test_resume_reports_outcome_and_matches(self, workspace, tmp_path, capsys):
        _, mapping_path, _, target_path = workspace
        snap = tmp_path / "run.ckpt"
        base = [
            "recover",
            "--mapping",
            str(mapping_path),
            "--target",
            str(target_path),
            "--checkpoint",
            str(snap),
        ]
        assert main(base) == 0
        first_out = capsys.readouterr().out
        assert main(base + ["--resume", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first_out
        assert "resume_outcome" in captured.err
        assert "complete" in captured.err

    def test_certain_accepts_checkpoint(self, workspace, tmp_path, capsys):
        _, mapping_path, _, target_path = workspace
        query_path = tmp_path / "q.query"
        query_path.write_text("q(c) :- Order(c, i)\n")
        snap = tmp_path / "certain.ckpt"
        argv = [
            "certain",
            "--mapping",
            str(mapping_path),
            "--target",
            str(target_path),
            "--query",
            str(query_path),
            "--checkpoint",
            str(snap),
        ]
        assert main(argv) == 0
        first_out = capsys.readouterr().out
        assert snap.exists()
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first_out


class TestDeterministicOutput:
    def test_recover_output_ignores_the_hash_seed(self, tmp_path):
        """The Lemma-1 family has many interchangeable nulls, so any
        hash-ordered iteration that leaks into the enumeration reorders
        the printed recoveries between processes."""
        mapping_path = tmp_path / "lemma1.mapping"
        mapping_path.write_text("R(x, y) -> S(x)\nR(u, v) -> T(v)\n")
        target_path = tmp_path / "lemma1.instance"
        target_path.write_text("S(a0)\nS(a1)\nT(b0)\nT(b1)\nT(b2)\n")
        args = ("recover", "--mapping", str(mapping_path), "--target", str(target_path))
        runs = [run_cli(*args, PYTHONHASHSEED=seed) for seed in ("0", "1")]
        assert all(run.returncode == 0 for run in runs)
        assert runs[0].stdout.startswith("24 recovery(ies):")
        assert runs[0].stdout == runs[1].stdout
