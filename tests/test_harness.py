"""Tests for instance JSON, generators, experiment runs, tables, and the CLI."""

from __future__ import annotations

import builtins
import importlib
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qamg.cli as cli
import qamg.harness as harness
import qamg.qam as qam
from qamg.amplification import QmaInstance, counting_certificate
from qamg.circuits import WidthCapError
from qamg.cli import main
from qamg.harness import (
    GENERATOR_KINDS,
    RNG_NAME,
    TABLE_COLUMNS,
    ExperimentConfig,
    SchemaError,
    _num_from_json,
    _num_to_json,
    emit_tables,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    run_batch,
    run_experiment,
    save_instance,
    write_atomic,
)
from qamg.qmam import honest_value

# One compact parameter set per generator kind, small enough for fast tests.
KIND_PARAMS = {
    "qma-p": {"target": "5/16", "m": 1, "k": 3},
    "qma-random": {"m": 1, "k": 2, "gates": 6},
    "qam-bounded": {"s": 2, "m": 1, "k": 3, "error": "1/10"},
    "qam-random": {"s": 1, "m": 1, "k": 2, "gates": 4},
    "qip-perfect": {"k": 1, "m": 1, "gates": 5},
    "qip-no": {"k": 3, "m": 1, "coins": 2},
}


class TestRationalJson:
    def test_integers_stay_bare(self):
        assert _num_to_json(Fraction(3)) == 3
        assert _num_to_json(Fraction(0)) == 0

    def test_fractions_become_strings(self):
        assert _num_to_json(Fraction(3, 4)) == "3/4"
        assert _num_from_json("3/4") == Fraction(3, 4)
        assert _num_from_json(2) == Fraction(2)

    def test_bool_rejected(self):
        with pytest.raises(SchemaError):
            _num_from_json(True)

    def test_bad_values_rejected(self):
        for bad in (None, [1, 2], "abc", "1/0"):
            with pytest.raises(SchemaError):
                _num_from_json(bad)


class TestInstanceJson:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_round_trip_identity(self, kind):
        inst = generate_instance(kind, seed=3, **KIND_PARAMS[kind])
        d1 = instance_to_dict(inst)
        d2 = instance_to_dict(instance_from_dict(d1))
        assert d1 == d2

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_file_round_trip(self, kind, tmp_path):
        inst = generate_instance(kind, seed=5, **KIND_PARAMS[kind])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert instance_to_dict(loaded) == instance_to_dict(inst)

    def test_label_preserved(self):
        inst = generate_instance("qma-p", seed=0)
        assert inst.label == "yes"
        assert instance_from_dict(instance_to_dict(inst)).label == "yes"

    def test_missing_field(self):
        data = instance_to_dict(generate_instance("qma-p", seed=0))
        del data["circuit"]
        with pytest.raises(SchemaError, match="missing"):
            instance_from_dict(data)

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown instance type"):
            instance_from_dict({"type": "bpp"})

    def test_non_object(self):
        with pytest.raises(SchemaError):
            instance_from_dict([1, 2, 3])

    def test_bad_circuit_text(self):
        data = instance_to_dict(generate_instance("qma-p", seed=0))
        data["circuit"] = "not a circuit"
        with pytest.raises(SchemaError, match="circuit"):
            instance_from_dict(data)

    def test_qam_circuits_must_be_mapping(self):
        data = instance_to_dict(generate_instance("qam-random", seed=0, **KIND_PARAMS["qam-random"]))
        data["circuits"] = ["not", "a", "dict"]
        with pytest.raises(SchemaError):
            instance_from_dict(data)

    @pytest.mark.parametrize("field, value", [("m", 1.9), ("k", True), ("m", "1")])
    def test_non_integer_arity(self, field, value):
        data = instance_to_dict(generate_instance("qma-p", seed=0))
        data[field] = value
        with pytest.raises(SchemaError, match=field):
            instance_from_dict(data)

    def test_invariant_violations_become_schema_errors(self):
        data = instance_to_dict(generate_instance("qma-p", seed=0))
        data["a"], data["b"] = "1/4", "3/4"  # thresholds out of order
        with pytest.raises(SchemaError):
            instance_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_instance(path)


class TestWriteAtomic:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(path, "first")
        write_atomic(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_cleans_up_on_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"

        def boom(src, dst):
            raise RuntimeError("simulated rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(RuntimeError):
            write_atomic(path, "content")
        assert list(tmp_path.iterdir()) == []


class TestGenerators:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_deterministic_for_fixed_seed(self, kind):
        a = generate_instance(kind, seed=7, **KIND_PARAMS[kind])
        b = generate_instance(kind, seed=7, **KIND_PARAMS[kind])
        assert instance_to_dict(a) == instance_to_dict(b)

    def test_seed_changes_random_kinds(self):
        a = generate_instance("qma-random", seed=0, **KIND_PARAMS["qma-random"])
        b = generate_instance("qma-random", seed=1, **KIND_PARAMS["qma-random"])
        assert instance_to_dict(a) != instance_to_dict(b)

    @pytest.mark.parametrize("target", ["1/2", "3/8", "5/16", "1", "0"])
    def test_qma_p_declares_realized_spectrum(self, target):
        inst = generate_instance("qma-p", seed=0, target=target, m=1, k=3)
        top = float(inst.spectrum.eigenvalues[0])
        assert abs(top - float(inst.a)) <= 1e-9
        assert inst.b == (Fraction(1, 2) if inst.a == 1 else inst.a / 2)

    def test_qma_p_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            generate_instance("qma-p", seed=0, m=0, k=2)
        with pytest.raises(ValueError):
            generate_instance("qma-p", seed=0, m=1, k=1)
        with pytest.raises(ValueError):
            generate_instance("qma-p", seed=0, target="3/2")

    def test_qam_bounded_meets_error_budget(self):
        inst = generate_instance("qam-bounded", seed=0, s=3, m=1, k=3, error="1/20")
        mu = [float(inst.coin_verifier(y).spectrum.eigenvalues[0]) for y in inst.coins()]
        assert len(mu) == 8
        assert 1.0 - sum(mu) / len(mu) <= 1 / 20
        assert min(mu) >= 2 / 3  # every coin individually passes the Markov cut

    def test_qam_bounded_rejects_tiny_budget(self):
        with pytest.raises(ValueError, match="budget"):
            generate_instance("qam-bounded", seed=0, s=1, m=1, k=3, error="1/100")

    def test_qip_perfect_honest_value_is_one(self):
        inst = generate_instance("qip-perfect", seed=2, k=1, m=1, gates=5)
        assert abs(honest_value(inst) - 1.0) <= 1e-9

    @pytest.mark.parametrize("coins", [0, 1, 2])
    def test_qip_no_declared_epsilon(self, coins):
        inst = generate_instance("qip-no", seed=0, k=3, m=1, coins=coins)
        expected = Fraction(1, 1 << coins) if coins else Fraction(0)
        assert inst.epsilon == expected

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            generate_instance("qzk-random", seed=0)

    def test_width_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QAMG_WIDTH_CAP", "2")
        with pytest.raises(WidthCapError):
            generate_instance("qam-bounded", seed=0, **KIND_PARAMS["qam-bounded"])


class TestExperimentConfig:
    def test_rejects_invalid_mode_for_protocol(self, tmp_path):
        path = _saved(tmp_path, "qip-no", **KIND_PARAMS["qip-no"])
        with pytest.raises(ValueError, match="mode 'enumerate' not valid for qmam"):
            run_experiment(ExperimentConfig(instance=path, mode="enumerate"))

    def test_echo_shape(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        echo = run_experiment(ExperimentConfig(instance=path, mode="analytic", reps=4))["config"]
        assert echo["protocol"] == "qma"  # named by the instance's type
        assert echo["reps"] == 4
        assert set(echo) == {
            "protocol", "instance", "mode", "seed", "reps", "copies", "restarts", "exact",
        }


def _saved(tmp_path, kind, seed=0, name="inst.json", **params):
    path = tmp_path / name
    save_instance(generate_instance(kind, seed=seed, **params), path)
    return str(path)


class TestRunExperiment:
    def test_qma_enumerate_report(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        config = ExperimentConfig(instance=path, mode="enumerate", reps=6)
        report = run_experiment(config)
        assert report["passed"]
        assert report["rng"] == RNG_NAME
        assert report["residuals"]["enumerate_vs_analytic"] < 1e-9
        assert report["table_row"]["N_or_t"] == 6
        assert report["table_row"]["message_qubits"] == 1

    def test_deterministic_modulo_wall_clock(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        config = ExperimentConfig(instance=path, mode="sample", seed=11, reps=8)
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        r1.pop("wall_clock_seconds")
        r2.pop("wall_clock_seconds")
        assert r1 == r2

    def test_qma_copies_row(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        config = ExperimentConfig(instance=path, mode="analytic", copies=3)
        report = run_experiment(config)
        assert report["table_row"]["N_or_t"] == 3
        assert report["table_row"]["message_qubits"] == 3
        assert report["values"]["acceptance"] >= report["values"]["top_eigenvalue"] - 1e-12
        assert report["checks"] == {"acceptance_is_probability": True}

    def test_qma_exact_certificate(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        inst = load_instance(path)
        config = ExperimentConfig(instance=path, mode="analytic", reps=4, exact=True)
        report = run_experiment(config)
        cert = counting_certificate(inst)
        assert report["values"]["certificate"] == {"h": cert.h, "g": cert.g}
        assert report["checks"]["certificate_matches_trace"]

    def test_qma_analytic_report_checks_its_value(self, tmp_path, monkeypatch):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        config = ExperimentConfig(instance=path, mode="analytic", reps=4)
        report = run_experiment(config)
        assert report["checks"] == {"analytic_is_probability": True}
        assert report["passed"]
        monkeypatch.setattr(harness, "analytic_acceptance", lambda *args: Fraction(3, 2))
        report = run_experiment(config)
        assert report["checks"] == {"analytic_is_probability": False}
        assert not report["passed"]

    def test_qam_analytic_repetition(self, tmp_path):
        path = _saved(tmp_path, "qam-bounded", name="qam.json", s=2, m=1, k=3, error="1/10")
        config = ExperimentConfig(instance=path, mode="analytic", reps=2)
        report = run_experiment(config)
        assert report["passed"]
        assert report["residuals"]["repetition_vs_independent"] < 1e-9
        assert report["residuals"]["complement_gap"] <= 1e-12
        assert report["table_row"]["error"] <= 1 / 10

    def test_qam_enumerate_markov(self, tmp_path):
        path = _saved(tmp_path, "qam-bounded", name="qam.json", s=2, m=1, k=3, error="1/10")
        config = ExperimentConfig(instance=path, mode="enumerate")
        report = run_experiment(config)
        assert report["passed"]
        assert report["values"]["exhaustive"]
        assert report["values"]["precondition_ok"]
        assert report["residuals"]["complement_gap"] <= 1e-12

    def test_qmam_analytic_honest(self, tmp_path):
        path = _saved(tmp_path, "qip-perfect", name="qip.json", k=1, m=1, gates=5)
        config = ExperimentConfig(instance=path, mode="analytic")
        report = run_experiment(config)
        assert report["passed"]
        assert abs(report["values"]["honest_value"] - 1.0) <= 1e-9
        assert abs(report["table_row"]["error"]) <= 1e-9

    def test_qmam_sample_cheat(self, tmp_path):
        path = _saved(tmp_path, "qip-no", name="qip.json", k=1, m=1, coins=0)
        config = ExperimentConfig(instance=path, mode="sample", seed=0, restarts=2)
        report = run_experiment(config)
        assert report["passed"]
        assert abs(report["values"]["cheat_value"] - 0.5) <= 1e-6
        assert report["values"]["bound"] == 0.5

    def test_out_file_matches_return(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        out = tmp_path / "report.json"
        config = ExperimentConfig(instance=path, mode="analytic", reps=4, out=str(out))
        report = run_experiment(config)
        assert json.loads(out.read_text()) == report


class TestRunBatch:
    def test_reports_in_input_order(self, tmp_path):
        path = _saved(tmp_path, "qma-p", target="1/2", m=1, k=2)
        configs = [
            ExperimentConfig(instance=path, mode="analytic", reps=r)
            for r in (2, 4, 6)
        ]
        reports = run_batch(configs)
        assert [r["table_row"]["N_or_t"] for r in reports] == [2, 4, 6]
        assert all(r["passed"] for r in reports)

    def test_empty_batch(self):
        assert run_batch([]) == []


def _report_with_row(row):
    return {"table_row": row}


class TestEmitTables:
    def test_empty_gives_canonical_header(self):
        assert emit_tables([]) == "N_or_t,message_qubits,error\n"

    def test_single_row_canonical_order(self):
        row = {"error": 0.25, "N_or_t": 4, "message_qubits": 1}
        text = emit_tables([_report_with_row(row)])
        assert text == "N_or_t,message_qubits,error\n4,1,0.25\n"

    def test_extra_columns_sorted_after_canonical(self):
        row = {"N_or_t": 1, "message_qubits": 2, "error": 0.5, "zeta": 9, "alpha": 7}
        text = emit_tables([_report_with_row(row)])
        assert text.splitlines()[0] == "N_or_t,message_qubits,error,alpha,zeta"

    def test_heterogeneous_rows_rejected(self):
        reports = [
            _report_with_row({"N_or_t": 1, "message_qubits": 1, "error": 0.0}),
            _report_with_row({"N_or_t": 2, "message_qubits": 1}),
        ]
        with pytest.raises(SchemaError, match="heterogeneous"):
            emit_tables(reports)

    def test_missing_table_row_rejected(self):
        with pytest.raises(SchemaError, match="table_row"):
            emit_tables([{"values": {}}])

    def test_quoting_and_float_repr(self):
        row = {"N_or_t": 'a,"b"', "message_qubits": 0, "error": 0.1}
        text = emit_tables([_report_with_row(row)])
        assert text.splitlines()[1] == '"a,""b""",0,0.1'
        assert repr(0.1) in text  # floats round-trip through repr


class TestCli:
    def test_gen_run_table_pipeline(self, tmp_path):
        inst = tmp_path / "inst.json"
        rep1 = tmp_path / "rep1.json"
        rep2 = tmp_path / "rep2.json"
        csv = tmp_path / "sweep.csv"
        assert main(["gen", "--kind", "qma-p", "--target", "1/2", "--m", "1", "--k", "2",
                     "--seed", "4", "--out", str(inst)]) == 0
        assert main(["run", "--instance", str(inst), "--mode", "enumerate",
                     "--reps", "4", "--out", str(rep1)]) == 0
        assert main(["run", "--instance", str(inst), "--mode", "analytic",
                     "--copies", "2", "--out", str(rep2)]) == 0
        # Instance JSON sits beside the reports; the table step must skip it.
        assert main(["table", "--in", str(tmp_path), "--out", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        assert len(lines) == 3

    def test_each_call_parses_on_its_own(self, monkeypatch):
        # the parser is built once; flags from one call must not leak into the next
        seen = []
        monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(args) or 0)
        for extra in (["--exact", "--reps", "3"], []):
            assert main(["run", "--instance", "x.json", "--mode", "enumerate", *extra]) == 0
        assert [(args.exact, args.reps) for args in seen] == [(True, 3), (False, None)]

    def test_failed_checks_exit_one(self, tmp_path):
        inst = tmp_path / "lie.json"
        assert main(["gen", "--kind", "qip-no", "--k", "2", "--m", "1", "--coins", "1",
                     "--seed", "0", "--out", str(inst)]) == 0
        data = json.loads(inst.read_text())
        data["epsilon"] = "1/100"  # falsified: true soundness error is 1/2
        inst.write_text(json.dumps(data, indent=2, sort_keys=True))
        code = main(["run", "--instance", str(inst), "--mode", "sample",
                     "--restarts", "4", "--seed", "0"])
        assert code == 1

    def test_qam_top_eigenvalue_rounding_above_one(self, tmp_path, capsys):
        # coin "0" of this file has a top eigenvalue that rounds to 1 + 2e-16
        path = str(tmp_path / "s23.json")
        assert main(["gen", "--kind", "qam-random", "--seed", "23", "--s", "1", "--m", "3",
                     "--k", "2", "--gates", "12", "--out", path]) == 0
        reports = {}
        for mode in ("analytic", "enumerate"):
            out = tmp_path / f"{mode}.json"
            assert main(["run", "--instance", path, "--mode", mode, "--out", str(out)]) == 0
            reports[mode] = json.loads(out.read_text())
        mu = reports["analytic"]["values"]["mu_by_coin"]
        assert mu == reports["enumerate"]["values"]["mu_by_coin"]
        assert max(mu.values()) == 1.0
        capsys.readouterr()

    def test_complement_gap_is_a_report_check(self, tmp_path, capsys):
        # 20000 random gates leave Q0 + Q1 about 1e-12 from I, near the check's
        # tolerance, so the outcome is not pinned: only that the check decides it
        path = str(tmp_path / "deep.json")
        assert main(["gen", "--kind", "qam-random", "--seed", "1", "--s", "1", "--m", "2",
                     "--k", "3", "--gates", "20000", "--out", path]) == 0
        out = tmp_path / "report.json"
        code = main(["run", "--instance", path, "--mode", "enumerate", "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(out.read_text())
        gap = report["residuals"]["complement_gap"]
        assert report["checks"]["complement_identity"] == (gap <= 1e-12)
        assert code == (1 if gap > 1e-12 else 0)

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["gen", "--kind", "nonsense", "--out", "x.json"]) == 2
        assert main(["run", "--instance", "x.json", "--mode", "enumerate",
                     "--float"]) == 2  # float is the default; the flag is gone
        assert main(["gen", "--kind", "qma-p", "--target", "junk",
                     "--out", str(tmp_path / "x.json")]) == 2
        capsys.readouterr()

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["run", "--instance", str(tmp_path / "absent.json"),
                     "--mode", "analytic"]) == 3
        assert main(["table", "--in", str(tmp_path / "nodir"), "--out",
                     str(tmp_path / "x.csv")]) == 3

    def test_schema_error_exit_four(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--instance", str(bad), "--mode", "analytic"]) == 4
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"type": "qma"}))
        assert main(["run", "--instance", str(wrong), "--mode", "analytic"]) == 4
        data = instance_to_dict(generate_instance("qam-random", seed=0, **KIND_PARAMS["qam-random"]))
        # a huge s must fail on the circuit count, before 2^s coin strings are listed
        for field, value in (("m", 1.9), ("s", True), ("s", 10**30), ("s", 2), ("s", -1)):
            arity = tmp_path / f"arity-{field}.json"
            arity.write_text(json.dumps(dict(data, **{field: value})))
            assert main(["run", "--instance", str(arity), "--mode", "enumerate"]) == 4

    def test_width_cap_exit_five(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QAMG_WIDTH_CAP", "2")
        assert main(["gen", "--kind", "qam-bounded", "--seed", "0",
                     "--out", str(tmp_path / "x.json")]) == 5

    @staticmethod
    def _forbid_work(monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the run must be rejected before any work")

        # a run that got as far as its first operator build, eigensolve or unitary
        # expansion raises here: every qma or qam eigensolve reads q_operator() first
        monkeypatch.setattr(QmaInstance, "q_operator", no_work)
        monkeypatch.setattr(qam, "rejection_operator", no_work)
        monkeypatch.setattr(harness, "honest_value", no_work)

    def test_work_caps_exit_five(self, tmp_path, capsys, monkeypatch):
        qma = _saved(tmp_path, "qma-random", **KIND_PARAMS["qma-random"])
        qam = _saved(tmp_path, "qam-random", name="qam.json", s=2, m=1, k=2)
        qmam = _saved(tmp_path, "qip-no", name="qmam.json", **KIND_PARAMS["qip-no"])
        self._forbid_work(monkeypatch)
        for mode, reps in (("sample", "100000000"), ("analytic", "100000000"),
                           ("enumerate", "21")):
            assert main(["run", "--instance", qma, "--mode", mode, "--reps", reps]) == 5
        assert main(["run", "--instance", qma, "--mode", "analytic",
                     "--copies", str(harness.QMA_COPIES_CAP + 1)]) == 5
        assert main(["run", "--instance", qam, "--mode", "analytic", "--reps", "7"]) == 5
        # k + m + l = 8 qubits, so 2^14 restarts fill the 2^22-amplitude see-saw batch
        assert main(["run", "--instance", qmam, "--mode", "sample",
                     "--restarts", str((1 << 14) + 1)]) == 5
        assert "work cap" in capsys.readouterr().err

    def test_nonpositive_counts_exit_two(self, tmp_path, capsys, monkeypatch):
        qma = _saved(tmp_path, "qma-random", **KIND_PARAMS["qma-random"])
        qam = _saved(tmp_path, "qam-random", name="qam.json", **KIND_PARAMS["qam-random"])
        qmam = _saved(tmp_path, "qip-no", name="qmam.json", **KIND_PARAMS["qip-no"])
        self._forbid_work(monkeypatch)
        for path, option, value in ((qma, "--reps", "0"), (qma, "--reps", "-5"),
                                    (qam, "--reps", "0"), (qma, "--copies", "0")):
            assert main(["run", "--instance", path, "--mode", "analytic", option, value]) == 2
        for value in ("0", "-4"):
            assert main(["run", "--instance", qmam, "--mode", "sample",
                         "--restarts", value]) == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_unread_count_flags_exit_two(self, tmp_path, capsys, monkeypatch):
        qma = _saved(tmp_path, "qma-random", **KIND_PARAMS["qma-random"])
        qam = _saved(tmp_path, "qam-random", name="qam.json", **KIND_PARAMS["qam-random"])
        qmam = _saved(tmp_path, "qip-no", name="qmam.json", **KIND_PARAMS["qip-no"])
        self._forbid_work(monkeypatch)
        for path, mode, option, value in ((qmam, "sample", "--reps", "3"),
                                          (qmam, "analytic", "--reps", "3"),
                                          (qam, "enumerate", "--reps", "3"),
                                          (qma, "enumerate", "--restarts", "4"),
                                          (qma, "enumerate", "--copies", "2")):
            assert main(["run", "--instance", path, "--mode", mode, option, value]) == 2
            assert f"mode does not read {option[2:]}" in capsys.readouterr().err

    def test_unread_exact_and_paired_counts_exit_two(self, tmp_path, capsys, monkeypatch):
        qma = _saved(tmp_path, "qma-p", **KIND_PARAMS["qma-p"])
        qam = _saved(tmp_path, "qam-random", name="qam.json", **KIND_PARAMS["qam-random"])
        qmam = _saved(tmp_path, "qip-no", name="qmam.json", **KIND_PARAMS["qip-no"])
        self._forbid_work(monkeypatch)
        for path, mode, options, message in (
            (qma, "analytic", ("--copies", "3", "--reps", "5"),
             "qma analytic mode does not read reps and copies together"),
            (qma, "analytic", ("--copies", "3", "--reps", "5", "--exact"),
             "qma analytic mode does not read reps and copies together"),
            (qam, "enumerate", ("--exact",), "qam enumerate mode does not read exact"),
            (qam, "analytic", ("--reps", "2", "--exact"), "qam analytic mode does not read exact"),
            (qmam, "sample", ("--exact",), "qmam sample mode does not read exact"),
            (qmam, "analytic", ("--exact",), "qmam analytic mode does not read exact"),
        ):
            assert main(["run", "--instance", path, "--mode", mode, *options]) == 2
            assert message in capsys.readouterr().err

    def test_exact_reads_with_either_qma_count(self, tmp_path):
        qma = _saved(tmp_path, "qma-p", **KIND_PARAMS["qma-p"])
        for options in (("--copies", "3"), ("--reps", "5")):
            out = tmp_path / "report.json"
            assert main(["run", "--instance", qma, "--mode", "analytic", *options, "--exact",
                         "--out", str(out)]) == 0
            assert "h" in json.loads(out.read_text())["values"]["certificate"]

    def test_sample_seed_range(self, tmp_path, capsys):
        qma = _saved(tmp_path, "qma-random", **KIND_PARAMS["qma-random"])
        # a run's 256 Philox keys seed..seed+255 must lie in [0, 2^128)
        for seed, code in ((-1, 2), (2**128 - 255, 2), (2**128 - 256, 0), (2**64 - 1, 0)):
            assert main(["run", "--instance", qma, "--mode", "sample", "--reps", "6",
                         "--seed", str(seed)]) == code
        assert "2**128" in capsys.readouterr().err

    def test_qam_has_no_sample_mode(self, tmp_path, capsys):
        qam = _saved(tmp_path, "qam-random", **KIND_PARAMS["qam-random"])
        assert main(["run", "--instance", qam, "--mode", "sample"]) == 2
        assert "not valid for qam" in capsys.readouterr().err

    def test_run_reads_its_instance_once(self, tmp_path, monkeypatch):
        path = _saved(tmp_path, "qma-p", **KIND_PARAMS["qma-p"])
        loads, opens = [], []
        load, real_open = harness.load_instance, builtins.open

        def counting_open(file, *args, **kwargs):
            opens.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(harness, "load_instance", lambda p: loads.append(p) or load(p))
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        assert main(["run", "--instance", path, "--mode", "analytic", "--reps", "4"]) == 0
        assert loads == [path]
        assert [os.fspath(f) for f in opens if isinstance(f, (str, os.PathLike))].count(path) == 1

    # each input is bad in exactly one way, except the last, which is bad in two
    @pytest.mark.parametrize("name, data, options, code", [
        ("missing file", None, ("--mode", "analytic"), 3),
        ("missing file, count below 1", None, ("--mode", "analytic", "--reps", "0"), 3),
        ("bad JSON", "{not json", ("--mode", "analytic"), 4),
        ("unknown type", {"type": "bpp"}, ("--mode", "analytic"), 4),
        ("malformed field", {"m": 1.9}, ("--mode", "analytic"), 4),
        ("unread flag", {}, ("--mode", "enumerate", "--restarts", "4"), 2),
        ("count below 1", {}, ("--mode", "analytic", "--reps", "0"), 2),
        ("work cap", {}, ("--mode", "enumerate", "--reps", "21"), 5),
        # no 2^70 array or 2^70 message rows may be built before the cap check
        ("width cap", {"m": 70, "k": 0, "circuit": "qubits 70\n"}, ("--mode", "analytic"), 5),
        # the instance is loaded before its flags are read, so the schema error wins
        ("malformed field and unread flag", {"m": 1.9},
         ("--mode", "enumerate", "--restarts", "4"), 4),
    ])
    def test_input_bad_in_one_way(self, tmp_path, capsys, name, data, options, code):
        path = tmp_path / "inst.json"
        if isinstance(data, str):
            path.write_text(data)
        elif isinstance(data, dict):
            base = instance_to_dict(generate_instance("qma-p", seed=0, **KIND_PARAMS["qma-p"]))
            path.write_text(json.dumps(data if "type" in data else dict(base, **data)))
        assert main(["run", "--instance", str(path), *options]) == code, name
        capsys.readouterr()

    def test_table_empty_dir_gives_header(self, tmp_path):
        csv = tmp_path / "empty.csv"
        assert main(["table", "--in", str(tmp_path), "--out", str(csv)]) == 0
        assert csv.read_text() == "N_or_t,message_qubits,error\n"


class TestBenchmarkTracer:
    def test_every_traced_name_resolves(self, monkeypatch):
        # the benchmark's tracer patches these names by lookup, so a rename in
        # qamg would stop its traced runs; it is loaded by path, read only
        path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("_bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for target in tracer.TARGETS:
            module = importlib.import_module(target.module)
            assert callable(getattr(module, target.attr, None)), (target.module, target.attr)
