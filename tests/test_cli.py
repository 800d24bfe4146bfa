"""End-to-end command-line runs over JSON fixture files."""

import hashlib
import json

import numpy as np
import pytest

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    CorrelatedCode,
    CqChannel,
    DeterministicCode,
    Povm,
    RandomCode,
    basis_state,
    bit_flip_channel,
    computational_povm,
    from_document,
    identity_channel,
    probes_to_document,
    to_document,
    write_document,
)
from avqclab.cli import run

COMP_WORDS = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())


def write(tmp_path, name, doc):
    target = tmp_path / name
    write_document(doc, str(target))
    return str(target)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured


def identity_avqc_doc():
    return to_document(Avqc(("s0",), {"s0": identity_channel(2)}))


def comp_code_doc():
    return to_document(DeterministicCode(1, COMP_WORDS, computational_povm(2)))


def swap_avcqc_doc():
    a = CqChannel((0, 1), {0: COMP_WORDS[0], 1: COMP_WORDS[1]})
    b = CqChannel((0, 1), {0: COMP_WORDS[1], 1: COMP_WORDS[0]})
    return to_document(AvCqc((0, 1), {0: a, 1: b}))


class TestValidate:
    def test_channel_document(self, tmp_path, capsys):
        path = write(tmp_path, "ch.json", to_document(bit_flip_channel(0.25)))
        code, captured = run_json(capsys, ["validate", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "validation_result"
        assert doc["valid"] is True
        assert doc["object_kind"] == "channel"
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert doc["manifest"]["input_digests"]["input"] == digest
        assert doc["manifest"]["command"] == "validate"
        assert isinstance(doc["manifest"]["wall_time_ms"], int)

    def test_semantic_failure(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.json",
            {"kind": "density_matrix", "matrix": [[0.9, 0.0], [0.0, 0.9]]},
        )
        code, captured = run_json(capsys, ["validate", "--input", path])
        assert code == 2
        assert "validation error" in captured.err

    def test_malformed_json_pointer(self, tmp_path, capsys):
        target = tmp_path / "broken.json"
        target.write_text('{"kind": "channel",\n  "dim_in": }')
        code, captured = run_json(capsys, ["validate", "--input", str(target)])
        assert code == 2
        assert "schema error" in captured.err
        assert f"{target}:2:" in captured.err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        target = tmp_path / "utf16.json"
        target.write_bytes(b"\xff\xfe{\x00}\x00")
        code, captured = run_json(capsys, ["validate", "--input", str(target)])
        assert code == 2
        assert "schema error" in captured.err
        assert f"{target}: not UTF-8 text" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        code, captured = run_json(
            capsys, ["validate", "--input", str(tmp_path / "nope.json")]
        )
        assert code == 2


class TestSymcheck:
    def test_singleton_identity_infeasible(self, tmp_path, capsys):
        path = write(tmp_path, "avqc.json", identity_avqc_doc())
        probes = write(
            tmp_path,
            "probes.json",
            probes_to_document([w for w in COMP_WORDS]),
        )
        code, captured = run_json(
            capsys, ["symcheck", "--input", path, "--probes", probes]
        )
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "symcheck_result"
        assert doc["feasible"] is False
        assert doc["witness"] is None
        assert doc["manifest"]["config"]["probes"] == "file"

    def test_default_probe_frame(self, tmp_path, capsys):
        path = write(tmp_path, "avqc.json", identity_avqc_doc())
        code, captured = run_json(capsys, ["symcheck", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["feasible"] is False
        assert doc["manifest"]["config"]["probes"] == "hermitian_frame"
        assert doc["manifest"]["config"]["l"] == 1

    def test_wrong_kind(self, tmp_path, capsys):
        path = write(tmp_path, "ch.json", to_document(identity_channel(2)))
        code, captured = run_json(capsys, ["symcheck", "--input", path])
        assert code == 2
        assert "$.kind" in captured.err

    def test_budget_exit_code(self, tmp_path, capsys):
        avqc = Avqc(
            ("a", "b"), {"a": identity_channel(2), "b": bit_flip_channel(0.5)}
        )
        path = write(tmp_path, "avqc.json", to_document(avqc))
        code, captured = run_json(
            capsys,
            ["symcheck", "--input", path, "--l", "2", "--budget", "3"],
        )
        assert code == 3
        assert "budget exceeded" in captured.err


class TestCapacity:
    def test_swap_pair(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        code, captured = run_json(
            capsys, ["capacity", "--input", path, "--grid", "16"]
        )
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "capacity_result"
        assert doc["value"] <= 1e-6
        assert doc["grid_step"] == pytest.approx(1.0 / 16.0)
        assert doc["manifest"]["config"]["grid_steps"] == 16

    def test_certified_interval_keys(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        _, captured = run_json(capsys, ["capacity", "--input", path, "--grid", "8"])
        doc = json.loads(captured.out)
        assert doc["lower_bound"] <= doc["value"] <= doc["upper_bound"]
        assert doc["certified_gap"] == doc["upper_bound"] - doc["lower_bound"]

    def test_grid_of_one_step_names_the_flag(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        assert run(["capacity", "--input", path, "--grid", "1"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_tol_is_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        with pytest.raises(SystemExit) as exc:
            run(["capacity", "--input", path, "--tol", "0.5"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestCr:
    def test_block_diagonal_source(self, tmp_path, capsys):
        src = BipartiteSource(
            (0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]])
        )
        path = write(tmp_path, "src.json", to_document(src))
        code, captured = run_json(capsys, ["cr", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "cr_result"
        assert doc["extractable"] is True
        assert doc["component_count"] == 2
        assert doc["binary_reduction"]["bits"] == pytest.approx(1.0)

    def test_product_source_notes_reduction_failure(self, tmp_path, capsys):
        src = BipartiteSource(
            (0, 1), (0, 1), np.outer([0.5, 0.5], [0.5, 0.5])
        )
        path = write(tmp_path, "src.json", to_document(src))
        code, captured = run_json(capsys, ["cr", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["extractable"] is False
        assert doc["binary_reduction"] is None
        assert doc["binary_reduction_note"]


class TestSimulate:
    def envelope(self, tmp_path):
        return write(
            tmp_path,
            "problem.json",
            {
                "kind": "simulation_problem",
                "avqc": identity_avqc_doc(),
                "code": comp_code_doc(),
            },
        )

    def test_exhaustive_report(self, tmp_path, capsys):
        path = self.envelope(tmp_path)
        code, captured = run_json(capsys, ["simulate", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "error_report"
        assert doc["avg_success_worst"] == pytest.approx(1.0)
        assert doc["max_error_worst"] == pytest.approx(0.0)
        assert doc["method"] == "exhaustive"
        assert doc["worst_state_seq"] == ["s0"]

    def test_greedy_mode_flag(self, tmp_path, capsys):
        path = self.envelope(tmp_path)
        code, captured = run_json(
            capsys, ["simulate", "--input", path, "--mode", "greedy"]
        )
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["method"] == "greedy"
        assert doc["manifest"]["config"]["mode"] == "greedy"

    def test_config_does_not_depend_on_the_machine(self, tmp_path, capsys):
        path = self.envelope(tmp_path)
        code, captured = run_json(capsys, ["simulate", "--input", path])
        assert code == 0
        config = json.loads(captured.out)["manifest"]["config"]
        assert config == {"budget": 4096, "mode": "auto"}

    def test_missing_envelope_fields(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "problem.json",
            {"kind": "simulation_problem", "avqc": identity_avqc_doc()},
        )
        code, captured = run_json(capsys, ["simulate", "--input", path])
        assert code == 2
        assert "code" in captured.err


class TestReduce:
    def envelope(self, tmp_path, sample_count=4):
        return write(
            tmp_path,
            "problem.json",
            {
                "kind": "reduction_problem",
                "avqc": identity_avqc_doc(),
                "code": {
                    "kind": "random_code",
                    "support": [comp_code_doc()],
                    "weights": [1.0],
                },
                "l": 1,
                "sample_count": sample_count,
                "eps": 0.1,
            },
        )

    def test_reduction(self, tmp_path, capsys):
        path = self.envelope(tmp_path)
        code, captured = run_json(capsys, ["reduce", "--input", path, "--seed", "7"])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "reduction_result"
        assert doc["verified"] is True
        assert doc["sample_count"] == 4
        assert len(doc["codes"]) == 4
        assert doc["manifest"]["seed"] == 7

    def test_missing_field(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "problem.json",
            {
                "kind": "reduction_problem",
                "avqc": identity_avqc_doc(),
                "code": {
                    "kind": "random_code",
                    "support": [comp_code_doc()],
                    "weights": [1.0],
                },
                "l": 1,
                "eps": 0.1,
            },
        )
        code, captured = run_json(capsys, ["reduce", "--input", path])
        assert code == 2
        assert "sample_count" in captured.err


class TestCompose:
    def envelope(self, tmp_path):
        src = BipartiteSource(
            (0, 1), (0, 1), np.array([[0.5, 0.0], [0.0, 0.5]])
        )
        povm = computational_povm(2)
        cr_code = CorrelatedCode(
            1,
            1,
            src,
            {(0,): COMP_WORDS, (1,): COMP_WORDS},
            {(0,): povm, (1,): povm},
        )
        det_a = DeterministicCode(1, COMP_WORDS, povm)
        det_b = DeterministicCode(
            1,
            (COMP_WORDS[1], COMP_WORDS[0]),
            Povm((povm.elements[1], povm.elements[0])),
        )
        payload = RandomCode((det_a, det_b), np.array([0.5, 0.5]))
        return write(
            tmp_path,
            "problem.json",
            {
                "kind": "composition_problem",
                "cr_code": to_document(cr_code),
                "payload": to_document(payload),
                "target_l": 2,
            },
        )

    def test_composition_result_decodes(self, tmp_path, capsys):
        path = self.envelope(tmp_path)
        code, captured = run_json(capsys, ["compose", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["kind"] == "correlated_code"
        assert doc["manifest"]["command"] == "compose"
        composed = from_document(doc)
        assert composed.l == 2
        assert composed.message_count == 2


class TestOutputPlumbing:
    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path, "ch.json", to_document(identity_channel(2)))
        out = tmp_path / "result.json"
        code, captured = run_json(
            capsys, ["validate", "--input", path, "--out", str(out)]
        )
        assert code == 0
        assert captured.out == ""
        doc = json.loads(out.read_text())
        assert doc["valid"] is True

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "ch.json", to_document(identity_channel(2)))
        code, captured = run_json(
            capsys, ["validate", "--input", path, "--format", "text"]
        )
        assert code == 0
        assert "valid: True" in captured.out
        assert "{" not in captured.out.splitlines()[0]

    def test_determinism_modulo_wall_time(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        argv = ["capacity", "--input", path, "--grid", "8", "--seed", "3"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        a = json.loads(first.out)
        b = json.loads(second.out)
        a["manifest"].pop("wall_time_ms")
        b["manifest"].pop("wall_time_ms")
        assert a == b


@pytest.mark.parametrize(
    "command, flag",
    [
        ("validate", "--seed"),
        ("symcheck", "--seed"),
        ("cr", "--seed"),
        ("simulate", "--seed"),
        ("compose", "--seed"),
        ("validate", "--budget"),
        ("cr", "--budget"),
        ("compose", "--budget"),
    ],
)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, command, flag):
    # argparse exits before the input is opened
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", str(tmp_path / "unread.json"), flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
