"""End-to-end command-line runs over JSON fixture files."""

import gc
import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avqclab import (
    Avqc,
    AvCqc,
    BipartiteSource,
    CorrelatedCode,
    CqChannel,
    DensityMatrix,
    DeterministicCode,
    Povm,
    QuantumChannel,
    RandomCode,
    basis_state,
    bit_flip_channel,
    computational_povm,
    dumps_document,
    from_document,
    identity_channel,
    probes_to_document,
    projective_decoder,
    to_document,
    write_document,
)
import avqclab.cli
import avqclab.symmetrize as symmetrize
from avqclab.cli import run

from helpers import branch_stack, random_channel, random_density, rng_for, run_python

COMP_WORDS = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())

# The binary adder AVC, Y = X + S with X, S in {0, 1}: symmetrizable, with
# random capacity 1/2
ADDER = {
    "kind": "classical_avc",
    "states": ["0", "1"],
    "kernels": {"0": [[1, 0, 0], [0, 1, 0]], "1": [[0, 1, 0], [0, 0, 1]]},
}


def write(tmp_path, name, doc):
    target = tmp_path / name
    write_document(doc, str(target))
    return str(target)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured


def write_with_token(tmp_path, name, doc, keys, token):
    """Write ``doc`` with the number at ``keys`` replaced by a raw JSON token."""
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 0.123456789
    text = json.dumps(doc).replace("0.123456789", token)
    assert token in text
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def non_finite_sites():
    """For each document kind: a valid document, where to break it, the path named."""
    words = (basis_state(2, 0).to_density(), basis_state(2, 1).to_density())
    code = DeterministicCode(1, words, computational_povm(2))
    return {
        "density_matrix": (to_document(words[0]), ("matrix", 0, 0, 0), "$.matrix[0][0]"),
        "povm": (
            to_document(computational_povm(2)),
            ("elements", 1, 1, 1, 1),
            "$.elements[1][1][1]",
        ),
        "channel": (
            to_document(bit_flip_channel(0.25)),
            ("kraus", 0, 0, 0, 0),
            "$.kraus[0][0][0]",
        ),
        "bipartite_source": (
            to_document(BipartiteSource((0, 1), (0, 1), np.eye(2) / 2)),
            ("joint", 0, 1),
            "$.joint[0][1]",
        ),
        "classical_avc": (
            {"kind": "classical_avc", "states": ["a"], "kernels": {"a": [[1.0, 0.0], [0.0, 1.0]]}},
            ("kernels", "a", 1, 0),
            "$.kernels.a[1][0]",
        ),
        "random_code": (
            to_document(RandomCode((code,), np.array([1.0]))),
            ("weights", 0),
            "$.weights[0]",
        ),
    }


def stall_highs(monkeypatch) -> None:
    """Stop every HiGHS solve at an iteration limit of 0, before it reaches an optimum."""
    from scipy.optimize._highspy import _core

    class Stalled(_core._Highs):
        def run(self):
            self.setOptionValue("presolve", "off")
            self.setOptionValue("simplex_iteration_limit", 0)
            return super().run()

    monkeypatch.setattr(_core, "_Highs", Stalled)


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

    def test_classical_avc_is_a_cq_family(self, tmp_path, capsys):
        path = write(tmp_path, "adder.json", ADDER)
        code, captured = run_json(capsys, ["validate", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["object_kind"] == "classical_avc"
        assert doc["object_type"] == "AvCqc"

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

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("kind", sorted(non_finite_sites()))
    def test_non_finite_number_is_a_schema_error(self, tmp_path, capsys, kind, token):
        doc, keys, at = non_finite_sites()[kind]
        path = write_with_token(tmp_path, "doc.json", doc, keys, token)
        code, captured = run_json(capsys, ["validate", "--input", path])
        assert code == 2
        assert captured.err.startswith("schema error:")
        assert f"{path}:{at}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"kind": "density_matrix", "matrix": [[1e308, -1e308], [1e308, 0]]},
                "not Hermitian (max deviation inf)",
            ),
            (
                {"kind": "density_matrix", "matrix": [[1e308, 0], [0, 1e308]]},
                "trace deviates from 1 by inf",
            ),
            (
                {"kind": "density_matrix", "matrix": [[1e308, 0, 0], [0, -1e308, 0], [0, 0, 1]]},
                "negative eigenvalue -1.000e+308",
            ),
            (
                {"kind": "povm", "elements": [[[1e308, -1e308], [1e308, 0]]]},
                "element 0 is not Hermitian",
            ),
            (
                {"kind": "povm", "elements": [[[1e308, 0], [0, 1]], [[1e308, 0], [0, 0]]]},
                "resolution of identity by inf",
            ),
            (
                {"kind": "channel", "kraus": [[[1e200, 0], [0, 1]]]},
                "Gram matrix has eigenvalue -inf",
            ),
        ],
    )
    def test_huge_finite_entries_fail_without_a_warning(self, tmp_path, capsys, doc, message):
        # the suite turns a RuntimeWarning into an error, so a leaked overflow fails here
        path = write(tmp_path, "doc.json", doc)
        code, captured = run_json(capsys, ["validate", "--input", path])
        assert code == 2
        assert captured.err.startswith("validation error:")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_missing_file(self, tmp_path, capsys):
        code, captured = run_json(
            capsys, ["validate", "--input", str(tmp_path / "nope.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "symcheck"])
    @pytest.mark.parametrize("kind", [[], {}, 3, None])
    def test_a_non_string_kind_is_a_schema_error(self, tmp_path, capsys, command, kind):
        path = write(tmp_path, "doc.json", {"kind": kind})
        code, captured = run_json(capsys, [command, "--input", path])
        assert code == 2
        assert captured.err.startswith("schema error:")
        assert f"{path}:$.kind" in captured.err
        assert captured.out == ""


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

    def test_probes_of_the_wrong_kind(self, tmp_path, capsys):
        path = write(tmp_path, "avqc.json", identity_avqc_doc())
        probes = write(tmp_path, "ch.json", to_document(identity_channel(2)))
        code, captured = run_json(capsys, ["symcheck", "--input", path, "--probes", probes])
        assert code == 2
        assert "probe_set" in captured.err
        assert f"{probes}:$.kind" in captured.err
        assert captured.out == ""

    def test_budget_exit_code(self, tmp_path, capsys):
        # 2**17 state sequences exceed ENUM_BUDGET; nothing of size 2**17 is built
        avqc = Avqc(
            ("a", "b"), {"a": identity_channel(2), "b": bit_flip_channel(0.5)}
        )
        path = write(tmp_path, "avqc.json", to_document(avqc))
        code, captured = run_json(capsys, ["symcheck", "--input", path, "--l", "17"])
        assert code == 3
        assert captured.err.startswith("budget exceeded:")
        assert "2^17 words of length 17 exceed budget 65536" in captured.err
        assert captured.out == ""

    def test_frame_is_sized_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        # at l=4 the qubit pair's LP has 551,489,536 nonzeros; its frame alone
        # would be 256 matrices of 16 x 16
        avqc = Avqc(("a", "b"), {"a": identity_channel(2), "b": bit_flip_channel(0.5)})
        path = write(tmp_path, "avqc.json", to_document(avqc))

        def frame(dim):
            raise AssertionError("the frame was built before the budget check")

        monkeypatch.setattr(avqclab.cli, "hermitian_probe_frame", frame)
        code, captured = run_json(capsys, ["symcheck", "--input", path, "--l", "4"])
        assert code == 3
        assert "nonzeros" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_outside_the_non_negative_reals(self, tmp_path, capsys, monkeypatch, tol):
        path = write(tmp_path, "avqc.json", identity_avqc_doc())
        called = []
        monkeypatch.setattr(avqclab.cli, "check_symmetrizable", lambda *a, **k: called.append(1))
        code, captured = run_json(capsys, ["symcheck", "--input", path, "--tol", tol])
        assert code == 2
        assert "--tol" in captured.err and captured.out == ""
        assert called == []

    def test_a_failed_lp_solve_exits_1_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        # HiGHS stops at its iteration limit; the library raises a bare AvqclabError
        stall_highs(monkeypatch)
        path = write(tmp_path, "avqc.json", identity_avqc_doc())
        code, captured = run_json(capsys, ["symcheck", "--input", path])
        assert code == 1
        assert captured.err == (
            "error: symmetrizability check: LP solver failed (Iteration limit reached)\n"
        )
        assert captured.out == ""


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
        assert doc["certified_gap"] <= 1e-6
        assert "grid_step" not in doc
        assert "grid_steps" not in doc["manifest"]["config"]
        assert "budget" not in doc["manifest"]["config"]

    def test_certified_interval_keys(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        _, captured = run_json(capsys, ["capacity", "--input", path, "--grid", "8"])
        doc = json.loads(captured.out)
        assert doc["lower_bound"] <= doc["value"] <= doc["upper_bound"]
        assert doc["certified_gap"] == doc["upper_bound"] - doc["lower_bound"]

    def test_grid_is_parsed_and_ignored(self, tmp_path, capsys):
        path = write(tmp_path, "cq.json", swap_avcqc_doc())
        _, plain = run_json(capsys, ["capacity", "--input", path])
        _, gridded = run_json(capsys, ["capacity", "--input", path, "--grid", "1"])
        a, b = json.loads(plain.out), json.loads(gridded.out)
        a["manifest"].pop("wall_time_ms")
        b["manifest"].pop("wall_time_ms")
        assert a == b

    def test_binary_adder_certifies_one_half(self, tmp_path, capsys):
        path = write(tmp_path, "adder.json", ADDER)
        code, captured = run_json(capsys, ["capacity", "--input", path])
        assert code == 0
        doc = json.loads(captured.out)
        for key in ("value", "lower_bound", "upper_bound"):
            assert abs(doc[key] - 0.5) <= 1e-7, key
        # its deterministic capacity is 0: the pairwise LP over the letters
        # finds the symmetrizing witness sigma(s|x) = delta(s, x)
        outputs = branch_stack(from_document(ADDER)).transpose(1, 0, 2, 3)
        feasible, dist, residual = symmetrize._pairwise_mixture_feasibility(
            symmetrize._hvec(outputs), 1e-7
        )
        assert feasible and residual <= 1e-12
        assert np.allclose(dist, np.eye(2), atol=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        members=st.integers(1, 3),
        letters=st.integers(2, 4),
        outcomes=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_classical_avc_runs_as_its_av_cqc_spelling(
        self, tmp_path_factory, members, letters, outcomes, seed
    ):
        rng = np.random.default_rng(seed)
        raw = rng.random((members, letters, outcomes)) * (rng.random((members, letters, outcomes)) < 0.7)
        raw[..., 0] += 1e-3  # no empty row
        kernels = raw / raw.sum(axis=-1, keepdims=True)
        states = [f"s{i}" for i in range(members)]
        classical = {
            "kind": "classical_avc",
            "states": states,
            "kernels": {s: k.tolist() for s, k in zip(states, kernels)},
        }
        spelled = {
            "kind": "av_cqc",
            "states": states,
            "alphabet": [str(x) for x in range(letters)],
            "branches": {s: [np.diag(row).tolist() for row in k] for s, k in zip(states, kernels)},
        }
        tmp = tmp_path_factory.mktemp("spellings")
        results = []
        for name, doc in (("classical", classical), ("spelled", spelled)):
            out = tmp / f"{name}.out.json"
            assert run(["capacity", "--input", write(tmp, f"{name}.json", doc), "--out", str(out)]) == 0
            result = json.loads(out.read_text())
            result["manifest"]["wall_time_ms"] = 0
            result["manifest"]["input_digests"] = {}  # the two input files differ
            results.append(dumps_document(result))
        assert results[0] == results[1]

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

    def test_a_source_past_the_partition_budget_notes_the_budget(self, tmp_path, capsys):
        # 9 + 9 letters: 2**18 partition pairs exceed ENUM_BUDGET; the
        # extractability verdict is still reported
        src = BipartiteSource(tuple(range(9)), tuple(range(9)), np.eye(9) / 9)
        path = write(tmp_path, "src.json", to_document(src))
        code, captured = run_json(capsys, ["cr", "--input", path])
        assert code == 0, captured.err
        doc = json.loads(captured.out)
        assert doc["extractable"] is True
        assert doc["binary_reduction"] is None
        assert doc["binary_reduction_note"] == (
            "binary_reduction: partition pairs: 2^18 words of length 18 exceed budget 65536"
        )


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

    def test_auto_mode_goes_greedy_past_the_enumeration_budget(self, tmp_path, capsys):
        # 9**4 = 6,561 sequences exceed auto mode's EXHAUSTIVE_BUDGET of 4,096,
        # so auto mode must search greedily, and the manifest names that cap
        rng = rng_for(31)
        labels = tuple(f"s{i}" for i in range(9))
        avqc = Avqc(labels, {s: random_channel(rng, 2) for s in labels})
        pure = (basis_state(16, 0), basis_state(16, 15))
        block = DeterministicCode(4, [p.to_density() for p in pure], projective_decoder(pure))
        path = write(
            tmp_path, "problem.json",
            {"kind": "simulation_problem", "avqc": to_document(avqc), "code": to_document(block)},
        )
        code, captured = run_json(capsys, ["simulate", "--input", path])
        assert code == 0, captured.err
        doc = json.loads(captured.out)
        assert doc["method"] == "greedy"
        assert doc["manifest"]["config"] == {"budget": 4096, "mode": "auto"}

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


def swapped_code_doc():
    povm = computational_povm(2)
    return to_document(
        DeterministicCode(1, COMP_WORDS[::-1], Povm(povm.elements[::-1]))
    )


class TestReduce:
    def envelope(self, tmp_path, sample_count=4, **fields):
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
                **fields,
            },
        )

    def test_repeated_draws_share_one_document(self, tmp_path, capsys, monkeypatch):
        # two support codes and six draws, so draws repeat
        code_doc = {
            "kind": "random_code",
            "support": [comp_code_doc(), swapped_code_doc()],
            "weights": [0.5, 0.5],
        }
        path = self.envelope(tmp_path, sample_count=6, code=code_doc)
        written = []

        def dumps(doc):
            written.append(doc)
            return dumps_document(doc)

        monkeypatch.setattr(avqclab.cli, "dumps_document", dumps)
        code, captured = run_json(capsys, ["reduce", "--input", path, "--seed", "3"])
        assert code == 0
        (result,) = written
        codes = result["codes"]
        assert len({id(c) for c in codes}) == 2
        for a in codes:
            for b in codes:
                assert (a is b) == (a == b)
        read_back = json.loads(captured.out)
        assert read_back == result
        text = json.dumps(read_back, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert captured.out == text
        assert json.loads(dumps_document(result)) == result

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_count", 2.5),
            ("sample_count", "3"),
            ("sample_count", True),
            ("sample_count", 0),
            ("eps", "0.1"),
            ("eps", None),
            ("eps", True),
            ("l", 1.0),
            ("l", True),
        ],
    )
    def test_malformed_field_is_a_schema_error(self, tmp_path, capsys, field, value):
        path = self.envelope(tmp_path, **{field: value})
        code, captured = run_json(capsys, ["reduce", "--input", path])
        assert code == 2
        assert captured.err.startswith("schema error:")
        assert f"{path}:$.{field}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400"])
    def test_non_finite_eps_is_a_schema_error(self, tmp_path, capsys, token):
        with open(self.envelope(tmp_path)) as handle:
            doc = json.load(handle)
        path = write_with_token(tmp_path, "raw.json", doc, ("eps",), token)
        code, captured = run_json(capsys, ["reduce", "--input", path])
        assert code == 2
        assert f"{path}:$.eps" in captured.err
        assert captured.out == ""

    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys):
        path = self.envelope(tmp_path)
        code, captured = run_json(capsys, ["reduce", "--input", path, "--seed", "-1"])
        assert code == 2
        assert captured.err.startswith("validation error:")
        assert "seed" in captured.err and captured.out == ""

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
    def envelope(self, tmp_path, target_l=2):
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
                "target_l": target_l,
            },
        )

    @pytest.mark.parametrize("target_l", [2.0, "2", True, 0])
    def test_malformed_target_l_is_a_schema_error(self, tmp_path, capsys, target_l):
        path = self.envelope(tmp_path, target_l=target_l)
        code, captured = run_json(capsys, ["compose", "--input", path])
        assert code == 2
        assert captured.err.startswith("schema error:")
        assert f"{path}:$.target_l" in captured.err
        assert captured.out == ""

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


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, enabled):
    avqc = Avqc(("a", "b"), {"a": identity_channel(2), "b": bit_flip_channel(0.5)})
    path = write(tmp_path, "avqc.json", to_document(avqc))
    bad = write(tmp_path, "bad.json", {"kind": []})
    emitted = []
    real = avqclab.cli._emit
    monkeypatch.setattr(
        avqclab.cli, "_emit", lambda *args: emitted.append(gc.isenabled()) or real(*args)
    )
    if not enabled:
        gc.disable()
    try:
        for want, argv in [(0, ["symcheck", "--input", path]), (2, ["validate", "--input", bad]),
                           (3, ["symcheck", "--input", path, "--l", "17"])]:
            assert run(argv) == want
            assert gc.isenabled() is enabled
        with pytest.MonkeyPatch.context() as mp:
            stall_highs(mp)
            assert run(["symcheck", "--input", path]) == 1
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    # the result document is written inside the pause
    assert emitted == [False]
    capsys.readouterr()


def test_main_exits_with_the_code_of_run(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "doc.json", {"kind": []})
    monkeypatch.setattr(sys, "argv", ["avqclab", "validate", "--input", path])
    with pytest.raises(SystemExit) as exc:
        avqclab.cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("schema error:")


@pytest.mark.parametrize("module", ["avqclab", "avqclab.cli"])
def test_python_dash_m_runs_the_command_line(tmp_path, module):
    path = write(tmp_path, "doc.json", {"kind": []})
    done = run_python("-m", module, "validate", "--input", path)
    assert done.returncode == 2
    assert done.stderr.startswith("schema error:")
    assert "Traceback" not in done.stderr
    good = write(tmp_path, "ch.json", to_document(identity_channel(2)))
    done = run_python("-m", module, "validate", "--input", good)
    assert done.returncode == 0
    assert json.loads(done.stdout)["valid"] is True


def test_importing_the_command_line_loads_no_scipy_solver():
    done = run_python(
        "-c", "import sys, avqclab.cli; print('scipy.optimize' in sys.modules, 'scipy.sparse' in sys.modules)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def test_a_capacity_run_loads_no_scipy(tmp_path):
    rng = rng_for(90)
    family = AvCqc(
        (0, 1),
        {s: CqChannel((0, 1), {z: random_density(rng, 2) for z in (0, 1)}) for s in (0, 1)},
    )
    path = write(tmp_path, "family.json", to_document(family))
    done = run_python(
        "-c",
        "import sys; from avqclab.cli import run; code = run(sys.argv[1:]); "
        "print(code, 'scipy' in sys.modules)",
        "capacity", "--input", path, "--out", str(tmp_path / "out.json"),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
    result = json.loads((tmp_path / "out.json").read_text())
    assert 0.0 < result["certified_gap"] <= 1e-7


def test_a_one_letter_correlated_code_of_huge_length_exits_2(tmp_path):
    # 1 ** l passes every size budget, so the keys are checked against the
    # block length before any length-l word is built; the address-space cap
    # turns a build of 10**12 pointers into a MemoryError
    source = BipartiteSource((0,), (0,), np.array([[1.0]]))
    code = CorrelatedCode(1, 1, source, {(0,): COMP_WORDS}, {(0,): computational_povm(2)})
    doc = to_document(code)
    doc["l"] = 10**12
    path = write(tmp_path, "huge.json", doc)
    done = run_python("-m", "avqclab", "validate", "--input", path, address_space=4 << 30)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("validation error:")
    assert "length-1000000000000 sequences" in done.stderr
    assert "Traceback" not in done.stderr


def one_member_huge_problem(command: str) -> dict:
    """A ``command`` input over a one-member family of 1-dimensional channels, at l = 10**12."""
    one = np.eye(1)
    family = to_document(Avqc(("s0",), {"s0": QuantumChannel((one,))}))
    det = to_document(DeterministicCode(1, (DensityMatrix(one),), Povm((one,))))
    if command == "symcheck":
        return family  # the block length is the --l flag
    if command == "simulate":
        return {"kind": "simulation_problem", "avqc": family, "code": dict(det, l=10**12)}
    payload = {"kind": "random_code", "weights": [1.0]}
    if command == "reduce":
        payload["support"] = [dict(det, l=10**12)]
        return {
            "kind": "reduction_problem", "l": 10**12, "sample_count": 1, "eps": 0.5,
            "avqc": family, "code": payload,
        }
    # a one-letter source: the composed observation space has one word, of length 10**12
    source = BipartiteSource((0,), (0,), np.array([[1.0]]))
    cr_code = CorrelatedCode(1, 1, source, {(0,): (DensityMatrix(one),)}, {(0,): Povm((one,))})
    payload["support"] = [dict(det, l=10**12 - 1)]
    return {
        "kind": "composition_problem", "target_l": 10**12,
        "cr_code": to_document(cr_code), "payload": payload,
    }


@pytest.mark.parametrize(
    "command, flags",
    [
        ("simulate", ["--mode", "auto"]),
        ("simulate", ["--mode", "exhaustive"]),
        ("simulate", ["--mode", "greedy"]),
        ("reduce", []),
        ("compose", []),
        ("symcheck", ["--l", str(10**12)]),
    ],
    ids=["auto", "exhaustive", "greedy", "reduce", "compose", "symcheck"],
)
def test_a_one_member_simulation_of_huge_length_exits_cleanly(tmp_path, capsys, command, flags):
    # 1 ** l passes the sequence budget and the code's dimension checks, so
    # the block length itself is checked before any length-l sequence is built
    path = write(tmp_path, "huge.json", one_member_huge_problem(command))
    code, captured = run_json(capsys, [command, "--input", path, *flags])
    assert code == 3, captured.err
    assert captured.err.startswith("budget exceeded:")
    assert captured.err.count("\n") == 1
    assert "length 1000000000000" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("validate", "--seed"),
        ("symcheck", "--seed"),
        ("cr", "--seed"),
        ("simulate", "--seed"),
        ("compose", "--seed"),
        ("validate", "--budget"),
        ("capacity", "--budget"),
        ("cr", "--budget"),
        ("compose", "--budget"),
        ("symcheck", "--budget"),
        ("simulate", "--budget"),
        ("reduce", "--budget"),
    ],
)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, command, flag):
    # argparse exits before the input is opened
    with pytest.raises(SystemExit) as exc:
        run([command, "--input", str(tmp_path / "unread.json"), flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
