import json
import re

import pytest

from superharm.cli import JobConfig, ConfigError, build_parser, main
from superharm.algebra import GradingScheme, SchemeKind
from superharm.operators import FiltrationError
from superharm.report import InternalError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ===================================================================
# configuration validation
# ===================================================================

def test_config_resolves_scheme():
    cfg = JobConfig(command="x", scheme="gl-twisted", n=4, m=1, n1=1, n2=3)
    assert cfg.resolve_scheme() == GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)


@pytest.mark.parametrize("cfg", [
    JobConfig(command="x", scheme="gl-twisted", n=4, m=1),         # missing n1/n2
    JobConfig(command="x", scheme="gl-natural", n=2, m=1, n1=1),   # stray n1
    JobConfig(command="x", scheme="gl-natural", n=2),              # missing m
    JobConfig(command="x", n=2, m=1),                              # missing scheme
    JobConfig(command="x", scheme="gl-twisted", n=4, m=1, n1=3, n2=1),  # bad order
])
def test_config_scheme_errors(cfg):
    with pytest.raises(ConfigError):
        cfg.resolve_scheme()


def test_config_label_grids():
    gl = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
    ev = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1)
    assert JobConfig(command="x", l=1, lp=2).resolve_labels(gl) == [(1, 2)]
    assert JobConfig(command="x", lmax=1).resolve_labels(gl) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert JobConfig(command="x", lmax=1, lpmax=0).resolve_labels(gl) == \
        [(0, 0), (1, 0)]
    assert JobConfig(command="x", k=3).resolve_labels(ev) == [3]
    assert JobConfig(command="x", kmin=1, kmax=3).resolve_labels(ev) == [1, 2, 3]
    assert JobConfig(command="x", kmax=2).resolve_labels(ev) == [0, 1, 2]


@pytest.mark.parametrize("cfg,scheme_kind", [
    (JobConfig(command="x", k=1), SchemeKind.GL_NATURAL),        # osp flag on gl
    (JobConfig(command="x", l=1), SchemeKind.OSP_EVEN_NATURAL),  # gl flag on osp
    (JobConfig(command="x", l=1, lp=0, lmax=2), SchemeKind.GL_NATURAL),
    (JobConfig(command="x", k=1, kmax=2), SchemeKind.OSP_EVEN_NATURAL),
    (JobConfig(command="x"), SchemeKind.GL_NATURAL),             # no labels
    (JobConfig(command="x", l=1), SchemeKind.GL_NATURAL),        # l without lp
])
def test_config_label_errors(cfg, scheme_kind):
    scheme = GradingScheme(scheme_kind, 2, 1)
    with pytest.raises(ConfigError):
        cfg.resolve_labels(scheme)


def test_config_cap_required_for_infinite_slices():
    tw = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
    with pytest.raises(ConfigError):
        JobConfig(command="x").resolve_cap(tw)
    assert JobConfig(command="x", cap=4).resolve_cap(tw) == 4
    gl = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
    assert JobConfig(command="x").resolve_cap(gl) is None


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["harmonic-basis", "--scheme", "nonsense"])
    assert exc.value.code == 2


# ===================================================================
# exit-code contract
# ===================================================================

def test_exit_zero_on_pass(capsys):
    code, out, _ = run(["verify-theorem", "1", "--n", "2", "--m", "1",
                        "--lmax", "1"], capsys)
    assert code == 0
    assert "[PASS] theorem-suite-T1" in out


def test_exit_one_on_fail(monkeypatch, capsys):
    import superharm.harmonic as hm
    original = hm._expected_singular_count

    def off_by_one(scheme, label):
        expected = original(scheme, label)
        return None if expected is None else expected + 1

    monkeypatch.setattr(hm, "_expected_singular_count", off_by_one)
    code, out, _ = run(["verify-theorem", "1", "--n", "2", "--m", "1",
                        "--l", "0", "--lp", "0"], capsys)
    assert code == 1
    assert "[FAIL]" in out


def test_exit_two_on_config_error(capsys):
    code, _, err = run(["verify-theorem", "1", "--n", "2", "--m", "3"], capsys)
    assert code == 2
    assert "superharm:" in err

    code, _, err = run(["stabilizer", "--scheme", "gl-natural",
                        "--n", "2", "--m", "1"], capsys)
    assert code == 2

    code, _, err = run(["verify-theorem", "2", "--n", "4", "--m", "1",
                        "--n1", "1", "--n2", "3", "--l", "0", "--lp", "0"],
                       capsys)
    assert code == 2  # twisted suite without --cap


def test_exit_three_on_window_limited(capsys):
    code, out, _ = run(["verify-theorem", "2", "--n", "4", "--m", "1",
                        "--n1", "1", "--n2", "3", "--l", "0", "--lp", "0",
                        "--cap", "4"], capsys)
    assert code == 3
    assert "[INCONCLUSIVE_CAP]" in out


def test_budget_env_is_an_error_not_truncation(monkeypatch, capsys):
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "10")
    code, _, err = run(["harmonic-basis", "--scheme", "gl-natural", "--n", "2",
                        "--m", "3", "--l", "2", "--lp", "1"], capsys)
    assert code == 2
    assert "SUPERHARM_MAX_CELLS" in err


# ===================================================================
# report payloads
# ===================================================================

def test_harmonic_basis_reports_both_bases(capsys):
    code, out, _ = run(["harmonic-basis", "--scheme", "gl-natural",
                        "--n", "2", "--m", "1", "--l", "1", "--lp", "1"],
                       capsys)
    assert code == 0
    assert "kernel = 8" in out
    assert "x1*y1 + th1*vt1" in out
    assert "[PASS] basis-comparison" in out


def test_harmonic_basis_without_formula(capsys):
    code, out, _ = run(["harmonic-basis", "--scheme", "osp-even-natural",
                        "--n", "2", "--m", "1", "--k", "2"], capsys)
    assert code == 0
    assert "no formula basis" in out
    assert "formula (" not in out


def test_harmonic_basis_internal_error_is_not_a_pass(monkeypatch, capsys):
    import superharm.harmonic as hm

    def broken(vectors):
        raise InternalError("expected a weight-homogeneous vector: injected")

    monkeypatch.setattr(hm, "independent_subset", broken)
    code, out, err = run(["harmonic-basis", "--scheme", "gl-natural",
                          "--n", "2", "--m", "1", "--l", "1", "--lp", "1"],
                         capsys)
    assert code == 4
    assert "[PASS]" not in out
    assert "superharm: internal error: " in err
    assert "injected" in err


def test_harmonic_basis_solver_failure_exits_four(monkeypatch, capsys):
    import superharm.harmonic as hm

    def broken(*args, **kwargs):
        raise FiltrationError("xu_solve: injected")

    monkeypatch.setattr(hm, "xu_solve", broken)
    code, out, err = run(["harmonic-basis", "--scheme", "gl-natural",
                          "--n", "2", "--m", "1", "--l", "1", "--lp", "1"],
                         capsys)
    assert code == 4
    assert out == ""
    assert "superharm: internal error: " in err
    assert "injected" in err


def test_singular_vector_payload(capsys):
    code, out, _ = run(["singular-vectors", "--scheme", "gl-natural",
                        "--n", "2", "--m", "3", "--l", "1", "--lp", "0",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "superharm-report/1"
    assert payload["dimensions"] == {"slice": 5, "count": 1}
    assert payload["singular_vectors"][0]["vector"] == "x1"


def test_check_brackets_single_scheme(capsys):
    code, out, _ = run(["check-brackets", "--scheme", "gl-natural",
                        "--n", "1", "--m", "1"], capsys)
    assert code == 0
    assert "[PASS] bracket-homomorphism" in out


def test_check_identities_single_scheme(capsys):
    code, out, _ = run(["check-identities", "--scheme", "osp-odd-natural",
                        "--n", "1", "--m", "1"], capsys)
    assert code == 0
    assert "operator identities" in out


def test_stabilizer_subcommand(capsys):
    code, out, _ = run(["stabilizer", "--scheme", "osp-even-natural",
                        "--n", "2", "--m", "1"], capsys)
    assert code == 0
    assert "kernel_dimension = 17" in out


# ===================================================================
# determinism
# ===================================================================

def _normalized_json(text):
    return re.sub(r'\s*"elapsed_ms": \d+', "", text)


def test_json_deterministic(tmp_path, capsys):
    argv = ["verify-theorem", "1", "--n", "2", "--m", "1", "--lmax", "1",
            "--format", "json"]
    outputs = []
    for path in (tmp_path / "a.json", tmp_path / "b.json"):
        code, _, _ = run(argv + ["--out", str(path)], capsys)
        assert code == 0
        outputs.append(path.read_text())
    assert _normalized_json(outputs[0]) == _normalized_json(outputs[1])
    payload = json.loads(outputs[0])
    assert payload["schema"] == "superharm-report/1"
    assert isinstance(payload["elapsed_ms"], int)


def test_out_file_silences_stdout(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out, _ = run(["singular-vectors", "--scheme", "osp-even-natural",
                        "--n", "2", "--m", "1", "--k", "1",
                        "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert "[PASS] singular-vectors" in path.read_text()
