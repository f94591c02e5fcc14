import json
import re

import pytest

from superharm.cli import JobConfig, ConfigError, build_parser, main
from superharm.algebra import GradingScheme, SchemeKind, SuperMonomial, x
from superharm.operators import DiffOperator, FiltrationError, compose
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
    # twisted slices of negative label are not empty
    tw = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
    assert JobConfig(command="x", l=-1, lp=0).resolve_labels(tw) == [(-1, 0)]
    ev_tw = GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3)
    assert JobConfig(command="x", k=-2).resolve_labels(ev_tw) == [-2]
    assert JobConfig(command="x", kmin=-1, kmax=0).resolve_labels(ev_tw) == [-1, 0]


@pytest.mark.parametrize("cfg,scheme_kind", [
    (JobConfig(command="x", k=1), SchemeKind.GL_NATURAL),        # osp flag on gl
    (JobConfig(command="x", l=1), SchemeKind.OSP_EVEN_NATURAL),  # gl flag on osp
    (JobConfig(command="x", l=1, lp=0, lmax=2), SchemeKind.GL_NATURAL),
    (JobConfig(command="x", k=1, kmax=2), SchemeKind.OSP_EVEN_NATURAL),
    (JobConfig(command="x"), SchemeKind.GL_NATURAL),             # no labels
    (JobConfig(command="x", l=1), SchemeKind.GL_NATURAL),        # l without lp
    (JobConfig(command="x", lmax=-1), SchemeKind.GL_NATURAL),    # empty grid
    (JobConfig(command="x", lmax=1, lpmax=-1), SchemeKind.GL_NATURAL),
    (JobConfig(command="x", kmin=4, kmax=2), SchemeKind.OSP_EVEN_NATURAL),
    # a natural slice of negative label is empty
    (JobConfig(command="x", l=-1, lp=0), SchemeKind.GL_NATURAL),
    (JobConfig(command="x", l=0, lp=-3), SchemeKind.GL_NATURAL),
    (JobConfig(command="x", k=-1), SchemeKind.OSP_EVEN_NATURAL),
    (JobConfig(command="x", k=-2), SchemeKind.OSP_ODD_NATURAL),
    (JobConfig(command="x", kmin=-1, kmax=2), SchemeKind.OSP_EVEN_NATURAL),
    (JobConfig(command="x", kmin=-1, kmax=2), SchemeKind.OSP_ODD_NATURAL),
])
def test_config_label_errors(cfg, scheme_kind):
    scheme = GradingScheme(scheme_kind, 2, 1)
    with pytest.raises(ConfigError):
        cfg.resolve_labels(scheme)


def test_config_cap_required_for_infinite_slices():
    tw = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
    with pytest.raises(ConfigError):
        JobConfig(command="x").resolve_cap(tw, [(0, 0)])
    assert JobConfig(command="x", cap=4).resolve_cap(tw, [(0, 0)]) == 4
    gl = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
    assert JobConfig(command="x").resolve_cap(gl, [(1, 1)]) is None
    # x0 counts in the degree, so a natural x0 slice is finite
    odd = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1)
    assert JobConfig(command="x").resolve_cap(odd, [3]) is None


# every flag a subcommand does not read, spelled out here rather than read
# from the parser's own table
_UNREAD_FLAGS = {
    "harmonic-basis": ("lmax", "lpmax", "kmin", "kmax"),
    "singular-vectors": ("lmax", "lpmax", "kmin", "kmax"),
    "check-brackets": ("l", "lp", "k", "lmax", "lpmax", "kmin", "kmax", "cap"),
    "check-identities": ("l", "lp", "k", "lmax", "lpmax", "kmin", "kmax"),
    "stabilizer": ("n1", "n2", "l", "lp", "k", "lmax", "lpmax", "kmin", "kmax",
                   "cap"),
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags])
def test_subcommand_rejects_a_flag_it_does_not_read(command, flag, capsys):
    argv = [command, "--scheme", "osp-even-natural", "--n", "2", "--m", "1",
            f"--{flag}", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err


def test_settable_values_per_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    counts = {name: sum(1 for a in sp._actions if a.dest != "help")
              for name, sp in sub.choices.items()}
    assert counts == {"harmonic-basis": 11, "singular-vectors": 11,
                      "verify-theorem": 16, "check-brackets": 7,
                      "check-identities": 8, "stabilizer": 5}


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

    with pytest.raises(SystemExit) as exc:  # stabilizer takes natural osp only
        main(["stabilizer", "--scheme", "gl-natural", "--n", "2", "--m", "1"])
    assert exc.value.code == 2

    code, _, err = run(["verify-theorem", "2", "--n", "4", "--m", "1",
                        "--n1", "1", "--n2", "3", "--l", "0", "--lp", "0"],
                       capsys)
    assert code == 2  # twisted suite without --cap

    code, out, err = run(["verify-theorem", "3", "--n", "2", "--m", "3",
                          "--kmin", "4", "--kmax", "2"], capsys)
    assert code == 2  # empty label grid
    assert "[PASS]" not in out
    assert "empty label grid" in err


@pytest.mark.parametrize("m", ["1", "2"])
def test_theorem_one_at_n_one_is_a_config_error(m, monkeypatch, capsys):
    # on gl(1|m) the slice (l, lp) and its Delta-target have the same
    # dimension once l, lp > m, and H is 0 there: the criterion's domain is
    # n > 1, refused before any slice is enumerated
    import superharm.harmonic as hm

    def no_slices(*args):
        raise AssertionError("a slice was enumerated")

    monkeypatch.setattr(hm, "enumerate_slice", no_slices)
    code, out, err = run(["verify-theorem", "1", "--n", "1", "--m", m,
                          "--lmax", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "superharm: the gl criterion is stated for n > 1" in err


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(["stabilizer", "--scheme", "osp-even-natural",
                          "--n", "2", "--m", "1", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("superharm: cannot write --out: ")
    assert err.count("\n") == 1


def test_stdout_error_is_not_an_out_error(monkeypatch):
    # only the --out file is a configuration error; a closed pipe on stdout
    # propagates as before instead of turning the verdict into exit 2
    def broken(text):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr("sys.stdout.write", broken)
    with pytest.raises(BrokenPipeError):
        main(["stabilizer", "--scheme", "osp-even-natural", "--n", "2", "--m", "1"])


@pytest.mark.parametrize("command", ["harmonic-basis", "singular-vectors"])
@pytest.mark.parametrize("scheme,grid", [
    ("gl-natural", ["--lmax", "2"]),
    ("gl-natural", ["--l", "1", "--lp", "1", "--lpmax", "2"]),
    ("osp-even-natural", ["--kmax", "2"]),
    ("osp-even-natural", ["--kmin", "3", "--kmax", "1"]),
])
def test_single_slice_commands_reject_grids(command, scheme, grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scheme", scheme, "--n", "2", "--m", "1", *grid])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --" in err


@pytest.mark.parametrize("command", ["check-brackets", "check-identities"])
@pytest.mark.parametrize("flags,missing", [
    (["--m", "3"], "--scheme is required"),
    (["--n1", "1", "--n2", "3"], "--scheme is required"),
    (["--scheme", "gl-natural", "--m", "1"], "--n and --m are required"),
])
def test_any_scheme_flag_selects_one_scheme(command, flags, missing,
                                            monkeypatch, capsys):
    # a partial scheme is a configuration error, never the whole grid
    import superharm.cli as cli
    monkeypatch.setattr(cli, "_grid_schemes", lambda: pytest.fail("grid run"))
    code, out, err = run([command, *flags], capsys)
    assert code == 2
    assert out == ""
    assert missing in err


@pytest.mark.parametrize("argv", [
    ["harmonic-basis", "--scheme", "gl-natural", "--n", "2", "--m", "1",
     "--l", "-1", "--lp", "0"],
    ["singular-vectors", "--scheme", "gl-natural", "--n", "2", "--m", "1",
     "--l", "0", "--lp", "-3"],
    ["harmonic-basis", "--scheme", "osp-even-natural", "--n", "2", "--m", "1",
     "--k", "-1"],
    ["singular-vectors", "--scheme", "osp-odd-natural", "--n", "2", "--m", "1",
     "--k", "-2", "--cap", "3"],
])
def test_negative_natural_label_is_a_config_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ["harmonic-basis", "--scheme", "gl-natural", "--n", "2", "--m", "1",
     "--l", "1", "--lp", "1", "--cap", "0"],
    ["singular-vectors", "--scheme", "gl-natural", "--n", "2", "--m", "1",
     "--l", "2", "--lp", "2", "--cap", "1"],
    ["harmonic-basis", "--scheme", "osp-odd-natural", "--n", "2", "--m", "1",
     "--k", "3", "--cap", "1"],
    ["verify-theorem", "1", "--n", "2", "--m", "1", "--l", "1", "--lp", "1",
     "--cap", "0"],
])
def test_cap_below_natural_label_degree_is_a_config_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "is below the label degree" in err


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


def test_a_natural_suite_keeps_to_the_budget(monkeypatch, capsys):
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "10")
    code, out, err = run(["verify-theorem", "1", "--n", "2", "--m", "3",
                          "--lmax", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "SUPERHARM_MAX_CELLS" in err


def test_an_eta_image_outside_the_slice_exits_four(monkeypatch, capsys):
    import superharm.harmonic as hm

    # eta squared keeps weights but lands two steps up, outside the slice
    named = hm.named_operator

    def squared(name, scheme):
        op = named(name, scheme)
        return compose(op, op) if name == "ETA" else op

    monkeypatch.setattr(hm, "named_operator", squared)
    code, out, err = run(["verify-theorem", "1", "--n", "2", "--m", "1",
                          "--l", "2", "--lp", "2"], capsys)
    assert code == 4
    assert "[PASS]" not in out and "[FAIL]" not in out
    assert "superharm: internal error: an eta image leaves the complete slice" in err


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


def test_an_unexpected_engine_exception_exits_four(monkeypatch, capsys):
    import superharm.harmonic as hm

    def broken(*args, **kwargs):
        raise KeyError("injected")

    monkeypatch.setattr(hm, "xu_solve", broken)
    code, out, err = run(["harmonic-basis", "--scheme", "gl-natural",
                          "--n", "2", "--m", "1", "--l", "1", "--lp", "1"],
                         capsys)
    assert code == 4
    assert "[PASS]" not in out and "[FAIL]" not in out
    assert "superharm: internal error: KeyError: 'injected'" in err


@pytest.mark.parametrize("argv", [
    ["singular-vectors", "--scheme", "gl-natural", "--n", "2", "--m", "3",
     "--l", "1", "--lp", "0"],
    ["verify-theorem", "1", "--n", "2", "--m", "3", "--l", "1", "--lp", "0"],
])
def test_a_solve_on_part_of_n_plus_exits_four(argv, monkeypatch, capsys):
    import superharm.harmonic as hm
    from superharm.representations import positive_generators

    # E[1,2] alone kills th1, th2 and th3, which E[2,3], E[3,4] and E[4,5] do not
    monkeypatch.setattr(hm, "simple_generators",
                        lambda scheme: positive_generators(scheme)[:1])
    code, out, err = run(argv, capsys)
    assert code == 4
    assert "[PASS]" not in out and "[FAIL]" not in out
    assert "superharm: internal error: solver produced a non-singular vector" in err


@pytest.mark.parametrize("argv", [
    ["harmonic-basis", "--scheme", "gl-natural", "--n", "2", "--m", "1",
     "--l", "1", "--lp", "1"],
    ["singular-vectors", "--scheme", "gl-natural", "--n", "2", "--m", "1",
     "--l", "1", "--lp", "1"],
    # inside a suite Delta comes from the suite's table, proved when built
    ["verify-theorem", "1", "--n", "2", "--m", "1", "--lmax", "1"],
])
def test_an_uneven_delta_exits_four(argv, monkeypatch, capsys):
    import superharm.harmonic as hm

    # multiplication by x1 moves weights, which Delta's atoms do not
    named = hm.named_operator
    x1 = DiffOperator.multiplier(SuperMonomial.make([(x(1), 1)]))

    def uneven(name, scheme):
        return named(name, scheme) + x1

    monkeypatch.setattr(hm, "named_operator", uneven)
    code, out, err = run(argv, capsys)
    assert code == 4
    assert "[PASS]" not in out and "[FAIL]" not in out
    assert "superharm: internal error: an operator's atoms shift weights unevenly" in err



@pytest.mark.parametrize("argv", [
    ["--scheme", "osp-odd-natural", "--n", "2", "--m", "1", "--k", "2"],
    ["--scheme", "gl-twisted", "--n", "4", "--m", "1", "--n1", "1", "--n2", "3",
     "--l", "0", "--lp", "0", "--cap", "4"],
    ["--scheme", "gl-natural", "--n", "2", "--m", "1", "--l", "1", "--lp", "1"],
], ids=["osp-odd-natural", "gl-twisted", "gl-natural"])
def test_a_harmonic_basis_job_builds_delta_once(argv, monkeypatch, capsys):
    # the kernel solve, the formula series and the formula basis's own
    # check all read the scheme's one Delta
    import superharm.harmonic as hm
    import superharm.operators as ops

    built = []
    for module in (hm, ops):
        def counted(name, scheme, named=module.named_operator):
            built.append(name)
            return named(name, scheme)

        monkeypatch.setattr(module, "named_operator", counted)
    code, _, _ = run(["harmonic-basis", *argv], capsys)
    assert code == 0
    assert built.count("DELTA") == 1

def test_singular_vector_payload(capsys):
    code, out, _ = run(["singular-vectors", "--scheme", "gl-natural",
                        "--n", "2", "--m", "3", "--l", "1", "--lp", "0",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "superharm-report/1"
    assert payload["dimensions"] == {"slice": 5, "count": 1}
    assert payload["singular_vectors"][0]["vector"] == "x1"


def _without_cap(payload):
    """The report with every "cap" field and elapsed_ms left out."""
    if isinstance(payload, dict):
        return {k: _without_cap(v) for k, v in payload.items()
                if k not in ("cap", "elapsed_ms")}
    if isinstance(payload, list):
        return [_without_cap(v) for v in payload]
    return payload


@pytest.mark.parametrize("argv,cap", [
    (["verify-theorem", "4", "--n", "2", "--m", "1", "--kmax", "3"], 3),
    (["harmonic-basis", "--scheme", "osp-odd-natural", "--n", "2", "--m", "1",
      "--k", "2"], 2),
    (["singular-vectors", "--scheme", "osp-odd-natural", "--n", "2", "--m", "1",
      "--k", "2"], 2),
])
def test_natural_x0_slices_need_no_cap(argv, cap, capsys):
    # x0 counts in the degree, so the slice is finite and a cap at or above
    # the label degree changes nothing but the report's cap field
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    capless = json.loads(out)
    code, out, _ = run(argv + ["--cap", str(cap), "--format", "json"], capsys)
    assert code == 0
    capped = json.loads(out)
    assert (capless["cap"], capped["cap"]) == (None, cap)
    assert _without_cap(capless) == _without_cap(capped)


@pytest.mark.parametrize("argv", [
    ["verify-theorem", "4", "--n", "2", "--m", "3", "--kmax", "4"],
    ["verify-theorem", "1", "--n", "2", "--m", "1", "--lmax", "2"],
])
def test_capped_natural_suite_enumerates_each_slice_once(argv, monkeypatch,
                                                         capsys):
    # a natural slice capped at or above its label degree is the complete
    # slice, so the suite's table holds it once whatever cap asks for it;
    # the decomposition chains also probe the empty slice below each one
    import superharm.harmonic as hm
    calls = []
    original = hm.enumerate_slice

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hm, "enumerate_slice", counted)
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    capless, capless_calls = json.loads(out), list(calls)
    assert len(set(capless_calls)) == len(capless_calls)
    calls.clear()
    code, out, _ = run(argv + ["--cap", "5", "--format", "json"], capsys)
    assert code == 0
    assert calls == capless_calls
    assert _without_cap(json.loads(out)) == _without_cap(capless)


def test_a_twisted_label_enumerates_its_window_once(monkeypatch, capsys):
    # the label's cross-check and decomposition read the same capped
    # window, which the suite's table enumerates once
    import superharm.harmonic as hm
    calls = []
    original = hm.enumerate_slice

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hm, "enumerate_slice", counted)
    code, out, _ = run(["verify-theorem", "2", "--n", "4", "--m", "1", "--n1", "1",
                        "--n2", "3", "--l", "-1", "--lp", "0", "--cap", "6",
                        "--format", "json"], capsys)
    assert code == 3
    scheme = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
    assert calls.count((scheme, (-1, 0), 6)) == 1
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("argv,message", [
    (["harmonic-basis", "--scheme", "gl-natural"], "gl schemes need --l and --lp"),
    (["harmonic-basis", "--scheme", "osp-even-natural"], "osp schemes need --k"),
    (["harmonic-basis", "--scheme", "gl-natural", "--l", "1", "--lp", "1",
      "--k", "1"], "--k applies only to osp schemes"),
    (["singular-vectors", "--scheme", "gl-natural"], "gl schemes need --l and --lp"),
    (["singular-vectors", "--scheme", "osp-odd-natural"], "osp schemes need --k"),
    (["singular-vectors", "--scheme", "osp-odd-natural", "--l", "1"],
     "--l/--lp apply only to gl schemes"),
    (["verify-theorem", "1"], "gl schemes need --l/--lp or --lmax"),
    (["verify-theorem", "3"], "osp schemes need --k or --kmax"),
    (["verify-theorem", "1", "--kmax", "2"],
     "--k/--kmin/--kmax apply only to osp schemes"),
    (["verify-theorem", "3", "--lmax", "2"],
     "--l/--lp/--lmax/--lpmax apply only to gl schemes"),
])
def test_label_hints_name_only_flags_the_command_takes(argv, message, capsys):
    code, out, err = run(argv + ["--n", "2", "--m", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"superharm: {message}\n"
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    taken = {o for a in sub.choices[argv[0]]._actions for o in a.option_strings}
    assert set(re.findall(r"--[a-z]+", message)) <= taken


@pytest.mark.parametrize("argv", [
    ["harmonic-basis", "--scheme", "osp-odd-twisted", "--k", "0"],
    ["singular-vectors", "--scheme", "gl-twisted", "--l", "0", "--lp", "0"],
    ["verify-theorem", "4", "--k", "0"],
])
def test_twisted_slices_still_need_a_cap(argv, capsys):
    code, out, err = run(argv + ["--n", "4", "--m", "1", "--n1", "1",
                                 "--n2", "3"], capsys)
    assert code == 2
    assert out == ""
    assert "--cap is required" in err


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


def test_stabilizer_internal_error_exits_four(monkeypatch, capsys):
    import superharm.representations as reps

    original = reps._osp_natural_unit

    def second_order(scheme, a, b):
        if (a, b) == (1, 1):
            return DiffOperator.partial(x(1), 2)
        return original(scheme, a, b)

    reps._unit_operator.cache_clear()
    monkeypatch.setattr(reps, "_osp_natural_unit", second_order)
    try:
        code, out, err = run(["stabilizer", "--scheme", "osp-even-natural",
                              "--n", "2", "--m", "1"], capsys)
    finally:
        reps._unit_operator.cache_clear()
    assert code == 4
    assert out == ""
    assert "superharm: internal error: operator is not first order" in err


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
