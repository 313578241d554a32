"""End-to-end CLI behavior, including the exit-code contract."""

import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tait
from tait import verify
from tait.catalog import circle, cube, dodecahedron, necklace, petersen, theta
from tait.cli import (
    EXIT_INVALID,
    EXIT_IRREDUCIBLE,
    EXIT_NOT_BIPARTITE,
    EXIT_OK,
    main,
)
from tait.laurent import p3
from tait.planar import parse_map, serialize_map
from tait.reduction import IrreducibleError
from tait.su3 import RetriesExhaustedError


def run(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def graph_file(tmp_path, cmap, name="g.txt"):
    path = tmp_path / name
    path.write_text(serialize_map(cmap))
    return str(path)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_INVALID, EXIT_IRREDUCIBLE, EXIT_NOT_BIPARTITE) == (0, 1, 2, 3)


def test_count_from_file(tmp_path, capsys):
    code, out, _ = run(["count", graph_file(tmp_path, theta())], capsys)
    assert (code, out) == (EXIT_OK, "6\n")


def test_count_from_stdin(capsys, monkeypatch):
    code, out, _ = run(["count"], capsys, monkeypatch, stdin=serialize_map(cube()))
    assert (code, out) == (EXIT_OK, "24\n")


def test_count_accepts_nonplanar(tmp_path, capsys):
    code, out, _ = run(["count", graph_file(tmp_path, petersen())], capsys)
    assert (code, out) == (EXIT_OK, "0\n")


def test_euler(tmp_path, capsys):
    code, out, _ = run(["euler", graph_file(tmp_path, cube())], capsys)
    assert (code, out) == (EXIT_OK, "24\n")


def test_euler_rejects_nonplanar(tmp_path, capsys):
    code, _, err = run(["euler", graph_file(tmp_path, petersen())], capsys)
    assert code == EXIT_INVALID
    assert "not planar" in err


def test_euler_irreducible_exits_2_with_graph(tmp_path, capsys):
    code, _, err = run(["euler", graph_file(tmp_path, dodecahedron())], capsys)
    assert code == EXIT_IRREDUCIBLE
    assert "irreducible" in err
    # the stuck graph rides along on stderr in map format
    stuck = "\n".join(
        line for line in err.splitlines() if not line.startswith("tait:")
    )
    assert parse_map(stuck, check_planar=False) == dodecahedron()


def test_p3_irreducible_exits_2_with_graph(tmp_path, capsys, monkeypatch):
    # bipartite planar maps always reduce, but a stuck one is reported as euler's is
    def stuck(cmap, weights):
        raise IrreducibleError(dodecahedron())

    monkeypatch.setattr(tait.laurent, "reduce_map", stuck)
    with pytest.raises(IrreducibleError):
        p3(cube())
    code, out, err = run(["p3", graph_file(tmp_path, cube())], capsys)
    assert (code, out) == (EXIT_IRREDUCIBLE, "")
    assert err.startswith("tait: irreducible: no reducible face in ")
    stuck_map = "\n".join(line for line in err.splitlines() if not line.startswith("tait:"))
    assert parse_map(stuck_map, check_planar=False) == dodecahedron()


def test_p3_polynomial(tmp_path, capsys):
    code, out, _ = run(["p3", graph_file(tmp_path, theta())], capsys)
    assert (code, out) == (EXIT_OK, "q^3 + 2*q + 2*q^-1 + q^-3\n")


def test_p3_evaluated(tmp_path, capsys):
    path = graph_file(tmp_path, theta())
    assert run(["p3", path, "--at", "1"], capsys)[:2] == (EXIT_OK, "6\n")
    assert run(["p3", path, "--at", "1/2"], capsys)[:2] == (EXIT_OK, "105/8\n")
    assert run(["p3", path, "--at", "-1/2"], capsys)[:2] == (EXIT_OK, "-105/8\n")


@pytest.mark.parametrize("q", ["-1/2", "-1e-3", "-.5", "-0.5", "-1", "-3/4", "-2E+1"])
def test_p3_at_takes_a_negative_rational_after_a_space(q, tmp_path, capsys):
    # argparse alone reads only -1 and -0.5 shapes as values, not -1/2 or -1e-3
    path = graph_file(tmp_path, theta())
    joined = run(["p3", path, f"--at={q}"], capsys)
    assert run(["p3", path, "--at", q], capsys) == joined
    assert joined == (EXIT_OK, f"{p3(theta())(Fraction(q))}\n", "")


@pytest.mark.parametrize("argv", [["--at"], ["--at", "-x"]])
def test_p3_at_needs_a_value(argv, tmp_path, capsys):
    code, out, err = run(["p3", graph_file(tmp_path, theta()), *argv], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: argument --at: expected one argument\n"


def test_p3_at_zero_is_an_error(tmp_path, capsys):
    code, _, err = run(["p3", graph_file(tmp_path, theta()), "--at", "0"], capsys)
    assert code == EXIT_INVALID
    assert "q = 0" in err


def test_p3_bad_rational(tmp_path, capsys):
    path = graph_file(tmp_path, theta())
    for q in ("pi", "1/0", "1/x"):
        code, out, err = run(["p3", path, "--at", q], capsys)
        assert (code, out) == (EXIT_INVALID, "")
        assert err == f"tait: error: invalid rational {q!r}\n"


def test_p3_bad_rational_wins_over_the_map(tmp_path, capsys, monkeypatch):
    """``--at`` is parsed before the map is read or reduced."""
    from tait.catalog import k4

    code, out, err = run(["p3", graph_file(tmp_path, k4()), "--at", "1/0"], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: invalid rational '1/0'\n"
    code, out, err = run(["p3", "--at", "pi"], capsys, monkeypatch, stdin="not a map\n")
    assert (code, out) == (EXIT_INVALID, "")
    assert "'pi'" in err


def test_p3_nonbipartite_exits_3(tmp_path, capsys):
    from tait.catalog import k4

    code, _, err = run(["p3", graph_file(tmp_path, k4())], capsys)
    assert code == EXIT_NOT_BIPARTITE
    assert "not bipartite" in err


def test_reduce(tmp_path, capsys):
    path = graph_file(tmp_path, theta())
    code, out, _ = run(["reduce", path], capsys)
    assert code == EXIT_OK
    assert out.splitlines() == [
        "0 bigon 0,5 2",
        "  1 loop - 3",
        "    2 empty 1",
        "value 6",
    ]
    # the tree is reduce's; euler prints only the value
    code, out, err = run(["euler", "--trace", path], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: unrecognized arguments: --trace\n"


def test_gen_writes_map_text(capsys):
    code, out, _ = run(["gen", "theta"], capsys)
    assert (code, out) == (EXIT_OK, serialize_map(theta()))
    assert run(["gen", "circle"], capsys)[:2] == (EXIT_OK, "loops 1\n")
    assert run(["gen", "circle", "2"], capsys)[:2] == (EXIT_OK, "loops 2\n")
    code, out, _ = run(["gen", "necklace", "3"], capsys)
    assert (code, out) == (EXIT_OK, serialize_map(necklace(3)))


def test_gen_pipes_back_in(capsys, monkeypatch):
    _, text, _ = run(["gen", "prism", "6"], capsys)
    code, out, _ = run(["count"], capsys, monkeypatch, stdin=text)
    assert (code, out) == (EXIT_OK, "72\n")


def test_gen_prism_needs_size(capsys):
    code, _, err = run(["gen", "prism"], capsys)
    assert code == EXIT_INVALID
    assert "ring size" in err
    code, _, err = run(["gen", "prism", "1"], capsys)
    assert code == EXIT_INVALID


def test_gen_other_families_reject_size(capsys):
    code, _, err = run(["gen", "theta", "3"], capsys)
    assert code == EXIT_INVALID
    assert "no size" in err


def test_gen_unknown_family(capsys):
    # necklace is a known family, but it needs a size
    assert run(["gen", "necklace"], capsys)[0] == EXIT_INVALID
    assert run(["gen", "moebius"], capsys)[0] == EXIT_INVALID


def test_usage_errors(capsys):
    assert run([], capsys)[0] == EXIT_INVALID
    assert run(["frobnicate"], capsys)[0] == EXIT_INVALID


def test_bad_input_text(capsys, monkeypatch):
    code, _, err = run(["count"], capsys, monkeypatch, stdin="vertex 0: 0 1\n")
    assert code == EXIT_INVALID
    assert "error" in err


def test_missing_file(tmp_path, capsys):
    code, _, err = run(["count", str(tmp_path / "absent.txt")], capsys)
    assert code == EXIT_INVALID


def test_verify_text_report(capsys):
    code, out, _ = run(["verify", "conservation"], capsys)
    assert code == EXIT_OK
    assert "suite: conservation" in out
    assert "result: PASS" in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        ["verify", "lemma5", "--trials", "40", "--seed", "5", "--json"], capsys
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["suite"] == "lemma5"
    assert report["passed"] is True
    assert report["trials"] == 40
    assert report["failures"] == 0
    assert report["max_deviation"] <= 1e-9


def test_verify_unknown_suite(capsys):
    assert run(["verify", "perpetual-motion"], capsys)[0] == EXIT_INVALID


@pytest.mark.parametrize("suite", ["lemma5", "roundtrip"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "-4", "trials must be at least 1, got -4"),
        ("--trials", "0", "trials must be at least 1, got 0"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
        ("--seed", "-7", "seed must be non-negative, got -7"),
    ],
)
def test_verify_rejects_empty_campaigns(suite, flag, value, message, capsys):
    # a campaign with no trials would report PASS
    code, out, err = run(["verify", suite, flag, value], capsys)
    assert (code, out, err) == (EXIT_INVALID, "", f"tait: error: {message}\n")


@pytest.mark.parametrize("suite", ["lemma5", "roundtrip"])
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": True}, "trials must be an int, got True"),
        ({"trials": 2.5}, "trials must be an int, got 2.5"),
        ({"trials": "3"}, "trials must be an int, got '3'"),
        ({"seed": False}, "seed must be an int, got False"),
        ({"seed": 1.0}, "seed must be an int, got 1.0"),
        ({"trials": 0}, "trials must be at least 1, got 0"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ],
)
def test_campaigns_take_int_trials_and_seed(suite, kwargs, message):
    # the library call gets no argparse type=int: trials=True would run one trial
    with pytest.raises(ValueError) as info:
        verify.SUITES[suite](**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("suite", ["theorem1", "conservation"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--trials", "3"),
        ("--trials", "0"),
        ("--seed", "1"),
        ("--seed", "-1"),
    ],
)
def test_deterministic_suites_take_no_campaign_flags(suite, flag, value, capsys):
    code, out, err = run(["verify", suite, flag, value], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith(f"tait: error: suite {suite} ")
    assert err.count("\n") == 1 and flag[2:] in err


@pytest.mark.parametrize("suite", ["theorem1", "conservation", "lemma5", "roundtrip"])
@pytest.mark.parametrize("value", ["1e-6", "1e-20"])
def test_verify_has_no_tolerance_flag(suite, value, capsys):
    # the SU(3) checks use one fixed tolerance; --tol is a usage error
    code, out, err = run(["verify", suite, "--tol", value], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("tait: error: unrecognized arguments: --tol")
    assert err.count("\n") == 1


def test_lemma5_reports_failing_pairs(capsys, monkeypatch):
    # a suite that could never fail would pass every test
    check = verify._check_order_two_products

    def broken(S, T):
        return [dataclasses.replace(r, biconditional_holds=False) for r in check(S, T)]

    monkeypatch.setattr(verify, "_check_order_two_products", broken)
    report = verify.run_lemma5(trials=4)
    assert (report.passed, report.failures) == (False, 4)
    assert report.format_text().endswith("failures: 4\nresult: FAIL")
    code, out, _ = run(["verify", "lemma5", "--trials", "4"], capsys)
    assert code == EXIT_INVALID
    assert out.endswith("failures: 4\nresult: FAIL\n")


def test_roundtrip_counts_an_exhausted_sample_as_a_failed_trial(capsys, monkeypatch):
    # a sampler that gives up fails the suite instead of crashing the command
    sample, calls = verify.sample_admissible_decoration, []

    def exhausts_first(graph, rng):
        calls.append(graph)
        if len(calls) == 1:
            raise RetriesExhaustedError("the map has no Tait coloring to decorate")
        return sample(graph, rng)

    monkeypatch.setattr(verify, "sample_admissible_decoration", exhausts_first)
    code, out, err = run(["verify", "roundtrip", "--trials", "8"], capsys)
    assert (code, err, len(calls)) == (EXIT_INVALID, "", 8)
    lines = out.splitlines()
    assert lines[4:9] == [
        "  theta: 1 decorations",
        "  k4: 2 decorations",
        "  prism(3): 2 decorations",
        "  cube: 2 decorations",
        "  theta: 1 exhausted",
    ]
    assert lines[-2:] == ["failures: 1", "result: FAIL"]
    calls.clear()
    report = verify.run_roundtrip(trials=8)
    assert (report.passed, report.failures, report.max_deviation < 1e-9) == (False, 1, True)


def test_verify_passes_flags_through_a_wrapped_suite(capsys, monkeypatch):
    # a (*args, **kwargs) wrapper, like a profiler's, names no parameter but takes them all
    suite, received = verify.SUITES["lemma5"], []

    def wrapper(*args, **kwargs):
        received.append(kwargs)
        return suite(*args, **kwargs)

    monkeypatch.setitem(verify.SUITES, "lemma5", wrapper)
    code, out, _ = run(["verify", "lemma5", "--trials", "4", "--seed", "7"], capsys)
    assert code == EXIT_OK
    assert received == [{"trials": 4, "seed": 7}]
    assert "seed: 7" in out and "trials: 4" in out


def test_count_on_long_necklace(tmp_path, capsys):
    code, out, err = run(["count", graph_file(tmp_path, necklace(400))], capsys)
    assert (code, out, err) == (EXIT_OK, f"{3 * 2**400}\n", "")


def digit_limit() -> int:
    """The interpreter's int-to-str digit limit; 0 for none, as before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", int)()


def decimal(value) -> str:
    """``str(value)``, past the interpreter's digit limit too."""
    limit = digit_limit()
    if not limit:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, cmap, want",
    [
        # 3**9100 has 4,342 digits, past the default limit of 4,300
        (["count"], circle(9100), lambda: decimal(3**9100)),
        (["euler"], circle(9100), lambda: decimal(3**9100)),
        (["reduce"], circle(9100), lambda: "value " + decimal(3**9100)),
        (
            ["p3", "--at", "1e200"],
            necklace(20),
            lambda: decimal(p3(necklace(20))(Fraction("1e200"))),
        ),
    ],
    ids=["count", "euler", "reduce", "p3-at"],
)
def test_values_print_at_any_size(argv, cmap, want, tmp_path, capsys):
    limit = digit_limit()
    code, out, err = run([argv[0], graph_file(tmp_path, cmap), *argv[1:]], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == want()
    # the limit is lifted only while the value is written
    assert digit_limit() == limit


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no digit limit"
)
def test_values_print_with_the_digit_limit_already_lifted(tmp_path, capsys):
    limit = digit_limit()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = run(["count", graph_file(tmp_path, circle(9100))], capsys)
        # the limit is left as it was found: lifted
        assert digit_limit() == 0
        assert (code, err, out) == (EXIT_OK, "", f"{3**9100}\n")
        assert len(out) == 4342 + 1
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not digit_limit(), reason="the interpreter has no digit limit")
def test_over_long_id_is_a_parse_error_on_its_line(capsys, monkeypatch):
    text = serialize_map(theta()) + "loops " + "9" * 5000 + "\n"
    code, out, err = run(["count"], capsys, monkeypatch, stdin=text)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: line 6: integer of 5000 digits is too long\n"


@pytest.mark.skipif(not digit_limit(), reason="the interpreter has no digit limit")
def test_over_long_rational_is_refused_in_one_short_line(tmp_path, capsys):
    path = graph_file(tmp_path, theta())
    code, out, err = run(["p3", path, "--at", "1" + "0" * 5000], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: rational of 5001 digits is too long\n"
    # the limit stays in place; a value within it is evaluated as before
    assert digit_limit() > 0
    code, out, err = run(["p3", path, "--at", "1" + "0" * 100], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out == decimal(p3(theta())(Fraction(10**100))) + "\n"


def test_recursion_limit_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # the reduction runs on an explicit stack, so a tight limit still reduces necklace(100)
    path = graph_file(tmp_path, necklace(100))
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        code, out, err = run(["reduce", path], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == f"value {3 * 2**100}"

    # a RecursionError from anywhere below still exits 1 with one line
    def too_deep(cmap, weights):
        raise RecursionError

    monkeypatch.setattr("tait.cli.reduce_map", too_deep)
    code, out, err = run(["reduce", path], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: map too large for this command (RecursionError)\n"


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(cmap):
        raise MemoryError

    monkeypatch.setattr("tait.cli.p3", exhausted)
    code, out, err = run(["p3", graph_file(tmp_path, theta())], capsys)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "tait: error: map too large for this command (MemoryError)\n"


def run_alone(argv):
    """``main(argv)`` in a fresh interpreter: (exit code, stdout, stderr)."""
    src = str(Path(tait.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    script = "import sys; from tait.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def test_one_process_runs_a_mixed_sequence_like_fresh_ones(tmp_path, capsys):
    # the parser is shared across calls, so no flag or default may leak into the next
    theta_path = graph_file(tmp_path, theta(), "theta.txt")
    cube_path = graph_file(tmp_path, cube(), "cube.txt")
    sequence = [
        ["reduce", theta_path],
        ["euler", theta_path],
        ["p3", "--at", "1/2", cube_path],
        ["p3", "--at", "-1/2", cube_path],
        ["p3", cube_path],
        ["euler", cube_path, "--at", "1/2"],
        ["verify", "lemma5", "--trials", "0"],
        ["verify", "theorem1", "--json"],
        ["verify", "theorem1", "--seed", "1"],
        ["gen", "necklace", "3"],
    ]
    together = [run(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in together] == [0, 0, 0, 0, 0, 1, 1, 0, 1, 0]
    for argv, outcome in zip(sequence, together):
        assert outcome == run_alone(argv), argv
