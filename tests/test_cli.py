import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ellquot import cli, families, jsonio, verify
from ellquot.cli import main
from ellquot.errors import InvariantError
from ellquot.jsonio import MAX_RATIONAL_DIGITS

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_command(capsys):
    code, out = run_cli(capsys, "family", "--l", "5", "--c", "1")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["curve"]["a2"] == ["-1", "1"]
    assert payload["torsion_point"] == {"inf": False, "x": ["0", "1"], "y": ["0", "1"]}


def test_family_l3(capsys):
    code, out = run_cli(capsys, "family", "--l", "3", "--a1", "0", "--a3", "6")
    assert code == 0
    assert json.loads(out)["payload"]["curve"]["a3"] == ["6", "1"]


def test_family_singular_exits_2(capsys):
    code, out = run_cli(capsys, "family", "--l", "5", "--c", "0")
    assert code == 2
    assert json.loads(out)["status"] == "error"
    assert json.loads(out)["payload"]["code"] == "singular-curve"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "--l", "11", "--c", "2"], "l must be one of"),
        (["quotient", "--l", "11", "--c", "2"], "l must be one of"),
        (["quotient", "--l", "3", "--symbolic"],
         "symbolic mode covers the one-parameter families"),
        (["galois"], "give exactly one of"),
        (["galois", "--poly", "x^3 - 2", "--family", "shanks", "--t", "2"],
         "give exactly one of"),
    ],
)
def test_an_unusable_combination_of_flags_exits_2(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert message in doc["payload"]["message"]


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--l"])
    assert exc.value.code == 1


def test_help_lists_every_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for code in ("0 for ok", "1 for usage errors", "2 for domain errors",
                 "3 when verify-paper finds a criterion red"):
        assert code in text


def test_malformed_seed_variable_is_read_only_by_the_commands_that_take_a_seed(
    capsys, monkeypatch
):
    monkeypatch.setenv("ELLQUOT_SEED", "abc")
    code, out = run_cli(capsys, "family", "--l", "5", "--c", "1")
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    for argv in (["sweep", "--l", "5", "--count", "1"], ["verify-paper"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err
    # an explicit --seed wins over the variable
    code, out = run_cli(capsys, "sweep", "--l", "5", "--count", "2", "--seed", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_seed_variable_sets_the_default_seed(capsys, monkeypatch):
    code, flagged = run_cli(capsys, "sweep", "--l", "5", "--count", "3", "--seed", "7")
    monkeypatch.setenv("ELLQUOT_SEED", "7")
    code, from_env = run_cli(capsys, "sweep", "--l", "5", "--count", "3")
    assert code == 0
    assert from_env == flagged


def test_quotient_symbolic(capsys):
    code, out = run_cli(capsys, "quotient", "--l", "4", "--symbolic")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["degree"] == 4
    assert len(payload["phi_x_num"]["coeffs"]) == 5


def test_construct_fixture(capsys):
    code, out = run_cli(capsys, "construct", "--l", "5", "--row", "1", "--z", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["valid"] is True


def test_construct_degenerate_is_status_not_error(capsys):
    code, out = run_cli(capsys, "construct", "--l", "5", "--row", "2", "--z", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "degenerate"
    assert "torsion" in doc["diagnostics"][0]


def test_construct_as_printed_toggle(capsys):
    code, out = run_cli(capsys, "construct", "--l", "5", "--row", "1", "--z", "1", "--as-printed")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "degenerate"
    assert "row-1" in doc["diagnostics"][0]


@pytest.mark.parametrize("command", [["sweep", "--l", "5"], ["verify-paper"]])
def test_as_printed_is_a_usage_error_outside_construct(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--as-printed"])
    assert exc.value.code == 1


def test_construct_missing_parameter_domain_error(capsys):
    code, out = run_cli(capsys, "construct", "--l", "4", "--u", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        ("construct --l 4 --u 1 --v 1 --z 3", "unexpected ['z']"),
        ("construct --l 5 --z 2", "(5, 1): ('z',)"),
        ("construct --l 4 --u 1 --v 1 --as-printed", "(5, 1) only, not (4, None)"),
        ("construct --l 5 --row 2 --z 1 --as-printed", "(5, 1) only, not (5, 2)"),
        ("family --l 5 --c 2 --a1 3", "unexpected ['a1']"),
        ("family --l 3 --a1 0", "missing ['a3']"),
        ("quotient --l 5 --symbolic --c 2", "unexpected ['c']"),
        ("quotient --l 4 --a1 0 --a3 6", "missing ['c'], unexpected ['a1', 'a3']"),
        ("polyfam --family shanks --t 2 --n 5", "unexpected ['n']"),
        ("galois --family pncl5 --n 1 --c 2 --S 4", "unexpected ['S']"),
        ("galois --family pncl5 --n 1", "missing ['c']"),
        ("galois --poly x^3-2 --t 1", "unexpected ['t']"),
    ],
)
def test_missing_or_foreign_parameter_flag_is_a_domain_error(capsys, monkeypatch, argv, named):
    def fail(*args, **kwargs):
        raise AssertionError("the flags were not checked first")

    monkeypatch.setattr(cli, "certify", fail)
    monkeypatch.setattr(cli, "kubert_curve", fail)
    monkeypatch.setattr(cli, "galois_group", fail)
    monkeypatch.setattr(cli, "poly_from_ascii", fail)
    # family_polynomial checks its flags before it builds the polynomial
    monkeypatch.setattr(families, "UniPoly", fail)
    code, out = run_cli(capsys, *argv.split())
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert named in doc["payload"]["message"]


def test_galois_family(capsys):
    code, out = run_cli(capsys, "galois", "--family", "shanks", "--t", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["group_label"] == "C3"
    assert payload["certainty"] == "exact"


def test_galois_poly_ascii(capsys):
    code, out = run_cli(capsys, "galois", "--poly", "x^3 - 2")
    assert code == 0
    assert json.loads(out)["payload"]["group_label"] == "S3"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["family", "--l", "5"], "--c", "-3/2"),
        (["construct", "--l", "5", "--row", "1"], "--z", "-2/3"),
        (["galois", "--family", "shanks"], "--t", "-3/2"),
        (["galois"], "--poly", "-x^3+2"),
        (["galois"], "--poly", "-x^3 + 2"),
    ],
)
def test_a_flag_takes_a_next_token_that_starts_with_a_minus_as_its_value(capsys, argv, flag, value):
    spaced = run_cli(capsys, *argv, flag, value)
    joined = run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced == joined
    assert spaced[0] == 0


def test_a_flag_followed_by_another_flag_still_lacks_its_value(capsys):
    for argv in (["family", "--l", "5", "--c", "--a1", "1"], ["galois", "--poly", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["family", "-h"])
    assert exc.value.code == 0
    assert "--c C" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["galois", "--pol", "-x^3+2"],
        ["galois", "--pol", "x^3-2"],
        ["quotient", "--l", "5", "--c", "1", "--symb"],
        ["construct", "--l", "5", "--row", "1", "--z", "1", "--as-p"],
        ["verify-paper", "--prime", "60"],
    ],
)
def test_an_abbreviated_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_polyfam_brumer(capsys):
    code, out = run_cli(capsys, "polyfam", "--family", "brumer", "--s", "0", "--u", "0")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["ascii"] == "(1/1)*x^5 + (-3/1)*x^4 + (3/1)*x^3 + (-1/1)*x^2"


def test_sweep_deterministic_and_ordered(capsys):
    code, out1 = run_cli(capsys, "sweep", "--l", "5", "--count", "4", "--seed", "9")
    assert code == 0
    code, out2 = run_cli(capsys, "sweep", "--l", "5", "--count", "4", "--seed", "9")
    assert out1 == out2
    lines = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(lines) == 4
    assert all("valid" in doc for doc in lines)


def test_sweep_parallel_matches_serial(capsys):
    code, serial = run_cli(capsys, "sweep", "--l", "4", "--count", "4", "--seed", "3")
    code, parallel = run_cli(capsys, "sweep", "--l", "4", "--count", "4", "--seed", "3", "--jobs", "2")
    assert serial == parallel


def test_sweep_prints_each_certificate_as_it_is_made(capsys, monkeypatch):
    calls = []
    certify = cli.certify

    def certify_then_fail(inp):
        calls.append(inp)
        if len(calls) == 3:
            raise InvariantError("third draw fails")
        return certify(inp)

    monkeypatch.setattr(cli, "certify", certify_then_fail)
    code, out = run_cli(capsys, "sweep", "--l", "5", "--count", "5")
    assert code == 2
    *certificates, error = out.strip().splitlines()
    assert len(certificates) == 2
    assert all("valid" in json.loads(line) for line in certificates)
    assert json.loads(error)["payload"]["message"] == "third draw fails"


def test_quotient_numeric_l3(capsys):
    code, out = run_cli(capsys, "quotient", "--l", "3", "--a1", "0", "--a3", "6")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["degree"] == 3
    assert payload["kernel_x"] == [["0", "1"]]


def test_galois_pncl5_family(capsys):
    code, out = run_cli(capsys, "galois", "--family", "pncl5", "--n", "1", "--c", "2")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["group_label"] == "D5"
    assert payload["disc_is_square"] is True


def test_galois_requires_exactly_one_source(capsys):
    code, out = run_cli(capsys, "galois", "--poly", "x^3-2", "--family", "shanks", "--t", "1")
    assert code == 2


def test_galois_prime_budget_above_the_cap_is_a_domain_error(capsys):
    code, out = run_cli(capsys, "galois", "--poly", "x^3 - 2", "--primes", "100000")
    assert code == 2
    assert "exceeds the cap" in json.loads(out)["payload"]["message"]


@pytest.mark.parametrize("budget", ["5", "0", "-5"])
def test_galois_prime_budget_below_the_minimum_is_a_domain_error(capsys, budget):
    code, out = run_cli(capsys, "galois", "--poly", "x^3 - 2", "--primes", budget)
    assert code == 2
    assert "below the minimum of 20" in json.loads(out)["payload"]["message"]


@pytest.mark.parametrize(
    "flags",
    [("--count", "-1"), ("--jobs", "0"), ("--jobs", str((os.cpu_count() or 1) + 1))],
)
def test_sweep_rejects_out_of_range_count_and_jobs(capsys, monkeypatch, flags):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out = run_cli(capsys, "sweep", "--l", "5", "--count", "2", *flags)
    assert code == 2
    assert json.loads(out)["status"] == "error"


def test_sweep_count_above_the_cap_is_a_domain_error(capsys, monkeypatch):
    def no_certificate(*args, **kwargs):
        raise AssertionError("a certificate was started")

    monkeypatch.setattr(cli, "_sweep_one", no_certificate)
    code, out = run_cli(capsys, "sweep", "--l", "5", "--count", str(cli.MAX_SWEEP_COUNT + 1))
    assert code == 2
    assert f"between 0 and {cli.MAX_SWEEP_COUNT}" in json.loads(out)["payload"]["message"]


def test_verify_paper_prime_budget_above_the_cap_is_a_domain_error(capsys, monkeypatch):
    def no_criterion(*args, **kwargs):
        raise AssertionError("a criterion was started")

    monkeypatch.setattr(verify, "ac1", no_criterion)
    code, out = run_cli(capsys, "verify-paper", "--primes", "100000")
    assert code == 2
    assert "exceeds the cap" in json.loads(out)["payload"]["message"]
    for budget in ("0", "-5"):
        code, out = run_cli(capsys, "verify-paper", "--primes", budget)
        assert code == 2
        assert "below the minimum of 1" in json.loads(out)["payload"]["message"]


# one command per flag table, each with its rational flags; the value
# under test replaces the last flag's
RATIONAL_COMMANDS = [
    "family --l 5 --c",
    "quotient --l 3 --a1 0 --a3",
    "construct --l 4 --u 1 --v",
    "construct --l 6 --v0 1 --z",
    "galois --family ptilde3 --u 1 --v 2 --n",
    "polyfam --family darmon --S 1 --T",
]


def _no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a rational flag was not checked first")

    for name in ("kubert_curve", "velu_quotient", "certify", "galois_group", "family_polynomial"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(jsonio, "UniPoly", fail)


@pytest.mark.parametrize("command", RATIONAL_COMMANDS)
def test_a_rational_flag_outside_the_grammar_is_a_domain_error(capsys, monkeypatch, command):
    _no_work(monkeypatch)
    flag = command.split()[-1]
    for text in ("1.5", "2.5e-1", "1e1000000", "1_000", "٣", "1/0"):
        code, out = run_cli(capsys, *command.split()[:-1], f"{flag}={text}")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["payload"]["message"].startswith(f"{flag}: ")


@pytest.mark.parametrize("command", [*RATIONAL_COMMANDS, "galois --poly"])
def test_a_rational_one_digit_over_the_cap_is_a_domain_error_before_any_work(
    capsys, monkeypatch, command
):
    _no_work(monkeypatch)
    *argv, flag = command.split()
    cap, big = MAX_RATIONAL_DIGITS, "9" * (MAX_RATIONAL_DIGITS + 1)
    for value, part in ((f"-{big}/7", "numerator"), (f"7/{big}", "denominator")):
        text = f"x^3 + ({value})*x + 1" if flag == "--poly" else value
        code, out = run_cli(capsys, *argv, f"{flag}={text}")
        assert code == 2
        message = json.loads(out)["payload"]["message"]
        named = f"term '({value[:15]}" if flag == "--poly" else f"{flag}:"
        assert message.startswith(named)
        assert f"the {part} has more than {cap} digits" in message
        assert big not in message


def _at_cap(last):
    """A rational of cap-sized numerator and denominator, the denominator ending in `last`."""
    return f"{'9' * MAX_RATIONAL_DIGITS}/{'9' * (MAX_RATIONAL_DIGITS - 1)}{last}"


# the commands whose output grows most with the digits of their input
AT_CAP = {
    "quotient --l 12": ["quotient", "--l", "12", f"--c=-{_at_cap(8)}"],
    "construct --l 6": ["construct", "--l", "6", f"--v0={_at_cap(8)}", f"--z=-{_at_cap(8)}"],
    "galois --poly degree 6": [
        "galois",
        "--poly",
        " + ".join(f"({'-' * (k % 2)}{_at_cap(k)})*x^{k}" for k in range(6, -1, -1)),
    ],
}


@pytest.mark.parametrize("argv", AT_CAP.values(), ids=AT_CAP)
def test_the_largest_outputs_at_the_cap_print(argv):
    # the loose timeout is no speed check: construct --l 6 takes a few seconds
    done = subprocess.run(
        [sys.executable, "-m", "ellquot.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["status"] == "ok"
    digits = [len(s.lstrip("-")) for s in re.findall(r'"(-?[0-9]+)"', done.stdout)]
    assert 1000 < max(digits) <= 2150


def test_a_long_poly_coefficient_gets_one_verdict_under_any_int_string_limit():
    text = "x^3 + " + "9" * 700 + "*x + 1"
    runs = []
    for limit in (None, "640", "0"):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        done = subprocess.run(
            [sys.executable, "-m", "ellquot.cli", "galois", "--poly", text],
            env=env, capture_output=True, text=True, timeout=60,
        )
        runs.append((done.returncode, done.stdout))
    assert runs[0] == runs[1] == runs[2]
    code, out = runs[0]
    assert code == 2
    assert f"more than {MAX_RATIONAL_DIGITS} digits" in json.loads(out)["payload"]["message"]
