"""The acceptance battery, one test per criterion, printing PASS/FAIL lines.

Two criteria cannot hold against the published tables and are marked xfail
with the mathematical reason rather than weakened:

  AC-5  the published l=3 parametrization only produces points in the image
        of the 3-isogeny (every draw has a rational preimage), so no l=3
        certificate is ever non-trivial;
  AC-6  the published l=4 quotient model is the (-1)-quadratic twist of the
        Velu quotient and its parametrized points satisfy the 2-descent
        condition, so every quartic fiber splits (2,2).

`ellquot verify-paper` reports the same two failures with full analyses.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ellquot.verify import run_battery

EXPECTED_RED = {
    "AC-5": "published l=3 parametrization yields only trivial points",
    "AC-6": "published l=4 model is a quadratic twist; quartic fibers split",
}


@pytest.fixture(scope="module")
def battery():
    return run_battery(seed=0, prime_budget=60)


def _criterion(battery, name):
    entry = next(c for c in battery["criteria"] if c["name"] == name)
    print(f"{name}: {'PASS' if entry['passed'] else 'FAIL'} - {entry['detail'][:160]}")
    if name in EXPECTED_RED:
        if entry["passed"]:
            pytest.fail(f"{name} unexpectedly passed; update the ledger")
        pytest.xfail(f"{name} red as documented: {EXPECTED_RED[name]}")
    assert entry["passed"], entry["detail"]


def test_summary_has_the_documented_keys(battery):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert list(battery) == [
        "seed", "prime_budget", "elapsed_seconds", "criteria", "passed", "failed", "expected_failures"
    ]
    assert all(f"`{key}`" in readme for key in battery)


def test_ac1_velu_codomain_l5(battery):
    _criterion(battery, "AC-1")


def test_ac2_velu_codomain_l6(battery):
    _criterion(battery, "AC-2")


def test_ac3_velu_codomain_l4(battery):
    _criterion(battery, "AC-3")


def test_ac4_defining_identities(battery):
    _criterion(battery, "AC-4")


def test_ac5_certificates(battery):
    _criterion(battery, "AC-5")


def test_ac6_cyclic_fibers(battery):
    _criterion(battery, "AC-6")


def test_ac7_fiber_matches_quintic_family(battery):
    _criterion(battery, "AC-7")


def test_ac8_brumer_darmon(battery):
    _criterion(battery, "AC-8")


def test_ac9_gras_resultant(battery):
    _criterion(battery, "AC-9")


def test_ac10_shanks(battery):
    _criterion(battery, "AC-10")


def test_ac11_generic_dihedral(battery):
    _criterion(battery, "AC-11")


@pytest.mark.parametrize("budget", [0, 1001])
def test_run_battery_rejects_an_out_of_range_prime_budget(monkeypatch, budget):
    from ellquot import verify

    def no_criterion(*args, **kwargs):
        raise AssertionError("a criterion was started")

    monkeypatch.setattr(verify, "ac1", no_criterion)
    with pytest.raises(ValueError, match="prime budget"):
        run_battery(prime_budget=budget)


def test_ac11_reports_its_prime_budget(monkeypatch):
    from ellquot import verify

    monkeypatch.setattr(verify, "frobenius_patterns", lambda f, budget: {})
    passed, detail = verify.ac11(0, prime_budget=20)
    assert not passed
    assert "no (1,2,2) pattern in 20 primes" in detail
    assert "60 primes" not in detail


def test_the_battery_screen_checks_irreducibility_then_the_discriminant():
    from ellquot import QQ, UniPoly, verify

    x = UniPoly.gen(QQ)
    assert verify._screen((x ** 2 - 2) * (x ** 3 - 2), False, 20) == ("splits (2, 3)", None)
    s5 = x ** 5 - x - 1
    assert verify._screen(s5, True, 20) == ("discriminant not square", None)
    why, hist = verify._screen(s5, False, 20)
    assert why is None and (5,) in hist
    # seed 38 draws one reducible quintic, which AC-11 lists and forgives
    passed, detail = verify.ac11(38, prime_budget=20)
    assert passed
    assert detail.endswith("19/20 dihedral-consistent; exceptions: [('10/9', '-4/9', 'splits (1, 2, 2)')]")


def test_ac12_runtime(battery):
    _criterion(battery, "AC-12")


def test_side_results_of_ac5_are_as_analysed(battery):
    """The AC-5 failure is exactly the documented l=3 one, nothing else."""
    entry = next(c for c in battery["criteria"] if c["name"] == "AC-5")
    assert "'pass': True" in entry["detail"] or "4:" in entry["detail"]
    assert "l=3 analysis" in entry["detail"]


def test_side_results_of_ac6_are_as_analysed(battery):
    entry = next(c for c in battery["criteria"] if c["name"] == "AC-6")
    assert "l=4 analysis" in entry["detail"]
    assert "5: {'checked': " in entry["detail"]


# AC-6 on the first five valid AC-5 certificates at l = 5 and 6, and AC-11
_AC6_AC11 = textwrap.dedent(
    """
    import json, random
    from ellquot import certify
    from ellquot.verify import ac6, ac11, draw_input

    certificates = {}
    for l in (5, 6):
        rng = random.Random(f"0-ac5-{l}")
        while len(certificates.get(l, [])) < 5:
            cert = certify(draw_input(l, rng))
            if cert.valid:
                certificates.setdefault(l, []).append(cert)
    result = json.dumps([ac6(certificates), ac11(0)])
    """
)


def test_ac6_and_ac11_agree_under_optimisation():
    # python -O strips asserts; the Frobenius sampling behind both criteria
    # must give the same verdicts and details without them
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen(
        [sys.executable, "-O", "-c", _AC6_AC11 + "print(result)"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        here = {}
        exec(_AC6_AC11, here)  # the same calls in this process, while the child runs
        out, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 0, err
    assert out.strip() == here["result"]
    (ac6_passed, ac6_detail), (ac11_passed, _) = json.loads(out)
    assert "5: {'checked': 5, 'pass': True" in ac6_detail
    assert "6: {'checked': 5, 'pass': True" in ac6_detail
    assert ac11_passed
