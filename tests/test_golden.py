"""Every pinned CLI output: one row of ``golden_outputs.txt`` each, run in-process."""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from graceperiod import adversary, strategy
from graceperiod.cli import CONFIG_DIR_ENV, main

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_outputs.txt"


def manifest_rows() -> list[tuple[int, str, list[str]]]:
    """``(exit code, expect, argv)`` of each row, in file order."""
    rows = []
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            code, expect, *argv = line.split()
            rows.append((int(code), expect, argv))
    return rows


ROWS = manifest_rows()
DIGESTS = {tuple(argv): expect for code, expect, argv in ROWS if code == 0}


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    # generated, not committed: 200 KB of brackets
    (path / "deep.json").write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return path


@pytest.fixture
def cwd(rundir, monkeypatch):
    monkeypatch.chdir(rundir)
    monkeypatch.setenv(CONFIG_DIR_ENV, str(HERE / "configs"))


def run(argv: list[str]) -> int:
    # a NaN or an overflow in a shipped command fails its row
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("code, expect, argv", ROWS, ids=[" ".join(argv) for _, _, argv in ROWS])
def test_golden_output(cwd, capsys, code, expect, argv):
    got = run(argv)
    out, err = capsys.readouterr()
    row = " ".join(argv)
    assert got == code, f"{row}: exit {got}, expected {code}\n{err}"
    if code == 0:
        digest = sha256(out)
        assert digest == expect, f"{row}\n  expected {expect}\n  actual   {digest}"
    else:
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and expect in errors[0] and "Traceback" not in err, (
            f"{row}: expected one error line naming {expect}\n{err}"
        )


def test_warm_caches_print_the_pinned_bytes(cwd, capsys):
    # a cold run, then one that reads the cached family constants, inverse
    # tables and Poisson tables, in one interpreter
    for module in (adversary, strategy):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    for _ in range(2):
        for argv in (["verify", "--seed", "1"], ["bench-synthetic", "--seed", "1"]):
            assert run(argv) == 0
            assert sha256(capsys.readouterr().out) == DIGESTS[tuple(argv)], argv


def test_verify_report_does_not_read_the_seed(cwd, capsys):
    reports = []
    for seed in (1, 7):
        assert run(["verify", "--seed", str(seed)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("seed") == seed
        reports.append(report)
    assert reports[0] == reports[1]
