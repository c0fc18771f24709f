"""Every pair of session flags either runs or exits 2 with a one-line reason.

The pairs come from ``dataclasses.fields(RunConfig)``, so a new subsystem
field cannot skip the matrix: :func:`test_every_field_has_a_sample` fails
until :data:`SAMPLES` names a value for it.  Each pair runs through the
CLI as a serial run, an ``explain``, and a ``--jobs 2`` session, and the
CLI's verdict must agree with :meth:`RunConfig.validate`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.runconfig import RunConfig

#: One non-default CLI value per :class:`RunConfig` field.
SAMPLES = {
    "faults": "chaos",
    "planner": "adaptive",
    "cluster": "2x4",
    "storage": "200m",
    "backend": "sqlite",
    "rewrite": "learned",
}

FIELDS = [field.name for field in dataclasses.fields(RunConfig)]

#: name -> (positional args, experiment ids whose CSVs a success writes).
COMMANDS = {
    "run": (["wl01"], ["wl01"]),
    "explain": (["explain", "q3"], []),
    "jobs": (["--jobs", "2", "wl01", "wl02"], ["wl01", "wl02"]),
}


def _flags(fields) -> List[str]:
    return [arg for name in fields for arg in (f"--{name}", SAMPLES[name])]


def _validate_error(fields) -> Optional[str]:
    try:
        RunConfig(**{name: SAMPLES[name] for name in fields}).validate()
    except ConfigurationError as exc:
        return str(exc)
    return None


def _one_line_reason(err: str) -> str:
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


def test_every_field_has_a_sample():
    assert sorted(SAMPLES) == sorted(FIELDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize(
    "pair", list(itertools.combinations(FIELDS, 2)), ids="-".join
)
def test_flag_pair(pair, command, tmp_path, capfd):
    args, written = COMMANDS[command]
    out = tmp_path / "csv"
    code = main(args + _flags(pair) + ["--csv", str(out)])
    stdout, err = capfd.readouterr()
    expected = _validate_error(pair)
    if expected is None and command == "explain" and "backend" in pair:
        # explain ranks plans through the simulator, whatever the pair.
        expected = "explain ranks candidate plans"
    if expected is None:
        assert code == 0, err
        assert "Traceback" not in err
        assert stdout.strip()
        for experiment_id in written:
            assert (out / f"{experiment_id}.csv").read_text().strip()
    else:
        assert code == 2
        assert _one_line_reason(err).startswith(expected)
        assert not out.exists()  # rejected before any output dir exists


#: A session flag against an experiment that pins its own arms: argv and
#: the start of the expected exit-2 reason (``None``: must succeed).
PINNING = {
    "wl05-backend": (["wl05", "--backend", "sqlite"], "no calibrated profile"),
    "wl08-backend": (["wl08", "--backend", "sqlite"], "no calibrated profile"),
    "wl05-wl08-backend-jobs2": (
        ["--jobs", "2", "wl05", "wl08", "--backend", "sqlite"],
        "no calibrated profile",
    ),
    "wl05-rewrite": (["wl05", "--rewrite", "learned"], None),
    "wl06-storage": (["wl06", "--storage", "200m"], None),
    "wl07-cluster": (["wl07", "--cluster", "2x4"], None),
}


@pytest.mark.parametrize("case", sorted(PINNING))
def test_session_flag_on_pinning_experiment(case, capfd):
    argv, expected = PINNING[case]
    code = main(argv)
    stdout, err = capfd.readouterr()
    if expected is None:
        assert code == 0, err
        assert "Traceback" not in err
        assert stdout.strip()
    else:
        assert code == 2
        assert _one_line_reason(err).startswith(expected)


def test_report_path_exits_2_on_an_unservable_template(tmp_path, capfd):
    report = tmp_path / "REPORT.md"
    code = main(["wl05", "--backend", "sqlite", "--report", str(report)])
    _, err = capfd.readouterr()
    assert code == 2
    assert _one_line_reason(err).startswith("no calibrated profile")
    assert not report.exists()
