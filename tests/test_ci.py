"""The CI workflow runs the console script, the Tier-1 command of ROADMAP.md
and a short run of every benchmark workload on pinned versions."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wptsim import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    return re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`", roadmap).group(1)


def test_workflow_runs_the_tier1_command():
    assert f"run: {tier1_command()}\n" in WORKFLOW.read_text(encoding="utf-8")


def test_workflow_parses_with_the_recording_versions():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    assert set(workflow["on"]) == {"push", "pull_request"}
    steps = workflow["jobs"]["tier1"]["steps"]
    assert steps[1]["with"]["python-version"] == "3.11"
    assert 'pip install -e ".[test]" numpy==2.4.6' in steps[2]["run"]
    assert steps[-1]["run"] == tier1_command()


def test_tier1_job_runs_the_console_script_before_the_tests():
    # Tests run `python -m wptsim.cli`; this step runs the installed script.
    job = WORKFLOW.read_text(encoding="utf-8").split("\n  bench-smoke:\n")[0]
    step = "      - name: Console script\n        run: wptsim paper-check\n"
    assert job.index("      - name: Install\n") < job.index(step)
    assert job.index(step) < job.index("      - name: Tier-1 tests\n")


def tier1_step(name, after):
    """The tier1 job's step `name`, which must come right after `after`."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    names = [step.get("name") for step in workflow["jobs"]["tier1"]["steps"]]
    index = names.index(name)
    assert names[index - 1] == after
    return workflow["jobs"]["tier1"]["steps"][index]


def csi_step():
    return tier1_step("CSI console script", after="Console script")


def run_step(tmp_path, script):
    """The step's script under GitHub's bash flags, `wptsim` standing for
    this checkout's `python -m wptsim.cli`."""
    shim = f'wptsim() {{ "{sys.executable}" -m wptsim.cli "$@"; }}\n'
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path), "PYTHONPATH": path}
    return subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", shim + script],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_tier1_job_runs_a_csi_sweep_and_rejects_a_removed_key(tmp_path):
    step = csi_step()
    assert step["shell"] == "bash"
    proc = run_step(tmp_path, step["run"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scheme,n_tones,m_antennas,distance_m,")
    assert proc.stdout.rstrip().endswith("error: unknown config key 'pilot_amplitude'")
    cfg = (tmp_path / "csi.cfg").read_text(encoding="utf-8")
    for line in ("schemes = mrt", "tones = 1", "realizations = 2", "csi_enabled = true",
                 "noise_variance = 1e-3", "acquisition_time = 0.08"):
        assert f"{line}\n" in cfg


def test_csi_step_fails_when_the_removed_key_runs(tmp_path):
    # The step must not pass if the sweep accepts pilot_amplitude.
    script = csi_step()["run"].replace(
        "echo 'pilot_amplitude = 1'", "echo 'seed = 1'"
    )
    assert run_step(tmp_path, script).returncode != 0


def channel_step():
    return tier1_step("Channel file console script", after="CSI console script")


def test_tier1_job_designs_on_a_channel_file_with_a_legacy_key(tmp_path):
    step = channel_step()
    assert step["shell"] == "bash"
    proc = run_step(tmp_path, step["run"])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0
    channel = json.loads((tmp_path / "chan.json").read_text(encoding="utf-8"))
    assert channel["distance"] == 2.0
    assert (channel["n_tones"], channel["m_antennas"]) == (2, 2)
    weights = json.loads((tmp_path / "weights.json").read_text(encoding="utf-8"))
    assert (weights["n_tones"], len(weights["entries"])) == (2, 4)


def test_channel_step_fails_on_a_weight_file_of_another_tone_count(tmp_path):
    script = channel_step()["run"].replace('["n_tones"] != 2', '["n_tones"] != 3')
    assert run_step(tmp_path, script).returncode != 0


def test_channel_step_fails_on_a_weight_file_of_another_antenna_count(tmp_path):
    script = channel_step()["run"].replace('["m_antennas"] != 2', '["m_antennas"] != 3')
    assert run_step(tmp_path, script).returncode != 0


def range_step():
    return tier1_step("Range console script", after="Channel file console script")


def test_tier1_job_runs_a_range_and_rejects_an_unknown_scheme(tmp_path):
    step = range_step()
    assert step["shell"] == "bash"
    proc = run_step(tmp_path, step["run"])
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[0]) > 0
    assert "argument --scheme: invalid choice: 'bogus'" in proc.stdout
    assert "wptsim range --scheme bogus --target 1 " in step["run"]
    assert (tmp_path / "range.out").read_text() == proc.stdout.splitlines()[0] + "\n"
    assert "wptsim range --scheme cw --target 1 | cmp - " in step["run"]


def test_range_step_fails_when_the_scheme_ranges_differ(tmp_path):
    # The step must not pass if `--scheme cw` gives another range.
    script = range_step()["run"].replace(
        "--scheme cw --target 1", "--scheme cw --target 2"
    )
    assert run_step(tmp_path, script).returncode != 0


def test_range_step_fails_when_the_unknown_scheme_runs(tmp_path):
    # The step must not pass if `range` accepts any scheme.
    script = range_step()["run"].replace("--scheme bogus", "--scheme mrt")
    assert run_step(tmp_path, script).returncode != 0


def overflow_step():
    return tier1_step("Overflow console script", after="Range console script")


def test_tier1_job_reports_an_r_ant_overflow_in_one_line(tmp_path):
    step = overflow_step()
    assert step["shell"] == "bash"
    proc = run_step(tmp_path, step["run"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("error: smf N=1 M=4 d=1: z_dc overflows: ")
    err = (tmp_path / "overflow.err").read_text(encoding="utf-8")
    assert err == proc.stdout and "Traceback" not in err
    cfg = (tmp_path / "overflow.cfg").read_text(encoding="utf-8")
    for line in ("schemes = smf", "tones = 1", "antennas = 4", "realizations = 2",
                 "seed = 917", "r_ant = 1e300"):
        assert f"{line}\n" in cfg


def test_overflow_step_fails_when_the_sweep_runs(tmp_path):
    # The step must not pass if the sweep ends without the overflow error.
    script = overflow_step()["run"].replace("'r_ant = 1e300'", "'r_ant = 50'")
    assert run_step(tmp_path, script).returncode != 0


def test_overflow_step_fails_on_a_traceback(tmp_path):
    # The step must not pass if a traceback comes before the error line.
    sweep = 'wptsim sweep --config "$cfg"'
    script = overflow_step()["run"].replace(
        sweep, f"{{ echo 'Traceback (most recent call last):' >&2; {sweep}; }}"
    )
    assert script != overflow_step()["run"]
    assert run_step(tmp_path, script).returncode != 0


def config_step():
    return tier1_step("Config console script", after="Overflow console script")


FIRST_PROBLEM = "error: invalid experiment config: realizations must be an integer >= 1"


def test_tier1_job_names_only_the_first_config_problem(tmp_path):
    step = config_step()
    assert step["shell"] == "bash"
    proc = run_step(tmp_path, step["run"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{FIRST_PROBLEM}\n"
    assert (tmp_path / "config.err").read_text(encoding="utf-8") == proc.stdout
    cfg = (tmp_path / "config.cfg").read_text(encoding="utf-8")
    assert cfg == "realizations = 0\nseed = -1\n"


def test_config_step_fails_when_the_sweep_runs(tmp_path):
    # The step must not pass if the config is accepted.
    script = config_step()["run"].replace(
        "'realizations = 0' 'seed = -1'", "'seed = 1'"
    )
    assert run_step(tmp_path, script).returncode != 0


def test_config_step_fails_when_every_problem_is_named(tmp_path):
    # The step must not pass on one line naming both problems, as a
    # validator collecting every problem would print.
    sweep = 'wptsim sweep --config "$cfg"'
    both = f"{FIRST_PROBLEM}; seed must be an integer >= 0"
    script = config_step()["run"].replace(sweep, f"{{ echo '{both}' >&2; exit 1; }}")
    assert script != config_step()["run"]
    assert run_step(tmp_path, script).returncode != 0


def test_config_step_fails_on_a_second_error_line(tmp_path):
    sweep = 'wptsim sweep --config "$cfg"'
    script = config_step()["run"].replace(
        sweep, f"{{ echo 'error: seed must be an integer >= 0' >&2; {sweep}; }}"
    )
    assert script != config_step()["run"]
    assert run_step(tmp_path, script).returncode != 0


def test_console_script_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["wptsim"]
    assert target == "wptsim.cli:main"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def bench_smoke_job():
    text = WORKFLOW.read_text(encoding="utf-8")
    return text[text.index("\n  bench-smoke:\n"):]


def test_bench_smoke_runs_every_workload():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in benchmark["workloads"]]
    matrix = re.search(r"\n +workload: \[([^]]*)\]\n", bench_smoke_job()).group(1)
    assert [name.strip() for name in matrix.split(",")] == names
    for trace in (0, 1):
        command = (
            "python3 bench/run.py --workload ${{ matrix.workload }} "
            f"--seed 1 --seconds 1 --trace {trace} | tee smoke.out\n"
        )
        assert command in bench_smoke_job()


@pytest.mark.parametrize(
    "last_line, passes",
    [
        ({"correct": True, "attempted": 9, "failed": 0, "metrics": {}}, True),
        ({"correct": False, "attempted": 9, "failed": 0, "metrics": {}}, False),
        ({"correct": True, "attempted": 9, "failed": 1, "metrics": {}}, False),
        ({"correct": "true", "attempted": 9, "failed": 0, "metrics": {}}, False),
    ],
)
def test_bench_smoke_gate_reads_the_last_line(last_line, passes):
    # The untraced and the traced run end with the same gate.
    gate = r"tail -n 1 smoke.out \| python3 -c '([^']*)'"
    gates = re.findall(gate, bench_smoke_job())
    assert len(gates) == 2 and gates[0] == gates[1]
    proc = subprocess.run(
        [sys.executable, "-c", gates[0]], input=json.dumps(last_line), text=True
    )
    assert (proc.returncode == 0) == passes


def test_bench_smoke_parses_with_the_recording_versions():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    tier1, smoke = workflow["jobs"]["tier1"], workflow["jobs"]["bench-smoke"]
    assert smoke["steps"][:3] == tier1["steps"][:3]
    runs = [step for step in smoke["steps"] if "bench/run.py" in step.get("run", "")]
    assert [step["shell"] for step in runs] == ["bash", "bash"]


def test_every_job_has_a_timeout_and_superseded_runs_cancel():
    # A hang then fails within minutes, not after the hosted runner's
    # six-hour default.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    timeouts = {
        name: job.get("timeout-minutes") for name, job in workflow["jobs"].items()
    }
    assert timeouts == {"tier1": 20, "bench-smoke": 10}
    assert workflow["concurrency"]["cancel-in-progress"] is True
    assert "github.ref" in workflow["concurrency"]["group"]


def test_every_job_caches_pip_keyed_on_pyproject():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    for name, job in workflow["jobs"].items():
        setup = job["steps"][1]
        assert setup["uses"] == "actions/setup-python@v5", name
        assert setup["with"]["cache"] == "pip", name
        assert setup["with"]["cache-dependency-path"] == "pyproject.toml", name
