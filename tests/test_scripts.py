"""Smoke runs of the scripts under scripts/, started the way their
docstrings show, with the package on PYTHONPATH."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args, table_header, summary", [
    ("linearity_experiment.py", ["--instances", "2"], "c_estimate", "2/2 passed"),
    ("compression_ablation.py", ["--epochs", "1"], "compressed loss", "best top1"),
])
def test_script_prints_its_table(script, args, table_header, summary):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = next(i for i, ln in enumerate(lines) if table_header in ln)
    assert lines[header + 1].split()[0] == "0"  # first row: instance or epoch 0
    assert summary in proc.stdout


@pytest.mark.parametrize("args, field", [
    (["--lr", "nan"], "lr"),
    (["--weight-decay", "inf"], "weight_decay"),
    (["--kappa", "nan"], "kappa"),
])
def test_ablation_rejects_bad_setting_before_training(args, field):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "compression_ablation.py"),
                           *args], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert f"error: {field} " in proc.stderr
