"""Byte-identity of the seeded experiment CSVs.

Regenerates every experiment through ``bench/manifest.py`` (loaded from
its file, without writing bytecode beside it) and compares each CSV's
sha256 with ``bench/artifacts.sha256``. A change that alters seeded
output on purpose re-pins that manifest with
``python3 bench/run.py --manifest write``.
"""

import importlib.util
import sys
from pathlib import Path

import flashvmm.experiments as experiments

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_manifest_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_manifest", BENCH / "manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_csvs_match_the_artifact_manifest(tmp_path, monkeypatch):
    manifest = load_manifest_module(monkeypatch)
    want = manifest.read_manifest(BENCH / manifest.MANIFEST)
    got = manifest.generate(experiments, tmp_path)
    assert sorted(got) == sorted(want)
    assert {name for name in want if got[name] != want[name]} == set()
