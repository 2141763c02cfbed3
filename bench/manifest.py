"""Artifact manifest: sha256 of every experiment CSV at a fixed seed.

Untimed. ``check`` regenerates every experiment except ``custom`` (which
needs a campaign file) into a temporary directory and compares each
CSV's sha256 with ``artifacts.sha256`` beside this file; ``write``
replaces that manifest. A refactor that must keep the seeded CSVs
byte-identical runs ``check`` before and after. The manifest uses the
``sha256sum`` format, so ``sha256sum -c`` can also verify a directory of
CSVs against it.
"""

import hashlib
import tempfile
from pathlib import Path

SEED = 12345
MANIFEST = "artifacts.sha256"


def generate(experiments, out_dir):
    """Run the experiments into ``out_dir``; returns {csv name: sha256}."""
    for eid in experiments.EXPERIMENT_IDS:
        if eid == "custom":
            continue
        experiments.run_experiment(
            experiments.ExperimentSpec(eid, seed=SEED, output_dir=str(out_dir))
        )
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).glob("*.csv"))
    }


def read_manifest(path):
    entries = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            entries[name] = digest
    return entries


def main(mode, experiments, path, out_root):
    """``experiments`` is the imported ``flashvmm.experiments`` module."""
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        got = generate(experiments, tmp)
    if mode == "write":
        path.write_text("".join(f"{d}  {n}\n" for n, d in sorted(got.items())))
        print(f"wrote {len(got)} entries to {path}")
        return 0
    want = read_manifest(path)
    bad = sorted(n for n in set(want) | set(got) if want.get(n) != got.get(n))
    for name in bad:
        print(f"MISMATCH {name}: manifest {want.get(name)} generated {got.get(name)}")
    print(f"manifest {'ok' if not bad else 'FAILED'}: "
          f"{len(got) - len(bad)}/{len(set(want) | set(got))} CSVs identical")
    return 1 if bad else 0
