"""Check that every input of the validate benchmark reads its own label.

For each seed, build the inputs of perfbench's validate workload
(`tomobench.workloads.Validate.make_inputs`, full size), write them as the
workload does, and certify each one through `experiments.validate_state`, the
code behind `tomo validate`. A `spurious` input that is not yet a fixed point,
for one, reads `not_fixed_point`, and every benchmark request on it fails.
Over seeds 0-500 two seeds are still mislabelled this way, 54 and 344.

Run from the root of a checkout (about 0.3 s per seed on a 2-core machine):

    python3 scripts/check_validate_labels.py --seeds 0 53

Exit code 0 when every input of every seed reads its label; 1 at the first
input that does not, with its seed, label and verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tomokit  # noqa: E402
import tomokit.cli  # noqa: E402,F401  (workloads reach tomokit.cli through the package)
import tomokit.experiments  # noqa: E402
from tomobench.workloads import FULL, Validate  # noqa: E402


def mislabelled(seed: int) -> list[tuple[str, str, str]]:
    """(label, state file name, verdict) of each input of `seed` whose verdict is not its label."""
    workload = Validate(tomokit, FULL, seed)
    workload.make_inputs()
    found = []
    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(Path(workdir))
        config = json.loads(Path(workload.config).read_text(encoding="utf-8"))
        for label, state, data in workload.inputs:
            cert, _code = tomokit.experiments.validate_state(state, config, data)
            if cert.verdict != label:
                found.append((label, Path(state).name, cert.verdict))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 53), metavar=("FIRST", "LAST"),
                        help="inclusive seed range (default 0 53)")
    args = parser.parse_args(argv)
    first, last = args.seeds
    for seed in range(first, last + 1):
        for label, name, verdict in mislabelled(seed):
            print(f"seed {seed}: the {label} input {name} reads {verdict}")
            return 1
    print(f"seeds {first}-{last}: every validate input reads its label")
    return 0


if __name__ == "__main__":
    sys.exit(main())
