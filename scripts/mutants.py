"""Run tier-1 against semantic mutants of the paper's contract; each must fail it.

    python3 scripts/mutants.py

A mutant is one or more exact text edits of files under src/lightband: the
paper's defaults, the edges of the tolerance band and the baseline window,
the EWMA's first frame, the relax/gesture pairing, the input rules of the
trace, the reading and the network, and the lazy load of the network. For
each mutant the script copies the checkout, less .git and caches, into a
temporary directory, applies the edits there and runs `python -m pytest
-x -q` in it with that copy's src first on PYTHONPATH. A
failing run kills the mutant; a passing one lets it survive. One line per
mutant goes to stdout.

Before any mutant runs, every edit is checked, its old text appearing
exactly once in its file, and tier-1 must pass on an unedited copy: else a
kill would show nothing. The exit status is 1 when an edit does not apply,
the unedited copy fails or a mutant survives, else 0. The checkout itself
is never edited.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "lightband"
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out", ".benchmarks",
    "*.egg-info", "build", "runs",
)
# a run that hangs counts as killed, as a failing one does
TIMEOUT_S = 1200

# name -> [(file under src/lightband, old text, new text)]
MUTANTS = {
    "transition_horizon default 9": [
        ("signature.py", "    transition_horizon: int = 10\n", "    transition_horizon: int = 9\n"),
    ],
    "band edge <, on both paths": [
        ("signature.py", "if err > tolerance * abs(sig):", "if err >= tolerance * abs(sig):"),
        ("signature.py", "matched &= err <= state.tolerance * abs(sig)",
         "matched &= err < state.tolerance * abs(sig)"),
    ],
    "ties to the later gesture, on both paths": [
        ("signature.py", "            if mean_err < best_err:\n",
         "            if mean_err <= best_err:\n"),
        ("signature.py", "better = matched & (mean_err < best_err)",
         "better = matched & (mean_err <= best_err)"),
    ],
    "generate_signatures skips no TRANSITION": [
        ("signature.py", "                prev -= 1\n", "                pass\n"),
    ],
    "dropout_rate default 0.25": [
        ("mlp.py", "    dropout_rate: float = 0.3\n", "    dropout_rate: float = 0.25\n"),
    ],
    "hidden default (100,)": [
        ("mlp.py", "    hidden: tuple = (100, 100)\n", "    hidden: tuple = (100,)\n"),
    ],
    "alpha default 0.25": [
        ("baseline.py", "    alpha: float = 0.2  #", "    alpha: float = 0.25  #"),
    ],
    "tolerance default 0.11": [
        ("signature.py", "    tolerance: float = 0.10\n", "    tolerance: float = 0.11\n"),
    ],
    "window default 4.5": [
        ("baseline.py", "    window: float = 4.0  #", "    window: float = 4.5  #"),
    ],
    "l2 default 0.005": [
        ("mlp.py", "    l2: float = 0.01\n", "    l2: float = 0.005\n"),
    ],
    "MIN_SEGMENT_FRAMES 4": [
        ("signature.py", "MIN_SEGMENT_FRAMES = 5\n", "MIN_SEGMENT_FRAMES = 4\n"),
    ],
    "EWMA starts at alpha * x, on both paths": [
        ("baseline.py", "smoothed = x if prev is None else", "smoothed = alpha * x if prev is None else"),
        ("baseline.py", "initial=float(x[0, ch]),", "initial=alpha * float(x[0, ch]),"),
        ("baseline.py", "starts[:] = x[::CHUNK]", "starts[:] = alpha * x[::CHUNK]"),
    ],
    "window evicts t < now - window, on both paths": [
        ("baseline.py", "while window and window[0][0] <= cutoff:",
         "while window and window[0][0] < cutoff:"),
        ("baseline.py", 'np.searchsorted(t, t - window, side="right")',
         'np.searchsorted(t, t - window, side="left")'),
    ],
    "a gesture pairs with any segment before it": [
        ("signature.py", "if prev < 0 or segments[prev][0] is not GestureLabel.RELAX:",
         "if prev < 0:"),
    ],
    "MlpConfig takes a negative l2": [
        ("mlp.py", "        if self.l2 < 0:\n", "        if False:\n"),
    ],
    "trace times of any dtype": [
        ("types.py", 'if column.dtype.kind not in "iuf":', "if False:"),
    ],
    "trace channels of a float dtype": [
        ("types.py", 'if raw.dtype.kind not in "iu" and raw.size:',
         'if raw.dtype.kind not in "iuf" and raw.size:'),
    ],
    "an object label array as members": [
        ("types.py", "    if not isinstance(labels, np.ndarray):\n",
         '    if not isinstance(labels, np.ndarray) or labels.dtype.kind == "O":\n'),
    ],
    "MlpConfig takes more outputs than classes": [
        ("mlp.py", "        if self.output_dim > len(CLASS_LABELS):\n", "        if False:\n"),
    ],
    "a bool channel value taken as an int": [
        ("types.py", 'tuple(int_setting("channel value", v) for v in channels)',
         'tuple(int(v) if type(v) is bool else int_setting("channel value", v) for v in channels)'),
    ],
    "write_label_file coerces its times to float": [
        ("ingest.py", 't_rel = _time_column(t_rel, "t_rel")',
         't_rel = _time_column(np.asarray(t_rel, dtype=np.float64), "t_rel")'),
    ],
    "frames_for allows 0 samples": [
        ("simulate.py", "        if n < 1:\n", "        if n < 0:\n"),
    ],
    "__init__ imports mlp eagerly": [
        ("__init__.py", "from . import baseline, evaluate, ingest, signature, simulate, types\n",
         "from . import baseline, evaluate, ingest, mlp, signature, simulate, types\n"),
    ],
}


def bad_edits() -> list:
    """A line for each edit whose old text is not in its file exactly once."""
    problems = []
    for name, edits in MUTANTS.items():
        for filename, old, _ in edits:
            count = (ROOT / PACKAGE / filename).read_text().count(old)
            if count != 1:
                problems.append(f"{name}: {filename} holds {old!r} {count} times")
    return problems


def run_mutant(edits) -> tuple:
    """(killed, seconds): whether tier-1 fails on a copy with the edits applied."""
    with tempfile.TemporaryDirectory(prefix="lightband-mutant-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for filename, old, new in edits:
            path = copy / PACKAGE / filename
            path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
            killed = done.returncode != 0
        except subprocess.TimeoutExpired:
            killed = True
        return killed, perf_counter() - start


def main() -> int:
    problems = bad_edits()
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    failed, seconds = run_mutant([])
    print(f"{'FAILED' if failed else 'passed':<8}  {seconds:6.1f} s  the unedited copy", flush=True)
    if failed:
        return 1
    survivors = 0
    for name, edits in MUTANTS.items():
        killed, seconds = run_mutant(edits)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED':<8}  {seconds:6.1f} s  {name}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
