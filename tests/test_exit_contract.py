"""The 0/1/2 exit-code contract, end to end, one command per row.

Each row runs one framekit command in a fresh ``python -W error`` process,
with ``PYTHONPATH`` set to this checkout's ``src``, and checks what the
contract promises for it:

- the exit code is one the row accepts;
- stderr holds no traceback.  A row that exits 2 prints exactly one
  ``error:`` line, which starts with the row's message; any other row
  prints nothing on stderr;
- ``verify`` prints ``overall: PASS`` exactly when it exits 0 and
  ``overall: FAIL`` exactly when it exits 1;
- the row's post-condition, if it has one, holds.

The rows share one work directory.  A row that reads ``--frame NAME``
first runs the row that writes ``--out NAME``, unless the file is already
there; the files no command writes are made in-process beforehand.

``framekit`` rows run the installed console script, under
``PYTHONWARNINGS=error``.  They skip where it is not on ``PATH``, and fail
there when the ``CI`` environment variable is set.
"""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from framekit import (Field, GFrame, GFusionFrame, random_gframe, random_parseval_gframe,
                      save_frame)
from framekit.cli import frame_to_dict, load_frame

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCRIPT = ("framekit",)
MODULE = (sys.executable, "-W", "error", "-m", "framekit")
# ``-W error`` also turns runpy's warning about a module that its package
# imported before running it into an error
CLI_MODULE = (sys.executable, "-W", "error", "-m", "framekit.cli")

# the large-frames shape: n(n + 1)/2 >= 64 for its four components
DIM64 = "gen --dim 64 --components 64:64:1 48:40:1.5 32:64:0.75 16:8:2"
# four weighted blocks at d = 8 whose weights run from W to 1/W
ILL = "gen --dim 8 --field real --seed 0 --components 4:4:{} 4:4:1 4:4:{} 8:8:1"


def _saves_again(name):
    """A loaded frame saves again to the same bytes, with the spacing of
    ``json.dumps``."""
    def check(work):
        path = str(work / name)
        assert (work / name).read_text() == json.dumps(frame_to_dict(load_frame(path))) + "\n"
    return check


def _witnesses_cut(work):
    # the witnesses folded from the chunk arrays stop at the plan's limit of 8
    checks = json.loads((work / "z.json").read_text())["checks"]
    cut = [c for c in checks if c["witness_count"] > 8]
    assert cut and all(len(c["witnesses"]) == 8 for c in cut), cut


class Row(NamedTuple):
    program: tuple
    argv: str
    codes: tuple = (0,)
    error: str = ""  # the start of the one stderr line, after "error: "
    after: Callable | None = None  # post-condition on the work directory

    def __str__(self):
        return " ".join(self.program[-2:] + (self.argv,))


ROWS = [
    Row(SCRIPT, "verify --dims 2 3 --seeds 1"),
    Row(SCRIPT, "verify --dims 2 --seeds 1 --format csv --report c.csv"),
    Row(MODULE, "verify --dims 2 --seeds 1"),
    Row(CLI_MODULE, "verify --dims 2 --seeds 1"),
    Row(SCRIPT, "verify --dims 2 --seeds 1 --tol-residual nan", (2,),
        "--tol-residual must be finite and nonnegative, got nan"),
    Row(MODULE, "verify --dims 2 --seeds 1 --tol-residual nan", (2,),
        "--tol-residual must be finite and nonnegative, got nan"),
    Row(CLI_MODULE, "verify --dims 2 --seeds 1 --tol-residual nan", (2,),
        "--tol-residual must be finite and nonnegative, got nan"),
    # 1,024 subsets in 16 chunks at d = 8 through the per-vector checks
    Row(MODULE, "verify --dims 8 --field complex --seeds 1 --components 10"),
    # the dual sums <u, f> at the exhaustive limit: 4,096 subsets in 64 chunks
    Row(MODULE, "verify --dims 8 --field real --seeds 1 --components 12 --checks THM_T1 THM_TG1"),
    # zero tolerances fail every check that rounds
    Row(MODULE, "verify --dims 8 --field complex --seeds 1 --components 7 --tol-residual 0"
                " --tol-margin 0 --report z.json", (1,), after=_witnesses_cut),
    # a Parseval frame file (parsevalize) round-trips and reconstructs
    # (canonical_dual)
    Row(SCRIPT, "gen --dim 3 --components 2:2:1 2:3:1.5 --seed 4 --parseval --out p.frame"),
    Row(SCRIPT, "verify --frame p.frame"),
    Row(SCRIPT, "demo-reconstruct --frame p.frame --vector 3,4,5"),
    # S = (2.5e307 + 1) I is finite, but the checks' subset sums of the
    # sample vectors overflow
    Row(MODULE, "verify --frame n.frame", (2,),
        "could not evaluate the checks: subset sums are not finite at this frame's scale"),
    # a basis entry of 1e200 overflows the Gram of the orthonormality gate
    Row(MODULE, "verify --frame o.frame", (2,), "could not load frame file 'o.frame'"),
    # a g-frame matrix entry that numpy would take as a number: the string
    # "1.5", and true
    Row(MODULE, "verify --frame s.frame", (2,), "could not load frame file 's.frame'"),
    Row(MODULE, "verify --frame b.frame", (2,), "could not load frame file 'b.frame'"),
    # a negative vector seed is refused, not wrapped to 2^64 - 1
    Row(SCRIPT, "demo-reconstruct --random --vector-seed -1", (2,),
        "--vector-seed must be a 64-bit unsigned integer, got -1"),
    # demo-reconstruct draws its frame in one field
    Row(SCRIPT, "demo-reconstruct --random --field both", (2,),
        "demo-reconstruct needs a single field"),
    # the README example and a gen -> verify --frame round trip, both through
    # the frame generation that gen and demo-reconstruct share
    Row(MODULE, "demo-reconstruct --random --dim 4 --components 2:2:1 3:2:1 --seed 5"
                " --random-vector --vector-seed 6"),
    Row(MODULE, "gen --dim 4 --components 2:2:1 3:2:1 --field real --seed 5 --out r.frame"),
    Row(MODULE, "verify --frame r.frame"),
    # dim-64 round trips, general and Parseval in both fields: 16 subsets in
    # chunks of 4, and the one-spectrum margins of the scalar Loewner bounds
    *[row for field in ("real", "complex") for form in ("", " --parseval")
      for name in [f"l-{field}{form.replace(' --', '-')}.frame"]
      for row in (Row(MODULE, f"{DIM64} --field {field} --seed 3{form} --out {name}",
                      after=_saves_again(name)),
                  Row(MODULE, f"verify --frame {name}"))],
    # dim-64 g-frame files, general and Parseval, made in-process: a g-frame
    # keeps its blocks as views of its stack and its file names the g-frame
    # kind
    *[row for name in ("g-general.frame", "g-parseval.frame")
      for row in (Row(MODULE, f"verify --frame {name}", after=_saves_again(name)),
                  Row(MODULE, f"demo-reconstruct --frame {name}"))],
    # weights 1e-3..1e3 (kappa(S) about 2.2e6) and 1e-4..1e4 (about 2.2e8):
    # the S-relative sandwiches evaluate.  Exit 1 is allowed, from the false
    # FAILs that the missing error floors cause (ROADMAP item 4).  The
    # Parseval checks and LEMMA_L2 read X_I = S^-1/2 M_I S^-1/2, summed from
    # the terms of the whitened blocks Lambda_j S^-1/2.
    *[row for name, low, high, form in (("w", "1e-3", "1e3", ""), ("v", "1e-4", "1e4", ""),
                                        ("u", "1e-3", "1e3", " --parseval"))
      for row in (Row(MODULE, f"{ILL.format(low, high)}{form} --out {name}.frame"),
                  Row(MODULE, f"verify --frame {name}.frame", (0, 1)))],
    # the whitened frame's Parseval checks all pass
    Row(MODULE, "verify --frame u.frame --checks SPECTRUM_REMARK COR2_SANDWICH THM38_I THM38_II"
                " LEMMA_L2"),
    # and so do the checks on its own sums <M_I f, f> and M_I f, taken from
    # the truncated frame operators (COR1_IDENTITY reads 2.3e-10)
    Row(MODULE, "verify --frame u.frame --checks COR1_IDENTITY COR1_34BOUND THM_T33 COR_34_SINV"),
    # masked_sums' contraction and THM_FINAL_MI's dual factor at d = 64
    Row(MODULE, f"{DIM64} --field complex --seed 0 --out l0.frame"),
    Row(MODULE, "verify --frame l0.frame"),
]


def _frame_files(work):
    """The input files that no command writes."""
    e = np.eye(8)
    save_frame(GFusionFrame([(e, e, 5e153), (e, e, 1.0)]), str(work / "n.frame"))
    data = frame_to_dict(GFusionFrame([(np.eye(2), np.eye(2), 1.0)]))
    data["components"][0]["basis"][0][0] = 1e200
    (work / "o.frame").write_text(json.dumps(data))
    data = frame_to_dict(GFrame([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]))
    for name, entry in (("s", "1.5"), ("b", True)):
        data["components"][0]["lambda"][0][0] = entry
        (work / f"{name}.frame").write_text(json.dumps(data))
    for name, make in (("general", random_gframe), ("parseval", random_parseval_gframe)):
        save_frame(make(64, [64, 40, 64, 8], Field.COMPLEX, 3), str(work / f"g-{name}.frame"))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit-contract")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _frame_files(path)
    return path


def _run(row, work):
    if row.program == SCRIPT and shutil.which("framekit") is None:
        if os.environ.get("CI"):
            pytest.fail("the framekit console script is not on PATH")
        pytest.skip("the framekit console script is not on PATH")
    argv = row.argv.split()
    if "--frame" in argv:
        name = argv[argv.index("--frame") + 1]
        if not (work / name).exists():
            (maker,) = [r for r in ROWS if r.argv.endswith(f"--out {name}")]
            _run(maker, work)
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONWARNINGS": "error"}
    done = subprocess.run([*row.program, *argv], cwd=work, env=env, capture_output=True,
                          text=True, timeout=600)
    command = str(row)
    assert done.returncode in row.codes, (command, done.returncode, done.stderr)
    assert "Traceback" not in done.stderr, (command, done.stderr)
    if done.returncode == 2:
        assert done.stderr.startswith(f"error: {row.error}"), (command, done.stderr)
        assert done.stderr.count("\n") == 1, (command, done.stderr)
    else:
        assert done.stderr == "", (command, done.stderr)
    if argv[0] == "verify":
        overall = {0: "overall: PASS (", 1: "overall: FAIL ("}.get(done.returncode, "overall:")
        assert (overall in done.stdout) == (done.returncode != 2), (command, done.stdout)
    if row.after is not None:
        row.after(work)


@pytest.mark.parametrize("row", ROWS, ids=str)
def test_exit_contract(work, row):
    _run(row, work)
