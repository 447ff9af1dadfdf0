"""The README's library example runs as written and prints what it shows."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs_as_written(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {}
    exec(compile(example, str(README), "exec"), names)
    # deleting a quarter of the 448 phantom voxels leaves 336, so DSC is
    # 2 * 336 / 784 = 6/7, and every tube keeps a voxel
    assert capsys.readouterr().out == f"{6 / 7} 1.0 ()\n"
    # the example leaves perturb's seed out: it deletes the voxels seed 0 does
    pe, truth = names["pe"], names["truth"]
    seeded = pe.perturb(truth, pe.Perturbation(kind="delete_fraction", fraction=0.25), seed=0)
    assert (names["pred"].fg_index == seeded.fg_index).all()
