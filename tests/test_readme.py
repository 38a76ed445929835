"""The README's "Library" example runs as written against the package."""

import pathlib
import re

import numpy as np

import reidrisk as rr

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs():
    # the inputs the example leaves to the reader: symbols, traces and a population
    rng = np.random.default_rng(0)
    size, n = 64, 5
    scope = {
        "xs": rng.integers(0, size, 500),
        "size": size,
        "traces": [rng.integers(0, size, 16) for _ in range(n)],
        "pop": rr.PopulationModel.single_datum(
            rr.CategoricalDistribution.uniform(n),
            [rr.CategoricalDistribution.uniform(size)] * n),
    }
    exec(compile(library_block(), str(README), "exec"), scope)
    assert scope["est"].p_hat.shape == scope["glh_est"].p_hat.shape == (size,)
    assert scope["scores"].shape == (1000, n)
