"""The README's "Library" example and CLI examples run as written against the package."""

import pathlib
import re
import shlex

import numpy as np

from reidrisk import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs():
    # the inputs the example leaves to the reader: symbols, traces and one probe per user
    rng = np.random.default_rng(0)
    size, n = 64, 5
    scope = {
        "xs": rng.integers(0, size, 500),
        "size": size,
        "traces": [rng.integers(0, size, 16) for _ in range(n)],
        "probes": rng.integers(0, size, n),
    }
    exec(compile(library_block(), str(README), "exec"), scope)
    assert scope["est"].p_hat.shape == scope["glh_est"].p_hat.shape == (size,)
    assert scope["scores"].shape == (1000, n)
    assert 0.0 <= scope["error"] <= 1.0


def cli_examples() -> list:
    """argv of every command in the CLI section's "Examples" block."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("\nExamples:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    commands = [shlex.split(line) for line in lines]
    assert all(argv[0] == "reidrisk" for argv in commands)
    return [argv[1:] for argv in commands]


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    assert len(cli_examples()) == 8
    # the input the examples leave to the reader: 500 symbols in [0, 64)
    xs = np.random.default_rng(0).integers(0, 64, 500)
    (tmp_path / "values.csv").write_text(
        "user_idx,x\n" + "".join(f"{i},{x}\n" for i, x in enumerate(xs)))
    monkeypatch.chdir(tmp_path)
    for argv in cli_examples():
        assert cli.main(argv) == 0, f"reidrisk {shlex.join(argv)}: {capsys.readouterr().err}"
