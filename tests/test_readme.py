import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from losslin.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    """README.md's python block runs, and each line marked '# True' is True."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    lines = block.splitlines()
    namespace = {}
    checked = []
    with contextlib.redirect_stdout(io.StringIO()):
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            if isinstance(node, ast.Expr) and lines[node.end_lineno - 1].endswith("# True"):
                assert eval(source, namespace) is True, source
                checked.append(source)
            else:
                exec(source, namespace)
    assert any(c.startswith("report == build_report(") for c in checked)


def test_cli_block_runs(tmp_path):
    """Each losslin line of README.md's CLI block exits 0, and none uses --tol."""
    (block,) = re.findall(r"## CLI\n.*?```\n(.*?)```", README.read_text(), re.DOTALL)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "losslin" for argv in commands)
    for argv in commands:
        assert "--tol" not in argv, argv
        if "--out" in argv:
            # keep the example's output file out of the working directory
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "data.csv").is_file()
