import ast
import contextlib
import io
import re
from pathlib import Path

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
