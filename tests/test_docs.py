import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_its_comments():
    # each print line of the README example ends in a comment with what it prints
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["[((0, 0), 1), ((1, 9), 4), ((2, 11), 3)]", "9", "1"]
