import argparse
import contextlib
import io
import re
from pathlib import Path

from hyperbetti.cli import _build_parser
from hyperbetti.verify import COMPLEXES

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


def test_command_line_flags_exist():
    # every --flag the README's command-line section names is an option of some subcommand
    text = README.read_text(encoding="utf-8")
    section = re.search(r"## Command line\n(.*?)\n## ", text, re.S).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {flag for sub in subparsers.choices.values()
               for action in sub._actions for flag in action.option_strings}
    assert named and named <= options, sorted(named - options)


def test_complex_kinds_match_the_table():
    # the README lists every supporting complex the command line accepts
    text = README.read_text(encoding="utf-8")
    listed, default = re.search(r"`--complex ([a-z|]+)` \(default `([a-z]+)`\)", text).groups()
    assert set(listed.split("|")) == set(COMPLEXES)
    assert default == "faridi"
