"""The README's Quickstart and command-line examples against the code."""

import re
import shlex
from pathlib import Path

import pytest

from implicitnorm import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str) -> str:
    """The first fenced code block after the line ``heading``."""
    after = README.split("\n" + heading + "\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", after, re.S).group(1)


def test_quickstart_values():
    code = fenced_block("## Quickstart")
    namespace: dict = {}
    exec(code, namespace)
    # lines of the form `expression   # value ...`, the value as Python
    # displays it
    shown = dict(re.findall(r"^(\S.*?)\s+#\s+(-?\d+\.\d+)\s", code, re.M))
    assert {"r.value", "norm_value(x, G_SYSTEM)"} <= set(shown)
    for expression, text in shown.items():
        assert repr(eval(expression, namespace)) == text


EXAMPLES = [line for line in fenced_block("Examples:").splitlines()
            if line.startswith("implicitnorm ")]


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("line", EXAMPLES)
def test_example_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])


def test_global_flags_match_parser():
    block = fenced_block("## Command line")
    table = block.split("global flags:\n", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", table))
    parsed = {flag for action in cli.build_parser()._actions
              for flag in action.option_strings} - {"-h", "--help"}
    assert documented == parsed
