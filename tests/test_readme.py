"""The README's code examples run as written, and its CLI commands parse."""

import re
import shlex
from pathlib import Path

from signedcut.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str = "python") -> str:
    """The first ```lang block under a ``## heading`` of README.md."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    namespace: dict = {}
    exec(compile(readme_block("Library quick tour"), "<README.md quick tour>", "exec"), namespace)
    s = namespace["s"]
    assert s.converged[:2].all()
    assert namespace["summary"]["standard_side_a"] == [9, 10, 11, 12]
    assert [name for name, _ in namespace["artifacts"]][0] == "noisy-string.mtx"


def test_cli_commands_parse():
    """Every command of the CLI section parses to a subcommand with a handler; none is run."""
    lines = [shlex.split(line) for line in readme_block("CLI", "sh").splitlines() if line.strip()]
    assert lines and all(argv[0] == "signedcut" for argv in lines)
    for argv in lines:
        assert callable(build_parser().parse_args(argv[1:]).handler), argv
