"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first ```python block under a ``## heading`` of README.md."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs():
    namespace: dict = {}
    exec(compile(readme_block("Library quick tour"), "<README.md quick tour>", "exec"), namespace)
    s = namespace["s"]
    assert s.converged[:2].all()
    assert namespace["summary"]["standard_side_a"] == [9, 10, 11, 12]
    assert [name for name, _ in namespace["artifacts"]][0] == "noisy-string.mtx"
