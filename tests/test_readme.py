"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_quick_start_prints_its_numbers(capsys):
    match = re.search(r"## Library quick start\s+```python\n(.*?)```",
                      README.read_text(), re.S)
    assert match, "README has no Library quick start block"
    exec(compile(match.group(1), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.split() == ["4.0", "1.0"]
