"""The public surface: one name per object, and the README's examples run."""

import re
from pathlib import Path

import hopfcon

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_is_bound_to_its_own_object():
    names = {}
    for name in hopfcon.__all__:
        names.setdefault(id(getattr(hopfcon, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


def test_readme_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} (Library quickstart)", "exec"), {})
