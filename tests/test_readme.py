import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S)
    # pad with newlines so a failure names the README's own line
    code = "\n" * text[:match.start(1)].count("\n") + match.group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "VerdictKind.DOUBLE_FREE\n"
