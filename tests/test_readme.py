import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_as_written(tmp_path, monkeypatch):
    # the documented API must stay the code's: run the block as it stands
    text = README.read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "trace.csv").stat().st_size > 0
